// Command hsbench regenerates the paper's evaluation figures against the
// live hybrid-store engine. Each experiment prints the series the paper
// plots; -list prints the experiment index.
//
// Usage:
//
//	hsbench [-exp fig7a] [-scale 1.0] [-seed 2012] [-reps 3] [-calib 20000] [-data dir]
//
// With -exp all (the default) every experiment runs in order, sharing one
// calibrated cost model.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hybridstore/internal/bench"
	"hybridstore/internal/exec"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment to run (fig6a, fig6b, fig7a, fig7b, fig8, fig9a, fig9b, fig10, ablation, durability, concurrent-clients, parallel, planner, ingest, all)")
		scale = flag.Float64("scale", 1.0, "table-size scale factor (1.0 = default scaled-down sizes)")
		seed  = flag.Int64("seed", 2012, "random seed for data and workload generation")
		reps  = flag.Int("reps", 3, "repetitions per direct measurement (median reported)")
		calib = flag.Int("calib", 50000, "calibration reference table size")
		data  = flag.String("data", "", "directory for the durability experiment's data dirs (default: system temp)")
		list  = flag.Bool("list", false, "list experiments and exit")

		workers = flag.Int("workers", 0, "worker-pool slots for morsel-parallel scans (0 = GOMAXPROCS)")
		jsonDir = flag.String("json", "", "write a BENCH_<experiment>.json snapshot per experiment into this directory")
	)
	flag.Parse()
	if *workers > 0 {
		exec.SetDefaultSize(*workers)
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s %s\n", e.Name, e.Title)
		}
		return
	}

	cfg := bench.Config{
		Scale:     *scale,
		Seed:      *seed,
		Reps:      *reps,
		CalibRows: *calib,
		DataDir:   *data,
		Out:       os.Stdout,
	}

	writeJSON := func(results ...*bench.Result) {
		if *jsonDir == "" {
			return
		}
		for _, r := range results {
			path, err := bench.WriteJSON(*jsonDir, r, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hsbench:", err)
				os.Exit(1)
			}
			fmt.Println("wrote", path)
		}
	}

	if strings.EqualFold(*exp, "all") {
		fmt.Println("calibrating cost model against this machine...")
		results, err := bench.RunAll(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hsbench:", err)
			os.Exit(1)
		}
		writeJSON(results...)
		return
	}
	res, err := bench.Run(*exp, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsbench:", err)
		os.Exit(1)
	}
	writeJSON(res)
}
