// Command hsbench regenerates the paper's evaluation figures against the
// live hybrid-store engine. Each experiment prints the series the paper
// plots; -list prints the experiment index.
//
// Usage:
//
//	hsbench [-exp fig7a] [-scale 1.0] [-seed 2012] [-reps 3] [-calib 20000]
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
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment to run (fig6a, fig6b, fig7a, fig7b, fig8, fig9a, fig9b, fig10, all)")
		scale = flag.Float64("scale", 1.0, "table-size scale factor (1.0 = default scaled-down sizes)")
		seed  = flag.Int64("seed", 2012, "random seed for data and workload generation")
		reps  = flag.Int("reps", 3, "repetitions per direct measurement (median reported)")
		calib = flag.Int("calib", 50000, "calibration reference table size")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

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
		Out:       os.Stdout,
	}
	var err error
	if strings.EqualFold(*exp, "all") {
		fmt.Println("calibrating cost model against this machine...")
		err = bench.RunAll(cfg)
	} else {
		_, err = bench.Run(*exp, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsbench:", err)
		os.Exit(1)
	}
}
