// Command benchmark is the layered, seed-driven benchmark of the hybrid
// store. It generates each workload's statements from -seed, measures
// client-observed end-to-end metrics with tracing off (-trace 0), or
// walks a sample of the same statements through the layers one call at a
// time and reports per-layer metrics (-trace 1), and checks the outputs
// against oracles either way. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	scratch  string // durable engines keep their files under here
	out      string // trace-<workload>.json files go here
}

// A bench is one workload. The harness calls setup, run, verify and
// close, in that order; replay and probes only on a traced run.
type bench interface {
	// setup builds the workload's state from the seed: tables loaded and
	// compacted, server started, clients connected, statements prepared,
	// caches warmed.
	setup() error
	// run drives the closed-loop clients for d, untraced.
	run(d time.Duration) error
	runStats() *runStats
	// classes names the statement classes behind the point_* and scan_*
	// end-to-end metrics.
	classes() (point, scan []string)
	memBytesPerRow() (float64, error)
	// verify checks the workload's outputs against its oracle.
	verify() error
	// replay walks a seed-fixed sample of n statements through the
	// layers. Both passes (0 untraced, 1 traced) walk the same statements,
	// except that inserts take keys of the pass's own.
	replay(pass int, tr *tracer, n int) (*walker, error)
	// probes times single layers in isolation and reads their counters.
	probes(p *probeSet) error
	close()
}

// runStats is what the untraced run leaves behind.
type runStats struct {
	rec    recorder
	wall   time.Duration
	failed int
}

var benches = map[string]func(config) bench{
	"oltp_point":      func(c config) bench { return newOLTP(c) },
	"olap_scan":       func(c config) bench { return newOLAP(c) },
	"htap_durable":    func(c config) bench { return newHTAP(c) },
	"advisor_offline": func(c config) bench { return newAdvisor(c) },
}

var workloadNames = []string{"oltp_point", "olap_scan", "htap_durable", "advisor_offline"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meanKeep is the share of a class's samples, fastest first, that its
// mean99 metric averages.
const meanKeep = 0.99

// setupReps is how many times a run sets the workload up; setup_s is the
// median, the measurement uses the last.
const setupReps = 3

func main() {
	cfg := config{scratch: ".bench_build", out: outDir()}
	var trace int
	var agree bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run; empty runs all four, traced and untraced, each in its own process")
	flag.Int64Var(&cfg.seed, "seed", 2012, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds to measure")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: layer replay and per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny tables, for tests")
	flag.BoolVar(&agree, "agree", false, "run every workload untraced, twice, and compare every end-to-end metric pair against its bound")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	switch {
	case agree:
		err = runAgree(cfg)
	case cfg.workload == "":
		_, err = runAll(cfg, true, os.Stdout)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// outDir is benchmark/out when started from the repository root (the
// driver's working directory) and out/ when started from benchmark/.
func outDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return "benchmark/out"
	}
	return "out"
}

// runOne runs one workload in this process and prints its result.
func runOne(cfg config) error {
	mk, ok := benches[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return err
	}
	fmt.Printf("# workload %s seed %d seconds %g trace %v nproc %d GOMAXPROCS %d %s commit %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	var res *result
	var err error
	if cfg.trace {
		res, err = measureLayers(cfg, mk)
	} else {
		res, err = measureEndToEnd(cfg, mk)
	}
	if err != nil {
		return err
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: outputs incorrect or operations failed", cfg.workload)
	}
	return nil
}

// commit is the VCS revision stamped into the binary, if any. The
// driver's checkout is not a repository, so this is often "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-36s %16.4f %s\n", n, m.Value, m.Unit)
	}
}

// measureEndToEnd is the untraced run: set up setupReps times, drive the
// clients for cfg.seconds, check the outputs.
func measureEndToEnd(cfg config, mk func(config) bench) (*result, error) {
	var b bench
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
			b = nil
			runtime.GC()
		}
		b = mk(cfg)
		t0 := time.Now()
		if err := b.setup(); err != nil {
			b.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()

	runErr := b.run(time.Duration(cfg.seconds * float64(time.Second)))
	st := b.runStats()
	mem, err := b.memBytesPerRow()
	if err != nil {
		return nil, err
	}
	heap := liveHeapMiB()
	verr := b.verify()

	point, scan := b.classes()
	ps, ss := st.rec.pick(point...), st.rec.pick(scan...)
	pm, sm := merged(ps), merged(ss)
	fmt.Printf("# samples: point %d, scan %d, wall %.3fs, setups %v\n", len(pm), len(sm), st.wall.Seconds(), setups)
	printClasses(&st.rec)
	vals := map[string]float64{
		"setup_s":           medianFloat(setups),
		"ops_per_s":         float64(count(st.rec.all)) / st.wall.Seconds(),
		"point_p50_us":      float64(percentile(pm, 0.5)) / 1e3,
		"point_mean99_us":   trimmedMean(pm, meanKeep) / 1e3,
		"scan_p50_ms":       float64(percentile(sm, 0.5)) / 1e6,
		"scan_mean99_ms":    trimmedMean(sm, meanKeep) / 1e6,
		"mem_bytes_per_row": mem,
		"live_heap_mb":      heap,
	}
	return newResult(runErr, verr, st, endToEnd, vals), nil
}

// newResult builds a run's result: it is correct when the run and the
// oracle raised no error and no operation failed, and it reports every
// metric of defs (0 for one vals lacks).
func newResult(runErr, oracleErr error, st *runStats, defs []metricDef, vals map[string]float64) *result {
	if runErr != nil {
		fmt.Println("# run:", runErr)
	}
	if oracleErr != nil {
		fmt.Println("# oracle:", oracleErr)
	}
	res := &result{
		Correct:   runErr == nil && oracleErr == nil && st.failed == 0,
		Attempted: count(st.rec.all) + st.failed,
		Failed:    st.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return res
}

// measureLayers is the traced run: the untraced run again, for the client
// latency and the program's counters, then the layer replay of a
// seed-fixed sample with spans off and with spans on, and the layer
// probes.
func measureLayers(cfg config, mk func(config) bench) (*result, error) {
	b := mk(cfg)
	defer b.close()
	if err := b.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	p := newProbeSet(cfg)
	p.snapshotCounters()
	runErr := b.run(time.Duration(cfg.seconds * float64(time.Second)))
	st := b.runStats()
	p.counterDeltas()
	verr := b.verify()

	n := replayStatements
	if cfg.smoke {
		n = 200
	}
	// Spans off first: the caches the replay mirrors are then as warm
	// for the traced pass as the server's were for the untraced run.
	plain, err := b.replay(0, nil, n)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	tr := newTracer()
	traced, err := b.replay(1, tr, n)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	path, err := writeTrace(cfg.out, cfg.workload, tr.spans)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# %d spans of %d statements written to %s\n", len(tr.spans), traced.statements, path)
	p.replay(tr.spans, traced, plain, mean(st.rec.all))

	if err := b.probes(p); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	p.set("process.peak_rss_mb", rss)
	res := newResult(runErr, verr, st, perLayer, p.vals)
	for name := range p.vals {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("probe reported %q, which is not a per-layer metric", name)
		}
	}
	return res, nil
}

// printClasses prints sample count, median, 95th and 99th percentile and
// mean of every statement class of the run.
func printClasses(rec *recorder) {
	seen := map[string]bool{}
	for _, s := range rec.all {
		if seen[s.class] {
			continue
		}
		seen[s.class] = true
		ss := rec.pick(s.class)
		all := merged(ss)
		fmt.Printf("# class %-14s n %8d  p50 %10.1f us  p95 %10.1f us  p99 %10.1f us  mean %10.1f us\n",
			s.class, len(all), float64(percentile(all, 0.5))/1e3, float64(percentile(all, 0.95))/1e3,
			float64(percentile(all, 0.99))/1e3, mean(ss)/1e3)
	}
}

// replayStatements is the size of the layer replay's sample.
const replayStatements = 1000

// liveHeapMiB is the heap still reachable after a collection: what the
// engine, the server and the clients hold once the run is over. Unlike
// the peak resident set it does not depend on when the collector last
// ran, so it repeats from run to run.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMiB reads this process's peak resident set size.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
