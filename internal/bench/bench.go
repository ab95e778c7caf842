// Package bench implements the experiment harness that regenerates every
// figure of the paper's evaluation (§5). Each experiment builds the
// paper's data setting (scaled to laptop sizes), runs the
// paper's workloads against the live hybrid engine, and prints the same
// series the figure plots. Absolute runtimes differ from the paper's
// HANA testbed by design — the calibrated cost model and the shapes
// (linearity, crossovers, minima, ordering) are what the harness checks.
package bench

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hybridstore/internal/costmodel"
	"hybridstore/internal/costmodel/calibrate"
	"hybridstore/internal/engine"
	"hybridstore/internal/query"
)

// Config tunes an experiment run.
type Config struct {
	// Scale multiplies the default (already scaled-down) table sizes;
	// 1.0 reproduces the defaults, smaller values give quicker runs.
	Scale float64
	// Seed drives all data and workload generation.
	Seed int64
	// Reps is the number of repetitions for direct query measurements
	// (median is reported).
	Reps int
	// Model is the cost model to use; nil calibrates one (cached per
	// process) against the live engine.
	Model *costmodel.Model
	// CalibRows sizes the calibration tables when Model is nil.
	CalibRows int
	// Out receives the printed experiment table (default os.Stdout).
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 2012
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.CalibRows <= 0 {
		c.CalibRows = 50_000
	}
	if c.Out == nil {
		c.Out = os.Stdout
	}
	return c
}

// scaled applies the scale factor with a floor.
func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 100 {
		v = 100
	}
	return v
}

var (
	modelMu    sync.Mutex
	modelCache = map[int]*costmodel.Model{}
)

// model returns the configured or cached calibrated model.
func (c Config) model() (*costmodel.Model, error) {
	if c.Model != nil {
		return c.Model, nil
	}
	modelMu.Lock()
	defer modelMu.Unlock()
	if m, ok := modelCache[c.CalibRows]; ok {
		return m, nil
	}
	m, err := calibrate.Calibrate(calibrate.Config{
		RefRows: c.CalibRows, Reps: c.Reps, Seed: c.Seed,
	})
	if err != nil {
		return nil, err
	}
	modelCache[c.CalibRows] = m
	return m, nil
}

// Result is a finished experiment: a printable table plus machine-
// readable series keyed by column name (used by tests).
type Result struct {
	Name    string
	Title   string
	Columns []string
	Rows    [][]string
	Series  map[string][]float64
	Notes   []string
}

// AddRow appends a formatted row and its numeric series values.
func (r *Result) AddRow(cells []string, numeric map[string]float64) {
	r.Rows = append(r.Rows, cells)
	if r.Series == nil {
		r.Series = map[string][]float64{}
	}
	for k, v := range numeric {
		r.Series[k] = append(r.Series[k], v)
	}
}

// Fprint renders the experiment table.
func (r *Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s\n", r.Name, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(r.Columns)
	sep := make([]string, len(r.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// Experiment is a runnable paper experiment.
type Experiment struct {
	Name  string
	Title string
	Run   func(Config) (*Result, error)
}

// Experiments lists every reproducible figure in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig6a", "Estimation accuracy vs. data scale (Figure 6a)", Fig6a},
		{"fig6b", "Estimation accuracy vs. number of aggregates (Figure 6b)", Fig6b},
		{"fig7a", "Recommendation quality, single table (Figure 7a)", Fig7a},
		{"fig7b", "Recommendation quality, join queries (Figure 7b)", Fig7b},
		{"fig8", "Horizontal partitioning sweep (Figure 8)", Fig8},
		{"fig9a", "Vertical partitioning, OLAP setting (Figure 9a)", Fig9a},
		{"fig9b", "Vertical partitioning, OLTP setting (Figure 9b)", Fig9b},
		{"fig10", "TPC-H combination and comparison (Figure 10)", Fig10},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if strings.EqualFold(e.Name, name) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes one experiment by name and prints it.
func Run(name string, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	e, ok := Lookup(name)
	if !ok {
		names := make([]string, 0)
		for _, x := range Experiments() {
			names = append(names, x.Name)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", name, strings.Join(names, ", "))
	}
	res, err := e.Run(cfg)
	if err != nil {
		return nil, err
	}
	res.Name = e.Name
	res.Title = e.Title
	res.Fprint(cfg.Out)
	return res, nil
}

// RunAll executes and prints every experiment, sharing one calibrated
// model.
func RunAll(cfg Config) error {
	cfg = cfg.withDefaults()
	m, err := cfg.model()
	if err != nil {
		return err
	}
	cfg.Model = m
	for _, e := range Experiments() {
		if _, err := Run(e.Name, cfg); err != nil {
			return fmt.Errorf("bench: %s: %w", e.Name, err)
		}
	}
	return nil
}

// runWorkload executes every query and returns the summed engine-measured
// execution time (harness overhead excluded). A GC pass beforehand keeps
// leftover garbage from a previous variant's load out of this variant's
// measurement.
func runWorkload(db *engine.Database, w *query.Workload) (time.Duration, error) {
	runtime.GC()
	var total time.Duration
	for _, q := range w.Queries {
		res, err := db.Exec(q)
		if err != nil {
			return 0, err
		}
		total += res.Duration
	}
	return total, nil
}

// measureQuery runs q reps times and returns the median duration.
func measureQuery(db *engine.Database, q *query.Query, reps int) (time.Duration, error) {
	runtime.GC()
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		res, err := db.Exec(q)
		if err != nil {
			return 0, err
		}
		times = append(times, res.Duration)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

// ms formats nanoseconds as milliseconds.
func ms(ns float64) string { return fmt.Sprintf("%.2f", ns/1e6) }

// secs formats a duration in seconds.
func secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }
