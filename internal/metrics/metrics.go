// Package metrics is the engine's dependency-free instrumentation
// registry: atomic counters, gauges (including callback gauges) and
// bounded exponential-bucket histograms with quantile estimation,
// exported in Prometheus text exposition format and as name/value rows
// for the SHOW METRICS statement.
//
// The package sits below every other internal package (it imports only
// the standard library), so the WAL, the exec pool, the storage layers
// and the server can all record into one process-wide registry without
// import cycles. Recording is wait-free — a counter Add is one atomic
// add, a histogram Observe is two — so instruments are safe to touch
// from scan inner loops and fsync paths alike.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// gaugeFunc is a gauge whose value is computed by a callback at
// collection time — used for values another subsystem already tracks
// (pool queue depth, live session count) so they need no duplicate
// bookkeeping.
type gaugeFunc struct {
	name string
	help string
	fn   atomic.Pointer[func() int64] // replaced on re-registration, while collectors may be reading
}

func (g *gaugeFunc) value() int64 { return (*g.fn.Load())() }

// Histogram is a bounded exponential-bucket latency/size histogram.
// Buckets grow by a fixed ratio from a minimum bound, so a fixed, small
// number of buckets (default 40) spans nanoseconds to minutes with
// ~20% relative quantile error — plenty for p50/p99 reporting, and the
// whole structure is a flat array of atomics with no allocation on the
// record path.
type Histogram struct {
	name   string
	help   string
	unit   string // exposition hint, e.g. "seconds" (values recorded in ns)
	min    float64
	ratio  float64
	counts []atomic.Int64 // len = buckets + 1; last is overflow
	count  atomic.Int64
	sum    atomic.Int64 // sum of raw observed values
}

const (
	histBuckets = 40
	histMin     = 1000.0 // 1µs in ns: everything below lands in bucket 0
	histRatio   = 1.6
)

// Observe records one value (typically nanoseconds for latency
// histograms, raw counts for size histograms).
func (h *Histogram) Observe(v int64) {
	h.counts[h.bucket(float64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

func (h *Histogram) bucket(v float64) int {
	if v < h.min {
		return 0
	}
	b := int(math.Log(v/h.min)/math.Log(h.ratio)) + 1
	if b >= len(h.counts) {
		return len(h.counts) - 1
	}
	return b
}

// upperBound returns the exclusive upper bound of bucket b (inf for the
// overflow bucket).
func (h *Histogram) upperBound(b int) float64 {
	if b >= len(h.counts)-1 {
		return math.Inf(1)
	}
	return h.min * math.Pow(h.ratio, float64(b))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 < q < 1) of the observed values
// from the bucket counts, returning 0 when the histogram is empty. The
// estimate is the upper bound of the bucket the quantile falls in, so
// it errs high by at most one bucket ratio.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b := range h.counts {
		seen += h.counts[b].Load()
		if seen >= rank {
			if b == len(h.counts)-1 {
				// Overflow bucket: the mean of what landed there is the
				// least-wrong point estimate available.
				return float64(h.sum.Load()) / float64(total)
			}
			return h.upperBound(b)
		}
	}
	return h.upperBound(len(h.counts) - 1)
}

// Registry holds named instruments and renders them. Registration is
// idempotent by name: asking for an existing name returns the existing
// instrument, so packages can declare their metrics independently
// without coordinating init order.
type Registry struct {
	mu     sync.Mutex
	order  []string
	byName map[string]any
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]any{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every subsystem records into.
func Default() *Registry { return defaultRegistry }

func (r *Registry) lookup(name string) (any, bool) {
	m, ok := r.byName[name]
	return m, ok
}

func (r *Registry) register(name string, m any) {
	r.byName[name] = m
	r.order = append(r.order, name)
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name); ok {
		if c, ok := m.(*Counter); ok {
			return c
		}
		panic(fmt.Sprintf("metrics: %s already registered with a different type", name))
	}
	c := &Counter{name: name, help: help}
	r.register(name, c)
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name); ok {
		if g, ok := m.(*Gauge); ok {
			return g
		}
		panic(fmt.Sprintf("metrics: %s already registered with a different type", name))
	}
	g := &Gauge{name: name, help: help}
	r.register(name, g)
	return g
}

// GaugeFunc registers a callback gauge under name. Re-registering an
// existing name replaces the callback (the latest owner wins — a server
// restart within one process re-binds its pool gauges).
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name); ok {
		if g, ok := m.(*gaugeFunc); ok {
			g.fn.Store(&fn)
			return
		}
		panic(fmt.Sprintf("metrics: %s already registered with a different type", name))
	}
	g := &gaugeFunc{name: name, help: help}
	g.fn.Store(&fn)
	r.register(name, g)
}

// Histogram returns the histogram registered under name, creating it on
// first use. unit is an exposition hint only ("seconds" histograms are
// recorded in nanoseconds and scaled on export).
func (r *Registry) Histogram(name, help, unit string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name); ok {
		if h, ok := m.(*Histogram); ok {
			return h
		}
		panic(fmt.Sprintf("metrics: %s already registered with a different type", name))
	}
	h := &Histogram{
		name: name, help: help, unit: unit,
		min: histMin, ratio: histRatio,
	}
	h.counts = make([]atomic.Int64, histBuckets+1)
	r.register(name, h)
	return h
}

// snapshot returns the instruments in registration order.
func (r *Registry) snapshot() []any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]any, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.byName[name])
	}
	return out
}

// scale converts a recorded value to exposition units: histograms with
// unit "seconds" record nanoseconds internally.
func (h *Histogram) scale(v float64) float64 {
	if h.unit == "seconds" {
		return v / 1e9
	}
	return v
}

// WritePrometheus renders every registered instrument in Prometheus
// text exposition format (version 0.0.4): HELP/TYPE comments, counter
// and gauge samples, and full histogram series (cumulative _bucket
// lines with le labels, _sum, _count).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, m := range r.snapshot() {
		var err error
		switch m := m.(type) {
		case *Counter:
			err = writeSample(w, m.name, m.help, "counter", float64(m.Value()))
		case *Gauge:
			err = writeSample(w, m.name, m.help, "gauge", float64(m.Value()))
		case *gaugeFunc:
			err = writeSample(w, m.name, m.help, "gauge", float64(m.value()))
		case *Histogram:
			err = writeHistogram(w, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeSample(w io.Writer, name, help, typ string, v float64) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
		name, help, name, typ, name, formatValue(v))
	return err
}

func writeHistogram(w io.Writer, h *Histogram) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name); err != nil {
		return err
	}
	var cum int64
	for b := range h.counts {
		cum += h.counts[b].Load()
		le := "+Inf"
		if b < len(h.counts)-1 {
			le = formatValue(h.scale(h.upperBound(b)))
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", h.name, le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
		h.name, formatValue(h.scale(float64(h.Sum()))), h.name, h.Count())
	return err
}

// formatValue renders a float without exponent noise for integral
// values, which keeps counters readable.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}

// Row is one name/value pair for SHOW METRICS output. Histograms expand
// into count/sum/p50/p99 rows.
type Row struct {
	Name  string
	Value float64
}

// Rows renders every instrument as sorted name/value rows; histograms
// expand into _count, _sum, _p50 and _p99 pseudo-samples (in exposition
// units).
func (r *Registry) Rows() []Row {
	var rows []Row
	for _, m := range r.snapshot() {
		switch m := m.(type) {
		case *Counter:
			rows = append(rows, Row{m.name, float64(m.Value())})
		case *Gauge:
			rows = append(rows, Row{m.name, float64(m.Value())})
		case *gaugeFunc:
			rows = append(rows, Row{m.name, float64(m.value())})
		case *Histogram:
			rows = append(rows,
				Row{m.name + "_count", float64(m.Count())},
				Row{m.name + "_sum", m.scale(float64(m.Sum()))},
				Row{m.name + "_p50", m.scale(m.Quantile(0.50))},
				Row{m.name + "_p99", m.scale(m.Quantile(0.99))},
			)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}
