// Package trace is the engine's per-statement execution tracer: a
// lightweight span collector threaded from engine.ExecContext through
// the storage scan/aggregate/join paths and the worker pool, recording
// per-stage wall time, row counts and storage-level counters (blocks
// scanned vs. zone-map-skipped, delta-vs-main rows, morsel and worker
// activity, WAL group-commit wait).
//
// Every method is nil-receiver safe: a nil *Trace (the default — tracing
// is off unless the statement is an EXPLAIN ANALYZE or the slow-query
// log armed it) costs one predictable branch at span boundaries and
// nothing at all in row loops, because instrumented code accumulates
// counters locally and reports them once per span. The overhead budget
// with tracing disabled is the same as internal/monitor's: under 2% on
// the hot scan path, enforced by an engine benchmark test.
package trace

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"time"
)

// KV is one named counter attached to a span ("blocks_scanned", 12), or —
// with Tag set — a named choice the stage made ("kernel", "dense").
type KV struct {
	Key string
	Val int64
	Tag string
}

// Span is one traced execution stage. Counters are accumulated with Add
// and the span is closed with End; a nil *Span ignores every call, so
// callers never need to guard on whether tracing is active.
type Span struct {
	mu      sync.Mutex
	stage   string
	start   time.Time
	dur     time.Duration
	rowsIn  int64
	rowsOut int64
	kv      []KV
	done    bool
}

// End closes the span, fixing its duration. Safe to call twice (the
// first call wins).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.dur = time.Since(s.start)
		s.done = true
	}
	s.mu.Unlock()
}

// AddRowsIn accumulates input rows (rows entering the stage).
func (s *Span) AddRowsIn(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.mu.Lock()
	s.rowsIn += n
	s.mu.Unlock()
}

// AddRowsOut accumulates output rows (rows the stage produced).
func (s *Span) AddRowsOut(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.mu.Lock()
	s.rowsOut += n
	s.mu.Unlock()
}

// Add accumulates a named counter on the span. Keys keep first-add
// order in the rendered detail.
func (s *Span) Add(key string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.kv {
		if s.kv[i].Key == key {
			s.kv[i].Val += n
			s.mu.Unlock()
			return
		}
	}
	s.kv = append(s.kv, KV{Key: key, Val: n})
	s.mu.Unlock()
}

// Tag records a named choice the stage made, rendered "key=val" among the
// counters.
func (s *Span) Tag(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.kv = append(s.kv, KV{Key: key, Tag: val})
	s.mu.Unlock()
}

// Stage returns the span's stage name.
func (s *Span) Stage() string {
	if s == nil {
		return ""
	}
	return s.stage
}

// Duration returns the span's wall time (0 until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done {
		return time.Since(s.start)
	}
	return s.dur
}

// RowsIn returns the accumulated input row count.
func (s *Span) RowsIn() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rowsIn
}

// RowsOut returns the accumulated output row count.
func (s *Span) RowsOut() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rowsOut
}

// Detail returns the span's named counters in first-add order.
func (s *Span) Detail() []KV {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]KV(nil), s.kv...)
}

// DetailString renders the counters as "k=v k=v".
func (s *Span) DetailString() string {
	kv := s.Detail()
	if len(kv) == 0 {
		return ""
	}
	parts := make([]string, len(kv))
	for i, e := range kv {
		if e.Tag != "" {
			parts[i] = e.Key + "=" + e.Tag
		} else {
			parts[i] = fmt.Sprintf("%s=%d", e.Key, e.Val)
		}
	}
	return strings.Join(parts, " ")
}

// Trace collects the spans of one statement execution plus pool-level
// activity (morsel counts, per-worker busy time). A nil *Trace no-ops
// on every method.
type Trace struct {
	mu         sync.Mutex
	start      time.Time
	spans      []*Span
	kv         []KV // trace-level storage counters (blocks, delta/main rows)
	workerBusy map[int]time.Duration
	morsels    int64
	runs       int64
	widest     int   // the most workers one loop ran on
	starved    int64 // loops that could use more than one worker but ran on one
}

// New starts an empty trace.
func New() *Trace {
	return &Trace{start: time.Now()}
}

// Start opens a new span for the given stage and appends it to the
// trace. Returns nil (a safe no-op span) on a nil trace.
func (t *Trace) Start(stage string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{stage: stage, start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Spans returns the spans in start order.
func (t *Trace) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}

// Span returns the first span opened for the given stage, or nil (a safe
// no-op span) when there is none. Storage layers that only hold the trace
// use it to attach their counters to the stage they run under.
func (t *Trace) Span(stage string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.stage == stage {
			return s
		}
	}
	return nil
}

// Add accumulates a trace-level named counter. The storage layers use
// it for counters that cross span boundaries (blocks scanned vs.
// zone-map-skipped, delta-vs-main rows) without needing a span handle.
func (t *Trace) Add(key string, n int64) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	for i := range t.kv {
		if t.kv[i].Key == key {
			t.kv[i].Val += n
			t.mu.Unlock()
			return
		}
	}
	t.kv = append(t.kv, KV{Key: key, Val: n})
	t.mu.Unlock()
}

// Counter returns the current value of one trace-level counter.
func (t *Trace) Counter(key string) int64 {
	for _, e := range t.Counters() {
		if e.Key == key {
			return e.Val
		}
	}
	return 0
}

// Counters returns the trace-level counters in first-add order.
func (t *Trace) Counters() []KV {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]KV(nil), t.kv...)
}

// CountersString renders the trace-level counters as "k=v k=v".
func (t *Trace) CountersString() string {
	kv := t.Counters()
	if len(kv) == 0 {
		return ""
	}
	parts := make([]string, len(kv))
	for i, e := range kv {
		parts[i] = fmt.Sprintf("%s=%d", e.Key, e.Val)
	}
	return strings.Join(parts, " ")
}

// AddMorselRun records one parallel loop: n morsels processed on workers
// workers, of the width it could have used.
func (t *Trace) AddMorselRun(morsels int64, workers, width int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.morsels += morsels
	t.runs++
	t.widest = max(t.widest, workers)
	if workers == 1 && width > 1 {
		t.starved++
	}
	t.mu.Unlock()
}

// AddWorkerBusy accumulates busy wall time for one worker id across the
// statement's parallel loops.
func (t *Trace) AddWorkerBusy(worker int, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.mu.Lock()
	if t.workerBusy == nil {
		t.workerBusy = map[int]time.Duration{}
	}
	t.workerBusy[worker] += d
	t.mu.Unlock()
}

// Parallel renders the statement's parallel loops as one detail line —
// "morsels=12 runs=3 workers=2 starved=0 busy[w0=1ms w1=800µs]": workers
// is the most one loop ran on, starved counts the loops that could have
// used more than one worker but got no slot for a second, and busy lists
// each worker id's busy time across the loops — and sums the busy time;
// ok is false when no loop ran.
func (t *Trace) Parallel() (detail string, busy time.Duration, ok bool) {
	if t == nil {
		return "", 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.runs == 0 {
		return "", 0, false
	}
	workers := slices.Sorted(maps.Keys(t.workerBusy))
	parts := make([]string, len(workers))
	for i, w := range workers {
		parts[i] = fmt.Sprintf("w%d=%s", w, t.workerBusy[w].Round(time.Microsecond))
		busy += t.workerBusy[w]
	}
	return fmt.Sprintf("morsels=%d runs=%d workers=%d starved=%d busy[%s]",
		t.morsels, t.runs, t.widest, t.starved, strings.Join(parts, " ")), busy, true
}

// Summary renders the whole trace as one compact line for the
// slow-query log: "stage=scan dur=1.2ms rows_out=500 blocks_scanned=12;
// stage=walwait dur=0.8ms".
func (t *Trace) Summary() string {
	if t == nil {
		return ""
	}
	var parts []string
	for _, s := range t.Spans() {
		p := fmt.Sprintf("stage=%s dur=%s", s.Stage(), s.Duration().Round(time.Microsecond))
		if in := s.RowsIn(); in > 0 {
			p += fmt.Sprintf(" rows_in=%d", in)
		}
		if out := s.RowsOut(); out > 0 {
			p += fmt.Sprintf(" rows_out=%d", out)
		}
		if d := s.DetailString(); d != "" {
			p += " " + d
		}
		parts = append(parts, p)
	}
	if c := t.CountersString(); c != "" {
		parts = append(parts, "stage=storage "+c)
	}
	if p, _, ok := t.Parallel(); ok {
		parts = append(parts, "stage=parallel "+p)
	}
	return strings.Join(parts, "; ")
}

type ctxKey struct{}

// WithTrace attaches a trace to the context for the storage layers to
// pick up via FromContext.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil when the statement is
// untraced.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
