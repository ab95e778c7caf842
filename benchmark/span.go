package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span is one timed call into a layer during the layer replay. Times
// are nanoseconds since the tracer started; Parent is the index of the
// enclosing span in the tracer's slice, -1 for a statement's root.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Stmt    int    `json:"stmt_id"`
	Class   string `json:"class"`
	RowsIn  int64  `json:"rows_in"`
	RowsOut int64  `json:"rows_out"`
}

// A tracer keeps the spans of a replay in memory. A nil tracer records
// nothing, which is how the replay measures its own overhead.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, stmt int, class string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Stmt: stmt, Class: class, Start: t.now()})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(i int, rowsIn, rowsOut int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.End = t.now()
	s.RowsIn, s.RowsOut = int64(rowsIn), int64(rowsOut)
}

// stage is one stage row of EXPLAIN ANALYZE: time the engine reported
// for a second execution of the statement.
type stage struct {
	name    string
	ns      int64
	in, out int64
}

// attach lays stages end to end as children of span parent, starting at
// the parent's start. The stage times come from a second execution, so
// when they add up to more than the parent lasted they are scaled down
// to fit: the stages keep their proportions and the parent's self time
// never goes negative.
func (t *tracer) attach(parent int, stages []stage) {
	if t == nil || len(stages) == 0 {
		return
	}
	p := t.spans[parent]
	var sum int64
	for _, s := range stages {
		sum += s.ns
	}
	scale := 1.0
	if d := p.End - p.Start; sum > d && sum > 0 {
		scale = float64(d) / float64(sum)
	}
	at := p.Start
	for _, s := range stages {
		d := int64(float64(s.ns) * scale)
		t.spans = append(t.spans, span{
			Name: "engine.stage_" + s.name, Parent: parent, Stmt: p.Stmt, Class: p.Class,
			Start: at, End: at + d, RowsIn: s.in, RowsOut: s.out,
		})
		at += d
	}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover. Children are clipped to the
// parent's interval and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerMeans folds a replay's spans into mean self-nanoseconds per
// replayed statement, keyed by span name. The values of one replay add
// up to the mean duration of a statement's root span.
func layerMeans(spans []span, statements int) map[string]float64 {
	out := map[string]float64{}
	if statements == 0 {
		return out
	}
	for i, ns := range selfTimes(spans) {
		out[spans[i].Name] += float64(ns)
	}
	for k := range out {
		out[k] /= float64(statements)
	}
	return out
}

// writeTrace stores the spans as JSON in dir.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
