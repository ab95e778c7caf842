package main

import "testing"

func TestSelfTimeOverlapAndClipping(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: 10..50 counts once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent: clipped to 90..100
		{Name: "d", Start: 12, End: 18, Parent: 1},  // grandchild: only a's business
		{Name: "e", Start: 40, End: 45, Parent: 2},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30 - 5, 30, 6, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimeChildCoversParent(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 5, End: 25, Parent: -1},
		{Name: "a", Start: 0, End: 40, Parent: 0},
	}
	if got := selfTimes(spans)[0]; got != 0 {
		t.Errorf("self time of a fully covered span = %d, want 0", got)
	}
}

func TestAttachScalesStagesToFit(t *testing.T) {
	tr := &tracer{spans: []span{{Name: "engine.self", Start: 100, End: 200, Parent: -1, Stmt: 7, Class: "c"}}}
	// 300 ns of stages from a second, slower execution must fit in 100.
	tr.attach(0, []stage{{name: "scan", ns: 100}, {name: "aggregate", ns: 200}})
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	scan, aggr := tr.spans[1], tr.spans[2]
	if scan.Name != "engine.stage_scan" || aggr.Name != "engine.stage_aggregate" {
		t.Errorf("stage names %q, %q", scan.Name, aggr.Name)
	}
	if d := scan.End - scan.Start; d != 33 {
		t.Errorf("scan stage lasts %d, want 33 (a third of the parent)", d)
	}
	if aggr.Start != scan.End || aggr.End > 200 {
		t.Errorf("aggregate stage [%d,%d] does not follow scan inside the parent", aggr.Start, aggr.End)
	}
	if scan.Stmt != 7 || scan.Class != "c" || scan.Parent != 0 {
		t.Errorf("stage span does not inherit from its parent: %+v", scan)
	}
	if self := selfTimes(tr.spans)[0]; self < 0 || self > 1 {
		t.Errorf("parent self time = %d, want 0 or 1 after scaling", self)
	}

	// Stages shorter than the parent keep their own durations.
	tr = &tracer{spans: []span{{Name: "engine.self", Start: 0, End: 1000, Parent: -1}}}
	tr.attach(0, []stage{{name: "apply", ns: 100}, {name: "wal_wait", ns: 300}})
	if self := selfTimes(tr.spans)[0]; self != 600 {
		t.Errorf("parent self time = %d, want 600", self)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	i := tr.begin("x", -1, 0, "c")
	tr.end(i, 1, 1)
	tr.attach(i, []stage{{name: "scan", ns: 1}})
	if i != -1 {
		t.Errorf("begin on a nil tracer = %d, want -1", i)
	}
}

// The per-layer means of a replay add up to the mean root duration.
func TestLayerMeansAddUp(t *testing.T) {
	spans := []span{
		{Name: "replay.self", Start: 0, End: 100, Parent: -1, Stmt: 0},
		{Name: "wire.encode_request", Start: 5, End: 15, Parent: 0, Stmt: 0},
		{Name: "engine.self", Start: 20, End: 80, Parent: 0, Stmt: 0},
		{Name: "engine.stage_scan", Start: 20, End: 60, Parent: 2, Stmt: 0},
		{Name: "replay.self", Start: 200, End: 260, Parent: -1, Stmt: 1},
		{Name: "engine.self", Start: 210, End: 250, Parent: 4, Stmt: 1},
	}
	means := layerMeans(spans, 2)
	sum := 0.0
	for _, v := range means {
		sum += v
	}
	if sum != 80 {
		t.Errorf("layer means add up to %v, want the mean root duration 80", sum)
	}
	if means["engine.self"] != 30 || means["engine.stage_scan"] != 20 || means["wire.encode_request"] != 5 {
		t.Errorf("layer means = %v", means)
	}
}
