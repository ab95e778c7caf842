package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Trace
	sp := tr.Start("scan")
	if sp != nil {
		t.Fatal("nil trace must hand out nil spans")
	}
	sp.AddRowsIn(5)
	sp.AddRowsOut(3)
	sp.Add("blocks", 2)
	sp.End()
	if sp.Duration() != 0 || sp.RowsOut() != 0 || sp.Stage() != "" {
		t.Fatal("nil span accessors must return zero values")
	}
	tr.AddMorselRun(10, 4, 4)
	tr.AddWorkerBusy(1, time.Millisecond)
	if _, _, ok := tr.Parallel(); ok || tr.Summary() != "" || tr.Spans() != nil {
		t.Fatal("nil trace accessors must return zero values")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("context without trace must return nil")
	}
	if FromContext(nil) != nil {
		t.Fatal("nil context must return nil")
	}
}

func TestSpanLifecycle(t *testing.T) {
	tr := New()
	sp := tr.Start("scan")
	sp.AddRowsIn(100)
	sp.AddRowsOut(40)
	sp.Add("blocks_scanned", 3)
	sp.Add("blocks_skipped", 7)
	sp.Add("blocks_scanned", 2) // accumulates
	time.Sleep(time.Millisecond)
	sp.End()
	d := sp.Duration()
	if d <= 0 {
		t.Fatalf("duration = %v, want > 0", d)
	}
	sp.End() // second End must not reset the duration
	if sp.Duration() != d {
		t.Fatal("second End changed the duration")
	}
	if sp.RowsIn() != 100 || sp.RowsOut() != 40 {
		t.Fatalf("rows = %d/%d, want 100/40", sp.RowsIn(), sp.RowsOut())
	}
	kv := sp.Detail()
	if len(kv) != 2 || kv[0].Key != "blocks_scanned" || kv[0].Val != 5 {
		t.Fatalf("detail = %v, want blocks_scanned=5 first", kv)
	}
	if got := sp.DetailString(); got != "blocks_scanned=5 blocks_skipped=7" {
		t.Fatalf("detail string = %q", got)
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0] != sp {
		t.Fatalf("trace spans = %v", spans)
	}
}

func TestWorkerBusyAndMorsels(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr.AddWorkerBusy(w, time.Duration(w+1)*time.Millisecond)
			tr.AddMorselRun(10, 4, 4)
		}(w)
	}
	wg.Wait()
	detail, busy, ok := tr.Parallel()
	if want := "morsels=40 runs=4 workers=4 starved=0 busy[w0=1ms w1=2ms w2=3ms w3=4ms]"; !ok || detail != want {
		t.Fatalf("parallel = %q, %v; want %q (workers in id order)", detail, ok, want)
	}
	if busy != 10*time.Millisecond {
		t.Fatalf("busy = %v, want 10ms", busy)
	}
}

// TestParallelCountsStarvedLoops renders the parallel line of three
// loops: one at its full width, one that could have used two workers but
// ran on one, and one serial by design, which is not starved.
func TestParallelCountsStarvedLoops(t *testing.T) {
	tr := New()
	tr.AddMorselRun(2, 2, 2)
	tr.AddMorselRun(14, 1, 2)
	tr.AddMorselRun(1, 1, 1)
	tr.AddWorkerBusy(0, 3*time.Millisecond)
	tr.AddWorkerBusy(1, time.Millisecond)
	detail, busy, ok := tr.Parallel()
	if want := "morsels=17 runs=3 workers=2 starved=1 busy[w0=3ms w1=1ms]"; !ok || detail != want {
		t.Fatalf("parallel = %q, %v; want %q", detail, ok, want)
	}
	if busy != 4*time.Millisecond {
		t.Fatalf("busy = %v, want 4ms", busy)
	}
}

func TestSummaryAndContext(t *testing.T) {
	tr := New()
	sp := tr.Start("scan")
	sp.AddRowsOut(7)
	sp.Add("blocks_scanned", 1)
	sp.End()
	tr.AddMorselRun(5, 2, 2)
	tr.AddWorkerBusy(0, time.Millisecond)
	sum := tr.Summary()
	for _, want := range []string{"stage=scan", "rows_out=7", "blocks_scanned=1", "morsels=5"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary %q missing %q", sum, want)
		}
	}
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace did not round-trip through context")
	}
	if got := WithTrace(context.Background(), nil); FromContext(got) != nil {
		t.Fatal("attaching a nil trace must be a no-op")
	}
}
