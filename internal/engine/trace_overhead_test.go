package engine

import (
	"context"
	"sort"
	"testing"
	"time"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/trace"
	"hybridstore/internal/value"
)

// The trace-overhead guard enforces the observability budget: with
// tracing disabled (no trace in the context, slow-query log disarmed)
// the hot scan path must not pay for the instrumentation. Since the
// un-instrumented binary no longer exists to compare against, the guard
// measures the other direction: a fully-traced run may cost at most 2%
// more than an untraced one. The disabled path does a strict subset of
// the traced path's instrumentation work (nil-receiver no-ops instead
// of span bookkeeping), so its overhead is bounded by what this guard
// measures.
//
// Same budget discipline as internal/monitor's observer benchmarks:
//
//	go test ./internal/engine -bench TraceOverhead -benchtime 2s

func overheadDB(tb testing.TB, rows int) *Database {
	tb.Helper()
	db := New()
	db.SetPool(nil) // serial: measurement variance, not parallelism, is the enemy here
	if err := db.CreateTable(salesSchema(), catalog.ColumnStore); err != nil {
		tb.Fatal(err)
	}
	ins := make([][]value.Value, 0, rows)
	for i := 0; i < rows; i++ {
		ins = append(ins, salesRow(int64(i)))
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "sales", Rows: ins}); err != nil {
		tb.Fatal(err)
	}
	if err := db.Compact("sales"); err != nil {
		tb.Fatal(err)
	}
	return db
}

// overheadQuery is a selective aggregate over the compressed main
// fragment — the hot analytical path the tracing hooks sit on.
func overheadQuery() *query.Query {
	return &query.Query{
		Kind: query.Aggregate, Table: "sales",
		Aggs: []agg.Spec{{Func: agg.Sum, Col: 2}},
		Pred: &expr.Comparison{Col: 1, Op: expr.Lt, Val: value.NewInt(2)},
	}
}

// scanNS times one run of the overhead query.
func scanNS(tb testing.TB, db *Database, ctx context.Context, q *query.Query) float64 {
	tb.Helper()
	start := time.Now()
	if _, err := db.ExecContext(ctx, q); err != nil {
		tb.Fatal(err)
	}
	return float64(time.Since(start).Nanoseconds())
}

// medianOverhead runs pairs of one untraced and one traced run of the
// overhead query back to back, the first of each pair alternating, and
// returns the median over the pairs of traced/untraced - 1. A pair's two
// runs see the same load on the host, so a noisy neighbour moves both.
func medianOverhead(tb testing.TB, db *Database, pairs int) float64 {
	tb.Helper()
	q := overheadQuery()
	plain := context.Background()
	ratios := make([]float64, pairs)
	for i := range ratios {
		var bare, traced float64
		if i%2 == 0 {
			bare = scanNS(tb, db, plain, q)
		}
		traced = scanNS(tb, db, trace.WithTrace(plain, trace.New()), q)
		if i%2 == 1 {
			bare = scanNS(tb, db, plain, q)
		}
		ratios[i] = traced/bare - 1
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2]
}

// TestTraceOverheadGuard interleaves untraced and traced runs of the
// same scan and asserts that the median traced/untraced ratio over the
// pairs costs <2% extra — which bounds the disabled-path overhead from
// above (see file comment). A noisy scheduler gets three attempts before
// the guard fails.
func TestTraceOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	db := overheadDB(t, 100000)
	const pairs = 21

	// Warm up both paths (allocator, caches, lazily-built scan state).
	medianOverhead(t, db, 3)

	var worst float64
	for attempt := 0; attempt < 3; attempt++ {
		overhead := medianOverhead(t, db, pairs)
		t.Logf("attempt %d: median traced/untraced overhead %.2f%% over %d pairs", attempt, overhead*100, pairs)
		if overhead < 0.02 {
			return
		}
		if overhead > worst {
			worst = overhead
		}
	}
	t.Errorf("tracing overhead %.2f%% exceeds the 2%% budget in all attempts", worst*100)
}

func BenchmarkTraceOverheadDisabled(b *testing.B) {
	db := overheadDB(b, 100000)
	q := overheadQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceOverheadEnabled(b *testing.B) {
	db := overheadDB(b, 100000)
	q := overheadQuery()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ExecContext(trace.WithTrace(ctx, trace.New()), q); err != nil {
			b.Fatal(err)
		}
	}
}
