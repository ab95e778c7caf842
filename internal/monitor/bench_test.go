package monitor

import (
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/engine"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// The monitoring-overhead benchmarks measure the cost the live workload
// monitor adds to the hot query path (target: <2%). Run both and compare:
//
//	go test ./internal/monitor -bench Overhead -benchtime 2s
//
// BenchmarkScanBare is the baseline (no observer attached);
// BenchmarkScanMonitored runs the identical scan with the monitor
// observing every query. BenchmarkObserve isolates the per-query
// recording cost itself.
func benchEngine(b *testing.B, rows int) *engine.Database {
	b.Helper()
	db := engine.New()
	if err := db.CreateTable(benchSchema(), catalog.ColumnStore); err != nil {
		b.Fatal(err)
	}
	batch := make([][]value.Value, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, []value.Value{
			value.NewBigint(int64(i)), value.NewInt(int64(i % 50)), value.NewDouble(float64(i % 1000)),
		})
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "bench", Rows: batch}); err != nil {
		b.Fatal(err)
	}
	if err := db.Compact("bench"); err != nil {
		b.Fatal(err)
	}
	if _, err := db.CollectStats("bench"); err != nil {
		b.Fatal(err)
	}
	return db
}

func benchSchema() *schema.Table {
	return schema.MustNew("bench", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "grp", Type: value.Integer},
		{Name: "amount", Type: value.Double},
	}, "id")
}

// scanQuery is a selective aggregate — the hot analytical path whose
// latency the monitor must not disturb.
func scanQuery() *query.Query {
	return &query.Query{
		Kind: query.Aggregate, Table: "bench",
		Aggs: []agg.Spec{{Func: agg.Sum, Col: 2}},
		Pred: &expr.Comparison{Col: 1, Op: expr.Lt, Val: value.NewInt(25)},
	}
}

func runScans(b *testing.B, db *engine.Database) {
	q := scanQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanOverheadBare(b *testing.B) {
	db := benchEngine(b, 100000)
	runScans(b, db)
}

func BenchmarkScanOverheadMonitored(b *testing.B) {
	db := benchEngine(b, 100000)
	New(db, DefaultConfig())
	runScans(b, db)
}

// noopObs isolates the engine's observer-dispatch cost from the
// monitor's recording cost.
type noopObs struct{}

func (noopObs) Observe(*query.Query) {}

func (noopObs) Dropped(string) {}

func BenchmarkScanOverheadNoopObserver(b *testing.B) {
	db := benchEngine(b, 100000)
	db.SetObserver(noopObs{})
	runScans(b, db)
}

// BenchmarkObserve isolates the monitor's per-query recording cost.
func BenchmarkObserve(b *testing.B) {
	db := benchEngine(b, 1000)
	m := New(db, DefaultConfig())
	q := scanQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(q)
	}
}
