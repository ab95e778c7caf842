package monitor

import (
	"context"
	"sync"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/engine"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

func testSchema() *schema.Table {
	return schema.MustNew("t", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "grp", Type: value.Integer},
		{Name: "amount", Type: value.Double},
	}, "id")
}

func testDB(t *testing.T, store catalog.StoreKind, n int) *engine.Database {
	t.Helper()
	db := engine.New()
	if err := db.CreateTable(testSchema(), store); err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []value.Value{
			value.NewBigint(int64(i)), value.NewInt(int64(i % 7)), value.NewDouble(float64(i)),
		})
	}
	if n > 0 {
		if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "t", Rows: rows}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func aggQuery() *query.Query {
	return &query.Query{Kind: query.Aggregate, Table: "t",
		Aggs: []agg.Spec{{Func: agg.Sum, Col: 2}}, GroupBy: []int{1}}
}

func pointSelect(id int64) *query.Query {
	return &query.Query{Kind: query.Select, Table: "t",
		Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(id)}}
}

func TestSnapshotFeatures(t *testing.T) {
	db := testDB(t, catalog.ColumnStore, 100)
	m := New(db, Config{Epochs: 4, RotateEvery: 0, SampleCap: 64})
	for i := 0; i < 10; i++ {
		if _, err := db.Exec(aggQuery()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if _, err := db.Exec(pointSelect(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	if snap.Seen != 40 || snap.WindowSeen != 40 {
		t.Fatalf("seen=%d window=%d, want 40/40", snap.Seen, snap.WindowSeen)
	}
	if snap.Queries.Len() != 40 {
		t.Errorf("sample size %d", snap.Queries.Len())
	}
	ts := snap.Recorder.Table("t")
	if ts == nil {
		t.Fatal("table statistics missing")
	}
	if ts.Aggregations != 10 || ts.Selects != 30 {
		t.Errorf("op mix: aggs=%d selects=%d", ts.Aggregations, ts.Selects)
	}
}

// TestCopyIsObserved: each COPY batch reaches the window as one INSERT of
// its rows, as a multi-row INSERT does, and a large batch is sampled with
// its row count but without its values.
func TestCopyIsObserved(t *testing.T) {
	db := testDB(t, catalog.RowStore, 0)
	m := New(db, Config{Epochs: 4, RotateEvery: 0, SampleCap: 64})
	const batches, per = 3, 100
	for b := 0; b < batches; b++ {
		rows := make([][]value.Value, per)
		for i := range rows {
			id := int64(b*per + i)
			rows[i] = []value.Value{value.NewBigint(id), value.NewInt(id % 7), value.NewDouble(float64(id))}
		}
		if _, err := db.CopyRows(context.Background(), "t", rows); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	if ts := snap.Recorder.Table("t"); ts == nil || ts.Inserts != batches || ts.TotalQueries() != batches {
		t.Fatalf("table statistics %+v, want %d inserts", ts, batches)
	}
	if snap.Queries.Len() != batches {
		t.Fatalf("%d statements sampled, want %d", snap.Queries.Len(), batches)
	}
	for _, q := range snap.Queries.Queries {
		if q.Kind != query.Insert || len(q.Rows) != per || q.Rows[0] != nil {
			t.Fatalf("sampled %v of %d rows (first %v), want an INSERT of %d trimmed rows", q.Kind, len(q.Rows), q.Rows[0], per)
		}
	}
}

// TestRollingWindowAgesOutOldMix is the core rolling property: after the
// mix shifts, enough rotations remove the old phase from the window.
func TestRollingWindowAgesOutOldMix(t *testing.T) {
	db := testDB(t, catalog.ColumnStore, 50)
	m := New(db, Config{Epochs: 3, RotateEvery: 10, SampleCap: 32})
	for i := 0; i < 30; i++ { // three full OLAP epochs
		if _, err := db.Exec(aggQuery()); err != nil {
			t.Fatal(err)
		}
	}
	if ts := m.Snapshot().Recorder.Table("t"); ts.Aggregations*2 < ts.TotalQueries() {
		t.Fatalf("window should be OLAP-heavy, got %d of %d", ts.Aggregations, ts.TotalQueries())
	}
	for i := 0; i < 30; i++ { // three full OLTP epochs push the OLAP ones out
		if _, err := db.Exec(pointSelect(int64(i % 50))); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	if ts := snap.Recorder.Table("t"); ts.Aggregations != 0 {
		t.Errorf("OLAP phase should have aged out, still %d aggs in window", ts.Aggregations)
	}
	if snap.Seen != 60 {
		t.Errorf("lifetime seen %d", snap.Seen)
	}
	if snap.WindowSeen >= 60 {
		t.Errorf("window seen %d should be bounded by the ring", snap.WindowSeen)
	}
}

// TestRecreatedTableKeepsDefaultEstimate: the monitor feeds nothing back
// into planning, so a table dropped and re-created under the same name
// is estimated exactly as it would be with no monitor attached — not
// with the point-select selectivity observed on the dropped table.
func TestRecreatedTableKeepsDefaultEstimate(t *testing.T) {
	const n = 5000
	load := func(db *engine.Database) {
		t.Helper()
		if err := db.CreateTable(testSchema(), catalog.RowStore); err != nil {
			t.Fatal(err)
		}
		rows := make([][]value.Value, 0, n)
		for i := 0; i < n; i++ {
			rows = append(rows, []value.Value{
				value.NewBigint(int64(i)), value.NewInt(int64(i % 50)), value.NewDouble(float64(i)),
			})
		}
		if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "t", Rows: rows}); err != nil {
			t.Fatal(err)
		}
	}
	estimate := func(monitored bool) float64 {
		t.Helper()
		db := engine.New()
		if monitored {
			New(db, DefaultConfig())
		}
		load(db)
		if _, err := db.CollectStats("t"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if _, err := db.Exec(pointSelect(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.DropTable("t"); err != nil {
			t.Fatal(err)
		}
		load(db) // no CollectStats: the new table has no statistics
		p, err := db.PlanQuery(&query.Query{Kind: query.Select, Table: "t",
			Pred: &expr.Comparison{Col: 1, Op: expr.Lt, Val: value.NewInt(40)}})
		if err != nil {
			t.Fatal(err)
		}
		return p.Estimate().Rows
	}
	bare, monitored := estimate(false), estimate(true)
	if bare != 500 {
		t.Fatalf("estimate without a monitor = %v, want the default 500", bare)
	}
	if monitored != bare {
		t.Errorf("estimate with a monitor = %v, want %v as without one", monitored, bare)
	}
}

// TestDroppedTableLeavesWindow: DROP TABLE forgets what the window holds
// under the table's name — counters and sampled statements, in every
// epoch — so a narrower table re-created under the name does not inherit
// the old table's aggregates on a column it does not have.
func TestDroppedTableLeavesWindow(t *testing.T) {
	db := engine.New()
	m := New(db, Config{Epochs: 3, RotateEvery: 10, SampleCap: 64})
	wideCols := []schema.Column{{Name: "id", Type: value.Bigint}}
	for _, name := range []string{"grp", "c2", "c3", "c4", "amount"} {
		wideCols = append(wideCols, schema.Column{Name: name, Type: value.Double})
	}
	if err := db.CreateTable(schema.MustNew("t", wideCols, "id"), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	row := []value.Value{value.NewBigint(1)}
	for c := 1; c < len(wideCols); c++ {
		row = append(row, value.NewDouble(float64(c)))
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "t", Rows: [][]value.Value{row}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ { // spans every epoch of the ring
		if _, err := db.Exec(&query.Query{Kind: query.Aggregate, Table: "t",
			Aggs: []agg.Spec{{Func: agg.Sum, Col: 5}}, GroupBy: []int{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	narrow := schema.MustNew("t", []schema.Column{{Name: "id", Type: value.Bigint}, {Name: "v", Type: value.Double}}, "id")
	if err := db.CreateTable(narrow, catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if _, err := db.Exec(pointSelect(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	ts := snap.Recorder.Table("t")
	if ts == nil || ts.Aggregations != 0 || ts.Selects != 3 || len(ts.AttrAggs) > 2 {
		t.Fatalf("re-created t's window statistics %+v, want 3 selects and no aggregates", ts)
	}
	if n := snap.Queries.Len(); n != 3 {
		t.Errorf("window sample holds %d statements, want the 3 selects on the new t", n)
	}
	if snap.Seen != 29 {
		t.Errorf("Seen = %d, want every observed statement (29)", snap.Seen)
	}
}

// TestConcurrentObserveAndSnapshot exercises the monitor under parallel
// query traffic and snapshotting (run with -race).
func TestConcurrentObserveAndSnapshot(t *testing.T) {
	db := testDB(t, catalog.ColumnStore, 200)
	m := New(db, Config{Epochs: 3, RotateEvery: 50, SampleCap: 32})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if g%2 == 0 {
					db.Exec(aggQuery()) //nolint:errcheck
				} else {
					db.Exec(pointSelect(int64(i % 200))) //nolint:errcheck
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		_ = m.Snapshot()
	}
	wg.Wait()
	if got := m.Seen(); got != 400 {
		t.Errorf("seen %d, want 400", got)
	}
	if ts := m.Snapshot().Recorder.Table("t"); ts == nil || ts.TotalQueries() == 0 {
		t.Fatal("window empty after concurrent traffic")
	}
}
