package engine

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// explainStage finds the first row of stage in an EXPLAIN ANALYZE result
// and returns its rows_out; ok=false when the stage is absent.
func explainStage(t *testing.T, res *Result, stage string) (rowsOut int64, detail string, ok bool) {
	t.Helper()
	if len(res.Cols) != 5 || res.Cols[0] != "stage" || res.Cols[3] != "rows_out" {
		t.Fatalf("unexpected explain columns %v", res.Cols)
	}
	for _, row := range res.Rows {
		if row[0].Varchar() == stage {
			return row[3].Int(), row[4].Varchar(), true
		}
	}
	return 0, "", false
}

// TestExplainAnalyzeDifferential runs scan, group-by and join statements
// under every storage layout twice — once plainly, once under EXPLAIN
// ANALYZE — and asserts the trace's reported row counts match the actual
// result row counts.
func TestExplainAnalyzeDifferential(t *testing.T) {
	dimSchema := schema.MustNew("regions", []schema.Column{
		{Name: "region", Type: value.Integer},
		{Name: "label", Type: value.Varchar},
	}, "region")

	layouts := []struct {
		name  string
		store catalog.StoreKind
		spec  *catalog.PartitionSpec
	}{
		{"row", catalog.RowStore, nil},
		{"column", catalog.ColumnStore, nil},
		{"horizontal", catalog.Partitioned, horizontalSpec()},
		{"vertical", catalog.Partitioned, verticalSpec()},
	}

	queries := []struct {
		name  string
		stage string
		q     func() *query.Query
	}{
		{"scan", "scan", func() *query.Query {
			return &query.Query{
				Kind: query.Select, Table: "sales", Cols: []int{0, 2},
				Pred: &expr.Comparison{Col: 1, Op: expr.Lt, Val: value.NewInt(2)},
			}
		}},
		{"group-by", "aggregate", func() *query.Query {
			return &query.Query{
				Kind: query.Aggregate, Table: "sales",
				Aggs:    []agg.Spec{{Func: agg.Count, Col: -1}, {Func: agg.Sum, Col: 2}},
				GroupBy: []int{1},
			}
		}},
		{"join", "join", func() *query.Query {
			return &query.Query{
				Kind: query.Aggregate, Table: "sales",
				Join:    &query.Join{Table: "regions", LeftCol: 1, RightCol: 0},
				Aggs:    []agg.Spec{{Func: agg.Sum, Col: 2}},
				GroupBy: []int{5 + 1}, // regions.label
			}
		}},
	}

	for _, lo := range layouts {
		t.Run(lo.name, func(t *testing.T) {
			db := New()
			if err := db.CreateTableWithLayout(salesSchema(), lo.store, lo.spec); err != nil {
				t.Fatal(err)
			}
			rows := make([][]value.Value, 0, 500)
			for i := 0; i < 500; i++ {
				rows = append(rows, salesRow(int64(i)))
			}
			if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "sales", Rows: rows}); err != nil {
				t.Fatal(err)
			}
			if err := db.CreateTable(dimSchema, catalog.RowStore); err != nil {
				t.Fatal(err)
			}
			dim := make([][]value.Value, 0, 4)
			for r := int64(0); r < 4; r++ {
				dim = append(dim, []value.Value{value.NewInt(r), value.NewVarchar(strings.Repeat("r", int(r)+1))})
			}
			if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "regions", Rows: dim}); err != nil {
				t.Fatal(err)
			}

			for _, qc := range queries {
				plain, err := db.Exec(qc.q())
				if err != nil {
					t.Fatalf("%s: %v", qc.name, err)
				}
				ex, err := db.ExplainAnalyzeContext(context.Background(), qc.q())
				if err != nil {
					t.Fatalf("%s explain: %v", qc.name, err)
				}
				got, _, ok := explainStage(t, ex, qc.stage)
				if !ok {
					t.Fatalf("%s: no %q stage in explain output %v", qc.name, qc.stage, ex.Rows)
				}
				if got != int64(len(plain.Rows)) {
					t.Errorf("%s: explain reports %d rows, actual result has %d", qc.name, got, len(plain.Rows))
				}
				total, _, ok := explainStage(t, ex, "total")
				if !ok || total != int64(len(plain.Rows)) {
					t.Errorf("%s: total row reports %d rows (ok=%v), want %d", qc.name, total, ok, len(plain.Rows))
				}
			}

			// Column-store layouts must surface storage counters (blocks
			// decoded vs zone-map-skipped, main/delta rows) in the trace.
			if lo.name == "column" {
				if err := db.Compact("sales"); err != nil {
					t.Fatal(err)
				}
				ex, err := db.ExplainAnalyzeContext(context.Background(), queries[0].q())
				if err != nil {
					t.Fatal(err)
				}
				_, detail, ok := explainStage(t, ex, "storage")
				if !ok {
					t.Fatalf("no storage counters row in explain output %v", ex.Rows)
				}
				if !strings.Contains(detail, "main_rows") {
					t.Errorf("storage counters %q missing main_rows", detail)
				}
			}
		})
	}
}

// TestExplainAnalyzeKeyRead: a read naming the whole key of a column table
// takes its one row from the PK index — EXPLAIN ANALYZE reports one row out
// of the scan and no block decoded — and recruits no helper from an 8-slot
// pool. The same read written as a key range is the scan it replaces: it
// decodes the key's block and fans out over the pool.
func TestExplainAnalyzeKeyRead(t *testing.T) {
	db := newDB(t, catalog.ColumnStore, 20_000)
	if err := db.Compact("sales"); err != nil {
		t.Fatal(err)
	}
	pool := exec.NewPool(8)
	db.SetPool(pool)
	for _, c := range []struct {
		pred    expr.Predicate
		storage string
		helpers bool
	}{
		{idEq(12_345), "main_rows=1", false},
		{&expr.Between{Col: 0, Lo: value.NewBigint(12_345), Hi: value.NewBigint(12_345)}, "blocks_decoded=1 ", true},
	} {
		done := pool.Stats().Done
		ex, err := db.ExplainAnalyzeContext(context.Background(), &query.Query{
			Kind: query.Select, Table: "sales", Cols: []int{0, 2, 4}, Pred: c.pred})
		if err != nil {
			t.Fatal(err)
		}
		if rows, _, ok := explainStage(t, ex, "scan"); !ok || rows != 1 {
			t.Errorf("%s: scan rows_out %d (present %v), want 1", c.pred, rows, ok)
		}
		_, detail, _ := explainStage(t, ex, "storage")
		if !strings.Contains(detail+" ", c.storage) || !c.helpers && strings.Contains(detail, "blocks_decoded") {
			t.Errorf("%s: storage counters %q, want %q", c.pred, detail, c.storage)
		}
		if helped := pool.Stats().Done != done; helped != c.helpers {
			t.Errorf("%s: pool helpers ran: %v, want %v", c.pred, helped, c.helpers)
		}
	}
}

// TestExplainAnalyzeSpanningAggregate asserts that an aggregate spanning
// both partitions of a vertical split reports its PK join in the
// aggregate stage: rows probed, probe misses, and the blocks the column
// partition's zone maps skipped for the pushed-down key range.
func TestExplainAnalyzeSpanningAggregate(t *testing.T) {
	db := New()
	if err := db.CreateTableWithLayout(spanSchema(), catalog.Partitioned, &catalog.PartitionSpec{Vertical: spanVertical()}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	rows := make([][]value.Value, 0, 5000)
	for id := int64(0); id < 5000; id++ {
		rows = append(rows, spanRow(rng, id))
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "span", Rows: rows}); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact("span"); err != nil {
		t.Fatal(err)
	}
	// grp and qty live in the column partition, amt in the row partition;
	// the key range covers the first of five blocks.
	ex, err := db.ExplainAnalyzeContext(context.Background(), &query.Query{
		Kind: query.Aggregate, Table: "span", GroupBy: []int{1},
		Aggs: []agg.Spec{{Func: agg.Sum, Col: 3}, {Func: agg.Avg, Col: 4}},
		Pred: &expr.Between{Col: 0, Lo: value.NewBigint(0), Hi: value.NewBigint(999)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rowsOut, detail, ok := explainStage(t, ex, "aggregate")
	if !ok {
		t.Fatalf("no aggregate stage in %v", ex.Rows)
	}
	if rowsOut != 7 {
		t.Errorf("aggregate rows_out = %d, want 7 groups", rowsOut)
	}
	for _, want := range []string{"kernel=dense", "probe_rows=1000", "probe_guessed=1000", "probe_misses=0", "blocks_zone_skipped=4"} {
		if !strings.Contains(detail, want) {
			t.Errorf("aggregate detail %q missing %q", detail, want)
		}
	}
}

// TestExplainAnalyzeJoinProbe asserts that the join stage says which probe
// ran and what went through it, and that the hs_join_*_total counters
// follow: a star join (column-store fact side, dimension joined on its
// key, grouped on the dimension) runs on the dense kernel; grouped on the
// fact side it goes through the hash table.
func TestExplainAnalyzeJoinProbe(t *testing.T) {
	db := newJoinDB(t, catalog.ColumnStore, catalog.RowStore, 500)
	// A fifth dimension row, whose key no fact row carries.
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "dim",
		Rows: [][]value.Value{{value.NewInt(9), value.NewVarchar("region-9")}}}); err != nil {
		t.Fatal(err)
	}
	pred := &expr.Comparison{Col: 3, Op: expr.Lt, Val: value.NewInt(5)} // half the fact rows
	for _, c := range []struct {
		groupBy int
		want    []string
		counter interface{ Value() int64 }
	}{
		{6, []string{"probe=dense", "build_keys_resolved=4", "build_rows=5", "probe_rows=250"}, mJoinDense},
		{4, []string{"probe=generic", "build_rows=5", "probe_rows=250"}, mJoinGeneric},
	} {
		before := c.counter.Value()
		ex, err := db.ExplainAnalyzeContext(context.Background(), &query.Query{
			Kind: query.Aggregate, Table: "sales", Pred: pred,
			Join:    &query.Join{Table: "dim", LeftCol: 1, RightCol: 0},
			Aggs:    []agg.Spec{{Func: agg.Sum, Col: 2}},
			GroupBy: []int{c.groupBy},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, detail, ok := explainStage(t, ex, "join")
		if !ok {
			t.Fatalf("no join stage in %v", ex.Rows)
		}
		for _, want := range c.want {
			if !strings.Contains(detail, want) {
				t.Errorf("join detail %q missing %q", detail, want)
			}
		}
		if n := c.counter.Value() - before; n != 1 {
			t.Errorf("join counter moved by %d, want 1 (detail %q)", n, detail)
		}
	}
}

// TestExplainAnalyzeDML asserts DML statements report apply/wal_wait
// stages and affected-row counts.
func TestExplainAnalyzeDML(t *testing.T) {
	db := newDB(t, catalog.RowStore, 100)
	ex, err := db.ExplainAnalyzeContext(context.Background(), &query.Query{
		Kind: query.Update, Table: "sales",
		Set:  map[int]value.Value{2: value.NewDouble(1.5)},
		Pred: &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _, ok := explainStage(t, ex, "apply")
	if !ok {
		t.Fatalf("no apply stage in %v", ex.Rows)
	}
	if got != 25 {
		t.Errorf("apply rows_out = %d, want 25", got)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer (the slow log writes from
// whichever goroutine ran the statement).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *syncBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Reset()
}

// TestSlowQueryLog asserts the slow-query log captures statements over
// the threshold with a trace summary and session label, and that
// disarming stops it.
func TestSlowQueryLog(t *testing.T) {
	db := newDB(t, catalog.ColumnStore, 2000)
	var buf syncBuffer
	db.SetSlowQueryLog(NewSlowQueryLog(&buf, 1)) // 1ns: everything is slow
	q := &query.Query{
		Kind: query.Aggregate, Table: "sales",
		Aggs: []agg.Spec{{Func: agg.Sum, Col: 2}},
		Pred: &expr.Comparison{Col: 1, Op: expr.Lt, Val: value.NewInt(3)},
	}
	if _, err := db.ExecContext(WithSession(context.Background(), "analyst#1"), q); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"kind":"AGGREGATE"`) {
		t.Fatalf("slow log entry missing kind: %q", out)
	}
	if !strings.Contains(out, "stage=aggregate") {
		t.Errorf("slow log entry missing trace summary: %q", out)
	}
	if !strings.Contains(out, `"session":"analyst#1"`) {
		t.Errorf("slow log entry missing session label: %q", out)
	}

	db.SlowQueryLogHandle().SetThreshold(0)
	buf.Reset()
	if _, err := db.Exec(q); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "" {
		t.Errorf("disarmed slow log still wrote %q", buf.String())
	}
}
