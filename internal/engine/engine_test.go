package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/sql"
	"hybridstore/internal/value"
	"hybridstore/internal/wal"
)

func salesSchema() *schema.Table {
	return schema.MustNew("sales", []schema.Column{
		{Name: "id", Type: value.Bigint},      // 0
		{Name: "region", Type: value.Integer}, // 1
		{Name: "amount", Type: value.Double},  // 2
		{Name: "qty", Type: value.Integer},    // 3
		{Name: "status", Type: value.Varchar}, // 4
	}, "id")
}

func salesRow(id int64) []value.Value {
	return []value.Value{
		value.NewBigint(id),
		value.NewInt(id % 4),
		value.NewDouble(float64(id)),
		value.NewInt(id % 10),
		value.NewVarchar(fmt.Sprintf("S%d", id%3)),
	}
}

// storeRows returns a copy of every live row of st, a width-column table,
// in serial scan order.
func storeRows(st *storage, width int) [][]value.Value {
	return rowsOf(st.Scan(nil, nil, nil), width)
}

func newDB(t *testing.T, store catalog.StoreKind, n int) *Database {
	t.Helper()
	db := New()
	if err := db.CreateTable(salesSchema(), store); err != nil {
		t.Fatal(err)
	}
	if n > 0 {
		rows := make([][]value.Value, 0, n)
		for i := 0; i < n; i++ {
			rows = append(rows, salesRow(int64(i)))
		}
		if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "sales", Rows: rows}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestCreateDropTable(t *testing.T) {
	db := New()
	if err := db.CreateTable(salesSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(salesSchema(), catalog.RowStore); err == nil {
		t.Error("duplicate create accepted")
	}
	if db.Catalog().Table("sales") == nil {
		t.Error("catalog entry missing")
	}
	if err := db.DropTable("sales"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("sales"); err == nil {
		t.Error("double drop accepted")
	}
	if db.Catalog().Table("sales") != nil {
		t.Error("catalog entry not removed")
	}
}

func TestExecValidates(t *testing.T) {
	db := newDB(t, catalog.RowStore, 10)
	if _, err := db.Exec(&query.Query{Kind: query.Select, Table: "ghost"}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := db.Exec(&query.Query{Kind: query.Select}); err == nil {
		t.Error("missing table name accepted")
	}
	if _, err := db.Exec(&query.Query{Kind: query.Select, Table: "sales", Cols: []int{99}}); err == nil {
		t.Error("bad projection accepted")
	}
}

func TestInsertCoerces(t *testing.T) {
	db := newDB(t, catalog.RowStore, 0)
	// amount given as int, id as int: must be coerced.
	row := []value.Value{value.NewInt(1), value.NewInt(0), value.NewInt(5), value.NewInt(1), value.NewVarchar("x")}
	res, err := db.Exec(&query.Query{Kind: query.Insert, Table: "sales", Rows: [][]value.Value{row}})
	if err != nil || res.Affected != 1 {
		t.Fatalf("insert: %v, %v", res, err)
	}
	sel, err := db.Exec(&query.Query{Kind: query.Select, Table: "sales"})
	if err != nil || len(sel.Rows) != 1 {
		t.Fatal(err)
	}
	if sel.Rows[0][2].Type() != value.Double {
		t.Errorf("amount not coerced: %v", sel.Rows[0][2].Type())
	}
}

func execBothStores(t *testing.T, n int, q *query.Query) (*Result, *Result) {
	t.Helper()
	rdb := newDB(t, catalog.RowStore, n)
	cdb := newDB(t, catalog.ColumnStore, n)
	rres, err := rdb.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := cdb.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	return rres, cres
}

func TestSelectParity(t *testing.T) {
	q := &query.Query{
		Kind: query.Select, Table: "sales", Cols: []int{0, 2},
		Pred: &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(2)},
	}
	rres, cres := execBothStores(t, 100, q)
	if len(rres.Rows) != 25 || len(cres.Rows) != 25 {
		t.Errorf("row/col select sizes: %d vs %d", len(rres.Rows), len(cres.Rows))
	}
	if rres.Cols[0] != "id" || rres.Cols[1] != "amount" {
		t.Errorf("col names: %v", rres.Cols)
	}
}

func TestSelectLimit(t *testing.T) {
	q := &query.Query{Kind: query.Select, Table: "sales", Limit: 7}
	rres, cres := execBothStores(t, 100, q)
	if len(rres.Rows) != 7 || len(cres.Rows) != 7 {
		t.Errorf("limit: %d vs %d", len(rres.Rows), len(cres.Rows))
	}
}

func TestAggregateParity(t *testing.T) {
	q := &query.Query{
		Kind: query.Aggregate, Table: "sales",
		Aggs:    []agg.Spec{{Func: agg.Sum, Col: 2}, {Func: agg.Count, Col: -1}},
		GroupBy: []int{1},
	}
	rres, cres := execBothStores(t, 200, q)
	if len(rres.Rows) != 4 || len(cres.Rows) != 4 {
		t.Fatalf("groups: %d vs %d", len(rres.Rows), len(cres.Rows))
	}
	rsum := map[int64]float64{}
	for _, r := range rres.Rows {
		rsum[r[0].Int()] = r[1].Double()
	}
	for _, c := range cres.Rows {
		if rsum[c[0].Int()] != c[1].Double() {
			t.Errorf("group %v: col=%v row=%v", c[0], c[1], rsum[c[0].Int()])
		}
	}
	if rres.Cols[0] != "region" || rres.Cols[1] != "SUM(amount)" {
		t.Errorf("agg col names: %v", rres.Cols)
	}
}

func TestUpdateDelete(t *testing.T) {
	for _, store := range []catalog.StoreKind{catalog.RowStore, catalog.ColumnStore} {
		db := newDB(t, store, 50)
		upd := &query.Query{
			Kind: query.Update, Table: "sales",
			Set:  map[int]value.Value{2: value.NewDouble(-5)},
			Pred: &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(3)},
		}
		res, err := db.Exec(upd)
		if err != nil {
			t.Fatal(err)
		}
		if res.Affected != 12 { // ids 3,7,...,47
			t.Errorf("%v: updated %d", store, res.Affected)
		}
		del := &query.Query{
			Kind: query.Delete, Table: "sales",
			Pred: &expr.Comparison{Col: 2, Op: expr.Eq, Val: value.NewDouble(-5)},
		}
		res, err = db.Exec(del)
		if err != nil {
			t.Fatal(err)
		}
		if res.Affected != 12 {
			t.Errorf("%v: deleted %d", store, res.Affected)
		}
		n, _ := db.Rows("sales")
		if n != 38 {
			t.Errorf("%v: rows after delete = %d", store, n)
		}
	}
}

func dimSchema() *schema.Table {
	return schema.MustNew("dim", []schema.Column{
		{Name: "rid", Type: value.Integer},  // 0 → combined 5
		{Name: "name", Type: value.Varchar}, // 1 → combined 6
	}, "rid")
}

func newJoinDB(t *testing.T, factStore, dimStore catalog.StoreKind, n int) *Database {
	t.Helper()
	db := New()
	if err := db.CreateTable(salesSchema(), factStore); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(dimSchema(), dimStore); err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, salesRow(int64(i)))
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "sales", Rows: rows}); err != nil {
		t.Fatal(err)
	}
	var dimRows [][]value.Value
	for r := 0; r < 4; r++ {
		dimRows = append(dimRows, []value.Value{value.NewInt(int64(r)), value.NewVarchar(fmt.Sprintf("region-%d", r))})
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "dim", Rows: dimRows}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestJoinAggregate(t *testing.T) {
	for _, stores := range [][2]catalog.StoreKind{
		{catalog.RowStore, catalog.RowStore},
		{catalog.ColumnStore, catalog.RowStore},
		{catalog.RowStore, catalog.ColumnStore},
		{catalog.ColumnStore, catalog.ColumnStore},
	} {
		db := newJoinDB(t, stores[0], stores[1], 100)
		// SELECT dim.name, SUM(sales.amount) FROM sales JOIN dim ON region=rid GROUP BY dim.name
		q := &query.Query{
			Kind: query.Aggregate, Table: "sales",
			Join:    &query.Join{Table: "dim", LeftCol: 1, RightCol: 0},
			Aggs:    []agg.Spec{{Func: agg.Sum, Col: 2}},
			GroupBy: []int{6}, // dim.name
		}
		res, err := db.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 4 {
			t.Fatalf("%v: groups = %d", stores, len(res.Rows))
		}
		total := 0.0
		for _, r := range res.Rows {
			total += r[1].Double()
		}
		if total != 4950 { // sum 0..99
			t.Errorf("%v: total = %v", stores, total)
		}
	}
}

func TestJoinSelectWithPredicates(t *testing.T) {
	db := newJoinDB(t, catalog.ColumnStore, catalog.RowStore, 100)
	q := &query.Query{
		Kind: query.Select, Table: "sales",
		Join: &query.Join{Table: "dim", LeftCol: 1, RightCol: 0},
		Cols: []int{0, 6},
		Pred: &expr.And{Preds: []expr.Predicate{
			&expr.Comparison{Col: 2, Op: expr.Lt, Val: value.NewDouble(50)},          // left side
			&expr.Comparison{Col: 6, Op: expr.Eq, Val: value.NewVarchar("region-1")}, // right side
			&expr.Comparison{Col: 0, Op: expr.Ge, Val: value.NewBigint(0)},           // left side
		}},
	}
	res, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	// ids 1,5,...,49 with region 1: 13 rows
	if len(res.Rows) != 13 {
		t.Errorf("join select rows = %d", len(res.Rows))
	}
	if res.Cols[1] != "dim.name" {
		t.Errorf("join col names = %v", res.Cols)
	}
}

func TestJoinLimit(t *testing.T) {
	db := newJoinDB(t, catalog.RowStore, catalog.RowStore, 100)
	q := &query.Query{
		Kind: query.Select, Table: "sales",
		Join:  &query.Join{Table: "dim", LeftCol: 1, RightCol: 0},
		Cols:  []int{0},
		Limit: 9,
	}
	res, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Errorf("join limit rows = %d", len(res.Rows))
	}
}

func horizontalSpec() *catalog.PartitionSpec {
	return &catalog.PartitionSpec{Horizontal: &catalog.HorizontalSpec{
		SplitCol: 0, SplitVal: value.NewBigint(80),
		HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
	}}
}

func TestHorizontalPartitioning(t *testing.T) {
	db := New()
	if err := db.CreateTableWithLayout(salesSchema(), catalog.RowStore, horizontalSpec()); err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 0, 100)
	for i := 0; i < 100; i++ {
		rows = append(rows, salesRow(int64(i)))
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "sales", Rows: rows}); err != nil {
		t.Fatal(err)
	}
	if e := db.Catalog().Table("sales"); e.Store != catalog.Partitioned {
		t.Errorf("store kind = %v", e.Store)
	}
	// Aggregate over everything: merged across partitions.
	res, err := db.Exec(&query.Query{
		Kind: query.Aggregate, Table: "sales",
		Aggs: []agg.Spec{{Func: agg.Sum, Col: 2}, {Func: agg.Count, Col: -1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Double() != 4950 || res.Rows[0][1].Int() != 100 {
		t.Errorf("merged aggregate = %v", res.Rows[0])
	}
	// Grouped aggregate across partitions.
	res, err = db.Exec(&query.Query{
		Kind: query.Aggregate, Table: "sales",
		Aggs:    []agg.Spec{{Func: agg.Count, Col: -1}},
		GroupBy: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("groups = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].Int() != 25 {
			t.Errorf("group %v count = %v", r[0], r[1])
		}
	}
	// Range-pruned select: only hot side touched (ids >= 80).
	res, err = db.Exec(&query.Query{
		Kind: query.Select, Table: "sales",
		Pred: &expr.Comparison{Col: 0, Op: expr.Ge, Val: value.NewBigint(90)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Errorf("pruned select rows = %d", len(res.Rows))
	}
	// Update in the hot region.
	res, err = db.Exec(&query.Query{
		Kind: query.Update, Table: "sales",
		Set:  map[int]value.Value{4: value.NewVarchar("HOT")},
		Pred: &expr.Comparison{Col: 0, Op: expr.Ge, Val: value.NewBigint(95)},
	})
	if err != nil || res.Affected != 5 {
		t.Fatalf("hot update: %v %v", res, err)
	}
	// Delete spanning both sides.
	res, err = db.Exec(&query.Query{
		Kind: query.Delete, Table: "sales",
		Pred: &expr.Between{Col: 0, Lo: value.NewBigint(75), Hi: value.NewBigint(84)},
	})
	if err != nil || res.Affected != 10 {
		t.Fatalf("spanning delete: %v %v", res, err)
	}
	n, _ := db.Rows("sales")
	if n != 90 {
		t.Errorf("rows after delete = %d", n)
	}
}

func TestHorizontalMigratingUpdate(t *testing.T) {
	db := New()
	if err := db.CreateTableWithLayout(salesSchema(), catalog.RowStore, horizontalSpec()); err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 0, 100)
	for i := 0; i < 100; i++ {
		rows = append(rows, salesRow(int64(i)))
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "sales", Rows: rows}); err != nil {
		t.Fatal(err)
	}
	// Move a cold row into the hot range by updating the split column.
	res, err := db.Exec(&query.Query{
		Kind: query.Update, Table: "sales",
		Set:  map[int]value.Value{0: value.NewBigint(200)},
		Pred: &expr.Comparison{Col: 2, Op: expr.Eq, Val: value.NewDouble(10)},
	})
	if err != nil || res.Affected != 1 {
		t.Fatalf("migrating update: %v %v", res, err)
	}
	// The row must now be visible in the hot range.
	sel, err := db.Exec(&query.Query{
		Kind: query.Select, Table: "sales",
		Pred: &expr.Comparison{Col: 0, Op: expr.Ge, Val: value.NewBigint(100)},
	})
	if err != nil || len(sel.Rows) != 1 {
		t.Fatalf("migrated row not found: %v %v", sel, err)
	}
	n, _ := db.Rows("sales")
	if n != 100 {
		t.Errorf("row count changed: %d", n)
	}
}

func verticalSpec() *catalog.PartitionSpec {
	return &catalog.PartitionSpec{Vertical: &catalog.VerticalSpec{
		RowCols: []int{0, 4},       // id, status (OLTP attrs)
		ColCols: []int{0, 1, 2, 3}, // id, region, amount, qty (OLAP attrs)
	}}
}

func TestVerticalPartitioning(t *testing.T) {
	db := New()
	if err := db.CreateTableWithLayout(salesSchema(), catalog.RowStore, verticalSpec()); err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 0, 100)
	for i := 0; i < 100; i++ {
		rows = append(rows, salesRow(int64(i)))
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "sales", Rows: rows}); err != nil {
		t.Fatal(err)
	}
	// OLAP aggregate fully served by the column partition.
	res, err := db.Exec(&query.Query{
		Kind: query.Aggregate, Table: "sales",
		Aggs:    []agg.Spec{{Func: agg.Sum, Col: 2}},
		GroupBy: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("groups = %d", len(res.Rows))
	}
	// OLTP update fully served by the row partition.
	ures, err := db.Exec(&query.Query{
		Kind: query.Update, Table: "sales",
		Set:  map[int]value.Value{4: value.NewVarchar("PAID")},
		Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(7)},
	})
	if err != nil || ures.Affected != 1 {
		t.Fatalf("row-part update: %v %v", ures, err)
	}
	// Spanning select needs the PK join.
	sres, err := db.Exec(&query.Query{
		Kind: query.Select, Table: "sales",
		Cols: []int{0, 2, 4},
		Pred: &expr.Comparison{Col: 4, Op: expr.Eq, Val: value.NewVarchar("PAID")},
	})
	if err != nil || len(sres.Rows) != 1 {
		t.Fatalf("spanning select: %d rows, %v", len(sres.Rows), err)
	}
	if sres.Rows[0][1].Double() != 7 {
		t.Errorf("joined value = %v", sres.Rows[0])
	}
	// Update spanning both partitions (assignments on each side).
	ures, err = db.Exec(&query.Query{
		Kind: query.Update, Table: "sales",
		Set: map[int]value.Value{
			2: value.NewDouble(1000), // column part
			4: value.NewVarchar("X"), // row part
		},
		Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(3)},
	})
	if err != nil || ures.Affected != 1 {
		t.Fatalf("spanning update: %v %v", ures, err)
	}
	check, err := db.Exec(&query.Query{
		Kind: query.Select, Table: "sales",
		Cols: []int{2, 4},
		Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(3)},
	})
	if err != nil || len(check.Rows) != 1 {
		t.Fatal(err)
	}
	if check.Rows[0][0].Double() != 1000 || check.Rows[0][1].Varchar() != "X" {
		t.Errorf("spanning update result = %v", check.Rows[0])
	}
	// Delete removes from both partitions.
	dres, err := db.Exec(&query.Query{
		Kind: query.Delete, Table: "sales",
		Pred: &expr.Comparison{Col: 0, Op: expr.Lt, Val: value.NewBigint(10)},
	})
	if err != nil || dres.Affected != 10 {
		t.Fatalf("vertical delete: %v %v", dres, err)
	}
	n, _ := db.Rows("sales")
	if n != 90 {
		t.Errorf("rows = %d", n)
	}
	// Aggregate still consistent after mutations.
	ares, err := db.Exec(&query.Query{
		Kind: query.Aggregate, Table: "sales",
		Aggs: []agg.Spec{{Func: agg.Count, Col: -1}},
	})
	if err != nil || ares.Rows[0][0].Int() != 90 {
		t.Fatalf("count after delete: %v %v", ares, err)
	}
}

func TestCombinedHorizontalVertical(t *testing.T) {
	spec := &catalog.PartitionSpec{
		Horizontal: horizontalSpec().Horizontal,
		Vertical:   verticalSpec().Vertical,
	}
	db := New()
	if err := db.CreateTableWithLayout(salesSchema(), catalog.RowStore, spec); err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 0, 120)
	for i := 0; i < 120; i++ {
		rows = append(rows, salesRow(int64(i)))
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "sales", Rows: rows}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(&query.Query{
		Kind: query.Aggregate, Table: "sales",
		Aggs: []agg.Spec{{Func: agg.Sum, Col: 2}, {Func: agg.Count, Col: -1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][1].Int() != 120 {
		t.Errorf("count = %v", res.Rows[0][1])
	}
	if res.Rows[0][0].Double() != float64(119*120)/2 {
		t.Errorf("sum = %v", res.Rows[0][0])
	}
	// Status update on a historic row goes through the vertical row part.
	ures, err := db.Exec(&query.Query{
		Kind: query.Update, Table: "sales",
		Set:  map[int]value.Value{4: value.NewVarchar("OLD")},
		Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(5)},
	})
	if err != nil || ures.Affected != 1 {
		t.Fatalf("historic update: %v %v", ures, err)
	}
}

func TestCollectStats(t *testing.T) {
	db := newDB(t, catalog.ColumnStore, 500)
	st, err := db.CollectStats("sales")
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRows != 500 {
		t.Errorf("rows = %d", st.NumRows)
	}
	if st.Distinct(1) != 4 {
		t.Errorf("distinct regions = %d", st.Distinct(1))
	}
	if db.Catalog().Table("sales").Stats != st {
		t.Error("stats not stored in catalog")
	}
	if _, err := db.CollectStats("ghost"); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestCreateIndex(t *testing.T) {
	db := newDB(t, catalog.RowStore, 100)
	if err := db.CreateIndex("sales", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("sales", 1); err != nil {
		t.Fatal(err) // idempotent
	}
	e := db.Catalog().Table("sales")
	if !e.HasIndex(1) {
		t.Error("index not recorded")
	}
	if err := db.CreateIndex("sales", 99); err == nil {
		t.Error("bad index column accepted")
	}
	if err := db.CreateIndex("ghost", 0); err == nil {
		t.Error("unknown table accepted")
	}
	// Index survives a layout change.
	if err := db.MigrateLayout("sales", catalog.Partitioned, horizontalSpec()); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(&query.Query{
		Kind: query.Select, Table: "sales",
		Pred: &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(2)},
	})
	if err != nil || len(res.Rows) != 25 {
		t.Fatalf("indexed select after layout change: %d, %v", len(res.Rows), err)
	}
}

type captureObserver struct {
	queries []*query.Query
}

func (c *captureObserver) Observe(q *query.Query) { c.queries = append(c.queries, q) }

func (c *captureObserver) Dropped(string) {}

func TestObserverInvoked(t *testing.T) {
	db := newDB(t, catalog.RowStore, 10)
	obs := &captureObserver{}
	db.SetObserver(obs)
	if _, err := db.Exec(&query.Query{Kind: query.Select, Table: "sales"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(&query.Query{
		Kind: query.Aggregate, Table: "sales",
		Aggs: []agg.Spec{{Func: agg.Count, Col: -1}},
	}); err != nil {
		t.Fatal(err)
	}
	if len(obs.queries) != 2 {
		t.Errorf("observer saw %d queries", len(obs.queries))
	}
	db.SetObserver(nil)
	if _, err := db.Exec(&query.Query{Kind: query.Select, Table: "sales"}); err != nil {
		t.Fatal(err)
	}
	if len(obs.queries) != 2 {
		t.Error("detached observer still invoked")
	}
}

func TestResultDurationPositive(t *testing.T) {
	db := newDB(t, catalog.ColumnStore, 1000)
	res, err := db.Exec(&query.Query{
		Kind: query.Aggregate, Table: "sales",
		Aggs: []agg.Spec{{Func: agg.Sum, Col: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 {
		t.Errorf("duration = %v", res.Duration)
	}
}

func TestMemoryBytes(t *testing.T) {
	db := newDB(t, catalog.ColumnStore, 100)
	n, err := db.MemoryBytes("sales")
	if err != nil || n <= 0 {
		t.Errorf("MemoryBytes = %d, %v", n, err)
	}
	if _, err := db.MemoryBytes("ghost"); err == nil {
		t.Error("unknown table accepted")
	}
}

// Randomized equivalence across all five layouts: the same query stream
// must produce identical aggregates regardless of the physical layout.
func TestLayoutEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2012))
	specs := []*catalog.PartitionSpec{nil, nil, horizontalSpec(), verticalSpec(), {
		Horizontal: horizontalSpec().Horizontal,
		Vertical:   verticalSpec().Vertical,
	}}
	stores := []catalog.StoreKind{catalog.RowStore, catalog.ColumnStore, catalog.Partitioned, catalog.Partitioned, catalog.Partitioned}
	dbs := make([]*Database, len(specs))
	for i := range specs {
		db := New()
		if err := db.CreateTableWithLayout(salesSchema(), stores[i], specs[i]); err != nil {
			t.Fatal(err)
		}
		dbs[i] = db
	}
	exec := func(q *query.Query) []*Result {
		out := make([]*Result, len(dbs))
		for i, db := range dbs {
			res, err := db.Exec(q)
			if err != nil {
				t.Fatalf("layout %d: %v", i, err)
			}
			out[i] = res
		}
		return out
	}
	nextID := int64(0)
	for step := 0; step < 120; step++ {
		switch rng.Intn(4) {
		case 0: // insert a batch
			var rows [][]value.Value
			for j := 0; j < 5; j++ {
				rows = append(rows, salesRow(nextID))
				nextID++
			}
			exec(&query.Query{Kind: query.Insert, Table: "sales", Rows: rows})
		case 1: // update by id
			if nextID == 0 {
				continue
			}
			exec(&query.Query{
				Kind: query.Update, Table: "sales",
				Set:  map[int]value.Value{2: value.NewDouble(float64(rng.Intn(500)))},
				Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(rng.Int63n(nextID))},
			})
		case 2: // delete occasionally
			if step%20 != 2 || nextID == 0 {
				continue
			}
			exec(&query.Query{
				Kind: query.Delete, Table: "sales",
				Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(rng.Int63n(nextID))},
			})
		case 3: // check aggregate equivalence
			results := exec(&query.Query{
				Kind: query.Aggregate, Table: "sales",
				Aggs: []agg.Spec{{Func: agg.Sum, Col: 2}, {Func: agg.Count, Col: -1}},
			})
			base := results[0].Rows[0]
			for i, r := range results[1:] {
				if len(r.Rows) != 1 {
					t.Fatalf("step %d layout %d: %d rows", step, i+1, len(r.Rows))
				}
				if base[1].Int() != r.Rows[0][1].Int() {
					t.Fatalf("step %d layout %d: count %v != %v", step, i+1, r.Rows[0][1], base[1])
				}
				if base[0].IsNull() != r.Rows[0][0].IsNull() {
					t.Fatalf("step %d layout %d: null mismatch", step, i+1)
				}
				if !base[0].IsNull() && base[0].Double() != r.Rows[0][0].Double() {
					t.Fatalf("step %d layout %d: sum %v != %v", step, i+1, r.Rows[0][0], base[0])
				}
			}
		}
	}
}

// TestHiddenRowKey checks that the row key of a table declared without a
// primary key stays out of sight: SELECT * (single table and join), the
// INSERT and COPY arity, the rendered DDL and a schema's WAL encoding know
// only the declared columns.
func TestHiddenRowKey(t *testing.T) {
	db := New()
	tags := schema.MustNew("tags", []schema.Column{
		{Name: "n", Type: value.Integer, Nullable: true},
		{Name: "label", Type: value.Varchar, Nullable: true},
	})
	if err := db.CreateTable(notesSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(tags, catalog.ColumnStore); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, &query.Query{Kind: query.Insert, Table: "notes", Rows: [][]value.Value{note("a", 1), note("b", 2)}})
	mustExec(t, db, &query.Query{Kind: query.Insert, Table: "tags", Rows: [][]value.Value{{value.NewInt(1), value.NewVarchar("one")}}})
	sch := db.Catalog().Table("notes").Schema

	for _, c := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"schema.New appends the key", func(t *testing.T) {
			last := sch.NumColumns() - 1
			if sch.Visible() != 2 || !reflect.DeepEqual(sch.PrimaryKey, []int{last}) ||
				sch.Columns[last].Name != schema.RowKey || sch.Columns[last].Type != value.Bigint {
				t.Fatalf("keyless schema: columns %v, key %v", sch.Columns, sch.PrimaryKey)
			}
		}},
		{"select star", func(t *testing.T) {
			for _, table := range []string{"notes", "tags"} {
				res := mustExec(t, db, &query.Query{Kind: query.Select, Table: table})
				if len(res.Cols) != 2 || len(res.Rows) == 0 || len(res.Rows[0]) != 2 {
					t.Fatalf("SELECT * FROM %s: columns %v, rows %v", table, res.Cols, res.Rows)
				}
			}
		}},
		{"select star join", func(t *testing.T) {
			res := mustExec(t, db, &query.Query{Kind: query.Select, Table: "notes",
				Join: &query.Join{Table: "tags", LeftCol: 1, RightCol: 0}})
			want := []string{"notes.msg", "notes.n", "tags.n", "tags.label"}
			if !reflect.DeepEqual(res.Cols, want) || len(res.Rows) != 1 || len(res.Rows[0]) != 4 {
				t.Fatalf("SELECT * join: columns %v, rows %v", res.Cols, res.Rows)
			}
		}},
		{"insert arity", func(t *testing.T) {
			mustExec(t, db, &query.Query{Kind: query.Insert, Table: "notes", Rows: [][]value.Value{note("c", 3)}})
			extra := append(note("d", 4), value.NewBigint(99))
			if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "notes", Rows: [][]value.Value{extra}}); err == nil {
				t.Fatal("INSERT with a value for the hidden key accepted")
			}
		}},
		{"copy arity", func(t *testing.T) {
			if _, err := db.CopyRows(context.Background(), "notes", [][]value.Value{note("e", 5), note("e", 5)}); err != nil {
				t.Fatal(err)
			}
			extra := append(note("f", 6), value.NewBigint(99))
			if _, err := db.CopyRows(context.Background(), "notes", [][]value.Value{extra}); err == nil {
				t.Fatal("COPY with a value for the hidden key accepted")
			}
		}},
		{"DDL round trip", func(t *testing.T) {
			st, err := sql.Parse(sch.DDL(), nil)
			if err != nil {
				t.Fatalf("parse %q: %v", sch.DDL(), err)
			}
			if got := st.CreateTable; !reflect.DeepEqual(got.Columns, sch.Columns) || !reflect.DeepEqual(got.PrimaryKey, sch.PrimaryKey) {
				t.Fatalf("%q rebuilt columns %v key %v, want %v key %v", sch.DDL(), got.Columns, got.PrimaryKey, sch.Columns, sch.PrimaryKey)
			}
		}},
		{"WAL schema round trip", func(t *testing.T) {
			enc := wal.NewEncoder()
			enc.Schema(sch)
			got := wal.NewDecoder(enc.Bytes()).Schema()
			if got == nil || !reflect.DeepEqual(got.Columns, sch.Columns) || !reflect.DeepEqual(got.PrimaryKey, sch.PrimaryKey) {
				t.Fatalf("decoded %+v, want %+v", got, sch)
			}
		}},
	} {
		t.Run(c.name, c.run)
	}
}
