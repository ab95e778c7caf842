package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// The parallel differential suite runs randomized analytics on tables
// large enough to trip every morsel-parallel path (the column store
// parallelizes past 8×1024 main rows, the row store past 2×4096 slots)
// and asserts the results are bit-identical on worker pools of 1, 2, 3
// and 8 slots — across every layout, with NULLs, tombstones, a live delta
// and migration churn in the data. The larger pools force the concurrent
// paths even on single-core hosts. The keyfigure is genuinely fractional,
// so a float SUM whose additions associated differently between two pool
// sizes would differ in its last bits: "identical" means the reduction
// order is a function of the data alone.

const parRows = 24_000

func parSchema() *schema.Table {
	return schema.MustNew("par", []schema.Column{
		{Name: "id", Type: value.Bigint},                    // 0: PK
		{Name: "grp", Type: value.Integer},                  // 1: card 8, horizontal split col
		{Name: "cat", Type: value.Integer},                  // 2: card 50, join key
		{Name: "amt", Type: value.Double, Nullable: true},   // 3: fractional
		{Name: "qty", Type: value.Integer, Nullable: true},  // 4
		{Name: "note", Type: value.Varchar, Nullable: true}, // 5
	}, "id")
}

func parRow(rng *rand.Rand, id int64) []value.Value {
	amt := value.NewDouble(rng.Float64() * 100_000)
	if rng.Intn(20) == 0 {
		amt = value.Null(value.Double)
	}
	qty := value.NewInt(rng.Int63n(1000))
	if rng.Intn(25) == 0 {
		qty = value.Null(value.Integer)
	}
	note := value.NewVarchar(fmt.Sprintf("n-%02d", rng.Intn(40)))
	if rng.Intn(30) == 0 {
		note = value.Null(value.Varchar)
	}
	return []value.Value{
		value.NewBigint(id),
		value.NewInt(rng.Int63n(8)),
		value.NewInt(rng.Int63n(50)),
		amt, qty, note,
	}
}

type parLayout struct {
	name  string
	store catalog.StoreKind
	spec  *catalog.PartitionSpec
}

// parLayouts is every layout whose scans have a parallel path to check.
// The vertical split keeps grp in the row partition and the keyfigures in
// the column partition, so the grouped aggregates span both and join full
// rows; the last layout turns it around — grp in the column partition, the
// fractional amt in the row partition — so they run on the column
// partition's dense kernel with amt fed from the row partition.
func parLayouts() []parLayout {
	horiz := &catalog.HorizontalSpec{
		SplitCol: 1, SplitVal: value.NewInt(4),
		HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
	}
	vert := &catalog.VerticalSpec{RowCols: []int{0, 1, 5}, ColCols: []int{0, 2, 3, 4}}
	return []parLayout{
		{"row", catalog.RowStore, nil},
		{"column", catalog.ColumnStore, nil},
		{"horizontal", catalog.Partitioned, &catalog.PartitionSpec{Horizontal: horiz}},
		{"vertical", catalog.Partitioned, &catalog.PartitionSpec{Vertical: vert}},
		{"horizontal+vertical", catalog.Partitioned, &catalog.PartitionSpec{Horizontal: horiz, Vertical: vert}},
		{"vertical, amt in rows", catalog.Partitioned, &catalog.PartitionSpec{
			Vertical: &catalog.VerticalSpec{RowCols: []int{0, 3, 5}, ColCols: []int{0, 1, 2, 4}}}},
	}
}

// buildParDB loads the par table (plus the pardim join dimension) in the
// given layout and churns it: bulk load, compact, a delta of late
// inserts, range updates, NULL writes and deletes leaving tombstones.
func buildParDB(t *testing.T, store catalog.StoreKind, spec *catalog.PartitionSpec) *Database {
	t.Helper()
	db := New()
	if err := db.CreateTableWithLayout(parSchema(), store, spec); err != nil {
		t.Fatal(err)
	}
	dimSch := schema.MustNew("pardim", []schema.Column{
		{Name: "dkey", Type: value.Integer},
		{Name: "dgrp", Type: value.Integer},
		{Name: "dname", Type: value.Varchar},
	}, "dkey")
	if err := db.CreateTable(dimSch, catalog.ColumnStore); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	dimRows := make([][]value.Value, 0, 50)
	for i := int64(0); i < 50; i++ {
		dimRows = append(dimRows, []value.Value{
			value.NewInt(i), value.NewInt(i % 5), value.NewVarchar(fmt.Sprintf("d%02d", i)),
		})
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "pardim", Rows: dimRows}); err != nil {
		t.Fatal(err)
	}

	batch := make([][]value.Value, 0, 4096)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "par", Rows: batch}); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
	}
	for id := int64(0); id < parRows-2000; id++ {
		batch = append(batch, parRow(rng, id))
		if len(batch) == cap(batch) {
			flush()
		}
	}
	flush()
	// Compress the bulk into the read-optimized main fragment, then keep
	// a live delta on top of it.
	if err := db.Compact("par"); err != nil {
		t.Fatal(err)
	}
	for id := int64(parRows - 2000); id < parRows; id++ {
		batch = append(batch, parRow(rng, id))
	}
	flush()

	churn := []*query.Query{
		{Kind: query.Update, Table: "par",
			Pred: &expr.Between{Col: 0, Lo: value.NewBigint(3000), Hi: value.NewBigint(4500)},
			Set:  map[int]value.Value{3: value.NewDouble(123456)}},
		{Kind: query.Update, Table: "par",
			Pred: &expr.Between{Col: 0, Lo: value.NewBigint(9000), Hi: value.NewBigint(9400)},
			Set:  map[int]value.Value{3: value.Null(value.Double), 4: value.Null(value.Integer)}},
		{Kind: query.Delete, Table: "par",
			Pred: &expr.Between{Col: 0, Lo: value.NewBigint(5000), Hi: value.NewBigint(6200)}},
		{Kind: query.Delete, Table: "par",
			Pred: &expr.Between{Col: 0, Lo: value.NewBigint(22_800), Hi: value.NewBigint(23_100)}},
	}
	for _, q := range churn {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// parQueries is the randomized analytics mix: global and grouped
// aggregates over nullable columns, predicated scans and star joins.
func parQueries(seed int64) []*query.Query {
	rng := rand.New(rand.NewSource(seed))
	funcs := []agg.Func{agg.Sum, agg.Count, agg.Min, agg.Max, agg.Avg}
	aggCols := []int{3, 4, 0}
	randPred := func() expr.Predicate {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			lo := rng.Int63n(parRows)
			return &expr.Between{Col: 0, Lo: value.NewBigint(lo), Hi: value.NewBigint(lo + rng.Int63n(parRows))}
		case 2:
			return &expr.Comparison{Col: 2, Op: expr.Lt, Val: value.NewInt(rng.Int63n(50))}
		default:
			return &expr.Comparison{Col: 1, Op: expr.Ge, Val: value.NewInt(rng.Int63n(8))}
		}
	}
	var qs []*query.Query
	for i := 0; i < 20; i++ {
		specs := make([]agg.Spec, 1+rng.Intn(3))
		for j := range specs {
			col := aggCols[rng.Intn(len(aggCols))]
			f := funcs[rng.Intn(len(funcs))]
			if rng.Intn(6) == 0 {
				col = -1
				f = agg.Count
			}
			specs[j] = agg.Spec{Func: f, Col: col}
		}
		var groupBy []int
		switch rng.Intn(4) {
		case 1:
			groupBy = []int{1}
		case 2:
			groupBy = []int{1, 2}
		case 3:
			groupBy = []int{1, 2, 4} // too many columns for the dense kernel: the generic fold
		}
		qs = append(qs, &query.Query{
			Kind: query.Aggregate, Table: "par",
			Aggs: specs, GroupBy: groupBy, Pred: randPred(),
		})
	}
	for i := 0; i < 5; i++ {
		qs = append(qs, &query.Query{
			Kind: query.Select, Table: "par",
			Cols: []int{0, 1, 3, 5}, Pred: randPred(),
		})
	}
	for i := 0; i < 5; i++ {
		qs = append(qs, &query.Query{
			Kind: query.Aggregate, Table: "par",
			Join:    &query.Join{Table: "pardim", LeftCol: 2, RightCol: 0},
			Aggs:    []agg.Spec{{Func: agg.Sum, Col: 3}, {Func: agg.Count, Col: -1}},
			GroupBy: []int{6 + 1}, // pardim.dgrp in combined indexing
			Pred:    randPred(),
		})
	}
	return qs
}

// sortedRows canonicalizes a result for order-insensitive comparison: rows
// in the order of their printed form, each row printed once.
func sortedRows(rows [][]value.Value) [][]value.Value {
	keys := make([]string, len(rows))
	out := make([][]value.Value, len(rows))
	for i, row := range rows {
		keys[i], out[i] = fmt.Sprint(row), row
	}
	sort.Sort(byKey{keys, out})
	return out
}

// byKey sorts rows by their keys.
type byKey struct {
	keys []string
	rows [][]value.Value
}

func (b byKey) Len() int           { return len(b.keys) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.rows[i], b.rows[j] = b.rows[j], b.rows[i]
}

// assertPoolSizeIndependent runs q under worker pools of 1, 2, 3 and 8
// slots (1 and 8 under the race detector) and requires bit-identical
// results: a SELECT's rows in the same order, an aggregate's groups in any.
func assertPoolSizeIndependent(t *testing.T, db *Database, q *query.Query, label string) {
	t.Helper()
	eachPoolSize(t, db, label, q.Kind == query.Select, func(size int) [][]value.Value {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("%s: %d-slot pool: %v", label, size, err)
		}
		return res.Rows
	})
}

// eachPoolSize calls run with db on worker pools of 1, 2, 3 and 8 slots
// (1 and 8 under the race detector) and requires every result
// bit-identical to the 1-slot pool's: its rows in the same order when
// ordered, else in any.
func eachPoolSize(t *testing.T, db *Database, label string, ordered bool, run func(size int) [][]value.Value) {
	t.Helper()
	sizes := []int{1, 2, 3, 8}
	if raceEnabled {
		sizes = []int{1, 8}
	}
	var serial [][]value.Value
	for _, size := range sizes {
		db.SetPool(exec.NewPool(size))
		rows := run(size)
		if !ordered {
			rows = sortedRows(rows)
		}
		if size == 1 {
			serial = rows
		} else if !reflect.DeepEqual(serial, rows) {
			t.Fatalf("%s: %d-slot pool diverged from the 1-slot pool\n1 slot  (%d rows): %.300v\n%d slots (%d rows): %.300v",
				label, size, len(serial), serial, size, len(rows), rows)
		}
	}
}

// assertNoJoinMiss requires that no PK join between the partitions of a
// vertical split lost a row since the counter read before.
func assertNoJoinMiss(t *testing.T, before int64) {
	t.Helper()
	if n := mVerticalJoinMiss.Value() - before; n != 0 {
		t.Errorf("hs_vertical_join_miss_total moved by %d", n)
	}
}

func TestParallelSerialDifferential(t *testing.T) {
	queries := parQueries(42)
	misses := mVerticalJoinMiss.Value()
	for _, l := range parLayouts() {
		t.Run(l.name, func(t *testing.T) {
			db := buildParDB(t, l.store, l.spec)
			for i, q := range queries {
				assertPoolSizeIndependent(t, db, q, fmt.Sprintf("%s q%d", l.name, i))
			}
		})
	}
	assertNoJoinMiss(t, misses)
}

// TestParallelDifferentialMigrationChurn re-checks serial/parallel
// agreement while the same table is migrated through every layout —
// each migration rebuilds fragments (fresh mains, empty deltas, row
// arenas), so the morsel boundaries shift under the same logical data.
func TestParallelDifferentialMigrationChurn(t *testing.T) {
	layouts := parLayouts()
	db := buildParDB(t, layouts[0].store, layouts[0].spec)
	queries := parQueries(99)[:12]
	misses := mVerticalJoinMiss.Value()
	for _, l := range layouts[1:] {
		if err := db.MigrateLayout("par", l.store, l.spec); err != nil {
			t.Fatalf("migrate to %s: %v", l.name, err)
		}
		for i, q := range queries {
			assertPoolSizeIndependent(t, db, q, fmt.Sprintf("after-migrate-%s q%d", l.name, i))
		}
	}
	assertNoJoinMiss(t, misses)
}
