package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/plan"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// The star-join wall checks aggregate joins of a column-store fact table
// against a nested-loop oracle over the rows the test generated: the
// shapes the dense kernel covers and the ones that must fall back to the
// hash probe, under every planner decision. amt and w are multiples of
// 0.25 — every sum is exact in a float64, so the engine must agree with
// the oracle exactly however it associates its additions; frac is
// genuinely fractional and carries the pool-size comparison.

func starFactSchema() *schema.Table {
	return schema.MustNew("sfact", []schema.Column{
		{Name: "id", Type: value.Bigint},                   // 0: PK
		{Name: "dk", Type: value.Integer, Nullable: true},  // 1: join key
		{Name: "amt", Type: value.Double, Nullable: true},  // 2: quarters
		{Name: "frac", Type: value.Double},                 // 3: fractional
		{Name: "qty", Type: value.Integer, Nullable: true}, // 4
		{Name: "f", Type: value.Integer},                   // 5: filter, card 10
	}, "id")
}

// starDimSchema joins on its primary key: the star-schema shape.
func starDimSchema() *schema.Table {
	return schema.MustNew("sdim", []schema.Column{
		{Name: "dkey", Type: value.Integer},                 // 6: PK
		{Name: "grp", Type: value.Integer},                  // 7: card 4
		{Name: "name", Type: value.Varchar, Nullable: true}, // 8: card 6 + NULL
		{Name: "w", Type: value.Double, Nullable: true},     // 9: quarters
	}, "dkey")
}

// starDupSchema has the same columns behind a surrogate key, so its join
// column repeats and may be NULL.
func starDupSchema() *schema.Table {
	return schema.MustNew("sdup", []schema.Column{
		{Name: "sid", Type: value.Bigint},
		{Name: "dkey", Type: value.Integer, Nullable: true},
		{Name: "grp", Type: value.Integer},
		{Name: "name", Type: value.Varchar, Nullable: true},
	}, "sid")
}

const starNL = 6 // columns of sfact: the right side starts here

func starFactRow(rng *rand.Rand, id int64) []value.Value {
	// Keys 0..69; the dimension holds 0..59, so 60..69 meet no build row.
	dk := value.NewInt(rng.Int63n(70))
	if rng.Intn(15) == 0 {
		dk = value.Null(value.Integer)
	}
	amt := value.NewDouble(float64(rng.Intn(4000)) / 4)
	if rng.Intn(10) == 0 {
		amt = value.Null(value.Double)
	}
	qty := value.NewInt(rng.Int63n(500))
	if rng.Intn(20) == 0 {
		qty = value.Null(value.Integer)
	}
	return []value.Value{value.NewBigint(id), dk, amt, value.NewDouble(rng.Float64() * 1000), qty, value.NewInt(rng.Int63n(10))}
}

func starDimRow(k int64) []value.Value {
	name := value.NewVarchar(fmt.Sprintf("name-%d", k%6))
	if k%11 == 0 {
		name = value.Null(value.Varchar)
	}
	w := value.NewDouble(float64(k*7%40) / 4)
	if k%9 == 0 {
		w = value.Null(value.Double)
	}
	return []value.Value{value.NewInt(k), value.NewInt(k % 4), name, w}
}

// starData is the test's own copy of the live rows, which the oracle
// folds over.
type starData struct {
	fact, dim, dup [][]value.Value
}

func deleteRows(rows [][]value.Value, drop func(row []value.Value) bool) [][]value.Value {
	kept := rows[:0:0]
	for _, r := range rows {
		if !drop(r) {
			kept = append(kept, r)
		}
	}
	return kept
}

// starOracle answers q with two nested loops over the generated rows.
func starOracle(q *query.Query, left, right [][]value.Value) [][]value.Value {
	res := agg.NewResult(q.Aggs, q.GroupBy)
	types := append(starFactSchema().ColTypes(), starDimSchema().ColTypes()...)
	if q.Join.Table == "sdup" {
		types = append(starFactSchema().ColTypes(), starDupSchema().ColTypes()...)
	}
	res.SetOutputTypes(types)
	for _, l := range left {
		for _, r := range right {
			lk, rk := l[q.Join.LeftCol], r[q.Join.RightCol]
			if lk.IsNull() || rk.IsNull() || lk.Int() != rk.Int() {
				continue
			}
			row := append(append([]value.Value{}, l...), r...)
			if q.Pred == nil || q.Pred.Matches(row) {
				res.AddRow(row)
			}
		}
	}
	return res.Rows()
}

// sameRows compares two results order-insensitively; doubles may differ
// by a relative tol (0: bit for bit).
func sameRows(got, want [][]value.Value, tol float64) error {
	got, want = sortedRows(got), sortedRows(want)
	if tol == 0 {
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("got %d rows %.300v\nwant %d rows %.300v", len(got), got, len(want), want)
		}
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			g, w := got[i][j], want[i][j]
			if w.Type() == value.Double && !w.IsNull() && !g.IsNull() {
				if math.Abs(g.Double()-w.Double()) > tol*math.Max(1, math.Abs(w.Double())) {
					return fmt.Errorf("row %d column %d: %v, want %v", i, j, g, w)
				}
			} else if !reflect.DeepEqual(g, w) {
				return fmt.Errorf("row %d column %d: %v, want %v", i, j, g, w)
			}
		}
	}
	return nil
}

// starCase is one statement of the wall; dense says which probe it must
// run on when the dimension builds and single-side conjuncts are pushed
// below the join.
type starCase struct {
	name  string
	q     *query.Query
	dense bool
	tol   float64
}

func starCases() []starCase {
	join := &query.Join{Table: "sdim", LeftCol: 1, RightCol: 0}
	factSide := &expr.Comparison{Col: 5, Op: expr.Lt, Val: value.NewInt(6)}
	dimSide := &expr.Comparison{Col: starNL + 1, Op: expr.Ge, Val: value.NewInt(1)}
	mk := func(specs []agg.Spec, groupBy []int, pred expr.Predicate) *query.Query {
		return &query.Query{Kind: query.Aggregate, Table: "sfact", Join: join, Aggs: specs, GroupBy: groupBy, Pred: pred}
	}
	return []starCase{
		{"probe-side aggregates, every function", mk([]agg.Spec{
			{Func: agg.Sum, Col: 2}, {Func: agg.Count, Col: -1}, {Func: agg.Avg, Col: 4},
			{Func: agg.Min, Col: 4}, {Func: agg.Max, Col: 2}, {Func: agg.Count, Col: 2},
		}, []int{starNL + 1}, nil), true, 0},
		{"build-side aggregates with NULLs, VARCHAR group key", mk([]agg.Spec{
			{Func: agg.Sum, Col: starNL + 3}, {Func: agg.Count, Col: starNL + 3}, {Func: agg.Avg, Col: starNL + 3},
			{Func: agg.Count, Col: -1}, {Func: agg.Sum, Col: 2},
		}, []int{starNL + 2}, nil), true, 0},
		{"ungrouped", mk([]agg.Spec{
			{Func: agg.Sum, Col: 2}, {Func: agg.Count, Col: -1}, {Func: agg.Avg, Col: starNL + 3}, {Func: agg.Max, Col: 4},
		}, nil, nil), true, 0},
		{"two build-side group columns, both sides filtered", mk([]agg.Spec{
			{Func: agg.Sum, Col: 2}, {Func: agg.Count, Col: -1},
		}, []int{starNL + 1, starNL + 2}, &expr.And{Preds: []expr.Predicate{factSide, dimSide}}), true, 0},
		{"aggregate on the join key", mk([]agg.Spec{
			{Func: agg.Sum, Col: 1}, {Func: agg.Max, Col: 1}, {Func: agg.Sum, Col: starNL},
		}, []int{starNL + 1}, factSide), true, 0},
		{"fractional doubles", mk([]agg.Spec{
			{Func: agg.Sum, Col: 3}, {Func: agg.Avg, Col: 3},
		}, []int{starNL + 1}, factSide), true, 1e-9},
		{"MIN/MAX of a build-side column", mk([]agg.Spec{
			{Func: agg.Min, Col: starNL + 3}, {Func: agg.Max, Col: starNL + 2}, {Func: agg.Sum, Col: 2},
		}, []int{starNL + 1}, nil), false, 0},
		{"probe-side group column", mk([]agg.Spec{
			{Func: agg.Sum, Col: 2}, {Func: agg.Count, Col: -1},
		}, []int{5}, dimSide), false, 0},
		{"group key spanning both sides", mk([]agg.Spec{
			{Func: agg.Sum, Col: 2},
		}, []int{5, starNL + 1}, nil), false, 0},
		{"conjunct over both sides", mk([]agg.Spec{
			{Func: agg.Sum, Col: 2}, {Func: agg.Count, Col: -1},
		}, []int{starNL + 1}, &expr.Or{Preds: []expr.Predicate{factSide, dimSide}}), false, 0},
	}
}

// runPlanned executes q under forced planner decisions.
func runPlanned(t *testing.T, db *Database, q *query.Query, opts plan.Options) [][]value.Value {
	t.Helper()
	p, err := db.PlanQueryOptions(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecPlannedContext(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// starLayouts are the layouts the wall loads the probe table sfact in:
// only the plain column table may run the dense probe. The split keeps the
// ids from 6000 on in the row store; the vertical split keeps qty and the
// filter column f in the row part, so statements that name them join the
// parts on the key.
func starLayouts() []parLayout {
	split := &catalog.HorizontalSpec{SplitCol: 0, SplitVal: value.NewBigint(6000), HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore}
	vert := &catalog.VerticalSpec{RowCols: []int{0, 4, 5}, ColCols: []int{0, 1, 2, 3}}
	return []parLayout{
		{"column", catalog.ColumnStore, nil},
		{"hot/cold", catalog.Partitioned, &catalog.PartitionSpec{Horizontal: split}},
		{"vertical", catalog.Partitioned, &catalog.PartitionSpec{Vertical: vert}},
		{"hot/cold+vertical", catalog.Partitioned, &catalog.PartitionSpec{Horizontal: split, Vertical: vert}},
	}
}

// assertStarAgree runs the wall at one stage of the data's life, on every
// database — sfact in starLayouts()[i] in dbs[i] — and at every pool size
// eachPoolSize tries, the degraded plans too. A fractional sum must also
// be bit-identical at every pool size.
func assertStarAgree(t *testing.T, stage string, dbs []*Database, data *starData) {
	t.Helper()
	layouts := starLayouts()
	buildRight, buildLeft := false, true
	for _, c := range starCases() {
		want := starOracle(c.q, data.fact, data.dim)
		for i, db := range dbs {
			dense := c.dense && layouts[i].spec == nil
			label := fmt.Sprintf("%s, %s, %s", stage, layouts[i].name, c.name)
			eachPoolSize(t, db, label, false, func(size int) [][]value.Value {
				at := fmt.Sprintf("%s, %d-slot pool", label, size)
				d0, g0 := mJoinDense.Value(), mJoinGeneric.Value()
				got := runPlanned(t, db, c.q, plan.Options{ForceBuildLeft: &buildRight})
				if err := sameRows(got, want, c.tol); err != nil {
					t.Fatalf("%s: diverged from the nested-loop oracle: %v", at, err)
				}
				if d, g := mJoinDense.Value()-d0, mJoinGeneric.Value()-g0; (d == 1) != dense || d+g != 1 {
					t.Fatalf("%s: ran %d dense and %d generic probes, want dense=%v", at, d, g, dense)
				}
				// The degraded plans must run degraded — the fact side
				// builds, or every conjunct waits until after the join —
				// and still agree.
				g0 = mJoinGeneric.Value()
				if err := sameRows(runPlanned(t, db, c.q, plan.Options{ForceBuildLeft: &buildLeft}), want, c.tol); err != nil {
					t.Fatalf("%s, fact side builds: %v", at, err)
				}
				if g := mJoinGeneric.Value() - g0; g != 1 {
					t.Fatalf("%s: a fact-side build ran %d generic probes, want 1", at, g)
				}
				d0 = mJoinDense.Value()
				if err := sameRows(runPlanned(t, db, c.q, plan.Options{ForceBuildLeft: &buildRight, DisablePushdown: true}), want, c.tol); err != nil {
					t.Fatalf("%s, pushdown off: %v", at, err)
				}
				if d := mJoinDense.Value() - d0; (d == 1) != (dense && c.q.Pred == nil) {
					t.Fatalf("%s, pushdown off: ran %d dense probes", at, d)
				}
				return got
			})
		}
	}

	// Repeated and NULL build keys: not a star join, so the hash probe.
	dup := &query.Query{Kind: query.Aggregate, Table: "sfact",
		Join:    &query.Join{Table: "sdup", LeftCol: 1, RightCol: 1},
		Aggs:    []agg.Spec{{Func: agg.Sum, Col: 2}, {Func: agg.Count, Col: -1}, {Func: agg.Min, Col: 4}},
		GroupBy: []int{starNL + 2}}
	want := starOracle(dup, data.fact, data.dup)
	for i, db := range dbs {
		generic := mJoinGeneric.Value()
		if err := sameRows(runPlanned(t, db, dup, plan.Options{ForceBuildLeft: &buildRight}), want, 0); err != nil {
			t.Fatalf("%s, %s, repeated build keys: %v", stage, layouts[i].name, err)
		}
		if g := mJoinGeneric.Value() - generic; g != 1 {
			t.Fatalf("%s, %s, repeated build keys: ran %d generic probes, want 1", stage, layouts[i].name, g)
		}
	}
}

func TestStarJoinWall(t *testing.T) {
	var dbs []*Database
	for _, l := range starLayouts() {
		db := New()
		if err := db.CreateTableWithLayout(starFactSchema(), l.store, l.spec); err != nil {
			t.Fatal(err)
		}
		for _, sch := range []*schema.Table{starDimSchema(), starDupSchema()} {
			if err := db.CreateTable(sch, catalog.ColumnStore); err != nil {
				t.Fatal(err)
			}
		}
		dbs = append(dbs, db)
	}
	data := &starData{}
	exec1 := func(q *query.Query) {
		t.Helper()
		for _, db := range dbs {
			if _, err := db.Exec(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	compact := func(table string) {
		t.Helper()
		for _, db := range dbs {
			if err := db.Compact(table); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(14))
	insertFact := func(lo, hi int64) {
		rows := make([][]value.Value, 0, hi-lo)
		for id := lo; id < hi; id++ {
			rows = append(rows, starFactRow(rng, id))
		}
		data.fact = append(data.fact, rows...)
		exec1(&query.Query{Kind: query.Insert, Table: "sfact", Rows: rows})
	}

	assertStarAgree(t, "empty tables", dbs, data)

	for k := int64(0); k < 60; k++ {
		data.dim = append(data.dim, starDimRow(k))
	}
	exec1(&query.Query{Kind: query.Insert, Table: "sdim", Rows: data.dim})
	assertStarAgree(t, "empty probe side", dbs, data)

	for s := int64(0); s < 90; s++ {
		k := value.NewInt(s % 45)
		if s%10 == 0 {
			k = value.Null(value.Integer)
		}
		d := starDimRow(s % 45)
		data.dup = append(data.dup, []value.Value{value.NewBigint(s), k, d[1], d[2]})
	}
	exec1(&query.Query{Kind: query.Insert, Table: "sdup", Rows: data.dup})
	insertFact(0, 9000)
	compact("sfact")
	assertStarAgree(t, "main only", dbs, data)

	// The delta dictionary repeats keys of the main dictionary and brings
	// new ones.
	insertFact(9000, 9700)
	assertStarAgree(t, "probe rows in the delta", dbs, data)

	tomb := &expr.Between{Col: 0, Lo: value.NewBigint(2000), Hi: value.NewBigint(2600)}
	exec1(&query.Query{Kind: query.Delete, Table: "sfact", Pred: tomb})
	data.fact = deleteRows(data.fact, func(r []value.Value) bool { return tomb.Matches(r) })
	// Build keys leave: their probe rows stay behind without a partner.
	gone := &expr.Between{Col: 0, Lo: value.NewInt(20), Hi: value.NewInt(24)}
	exec1(&query.Query{Kind: query.Delete, Table: "sdim", Pred: gone})
	data.dim = deleteRows(data.dim, func(r []value.Value) bool { return gone.Matches(r) })
	assertStarAgree(t, "tombstones", dbs, data)

	exec1(&query.Query{Kind: query.Delete, Table: "sdim"})
	data.dim = nil
	assertStarAgree(t, "empty build side", dbs, data)
}

// TestStarJoinStops fires the Stop hook in the middle of the probe: the
// kernel must come back promptly with nothing folded and the pool's
// helper slots released, and the engine must surface the cancellation.
func TestStarJoinStops(t *testing.T) {
	db := New()
	if err := db.CreateTable(starFactSchema(), catalog.ColumnStore); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(starDimSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	const n = 40_000
	rng := rand.New(rand.NewSource(4))
	rows := make([][]value.Value, 0, n)
	for id := int64(0); id < n; id++ {
		rows = append(rows, starFactRow(rng, id))
	}
	dim := make([][]value.Value, 0, 60)
	for k := int64(0); k < 60; k++ {
		dim = append(dim, starDimRow(k))
	}
	for table, rows := range map[string][][]value.Value{"sfact": rows, "sdim": dim} {
		if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: table, Rows: rows}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact("sfact"); err != nil {
		t.Fatal(err)
	}
	q := starCases()[0].q
	fact, _ := db.runtime("sfact")
	sdim, _ := db.runtime("sdim")
	probe := joinSide{rt: fact, joinCol: 1, width: starNL, offset: 0}
	build := joinSide{rt: sdim, joinCol: 0, width: 4, offset: starNL, keyType: value.Integer}
	if !starJoinShape(q, &probe, &build) {
		t.Fatal("not a star join")
	}

	pool := exec.NewPool(4)
	var polls atomic.Int64
	ex := &exec.Ctx{Pool: pool, Stop: func() bool { return polls.Add(1) > 6 }}
	star := newStarJoin(fact.store.column(), q, &probe, &build, []int{1, 0}, nil)
	res := agg.NewResult(q.Aggs, q.GroupBy)
	if seen := star.probe(res, nil, ex); seen >= n {
		t.Errorf("stopped probe still saw all %d rows", seen)
	}
	if !ex.Stopped() {
		t.Fatal("stop hook never fired")
	}
	if len(res.Groups) != 0 {
		t.Errorf("stopped probe folded %d groups", len(res.Groups))
	}
	if pool.Stats().InUse != 0 {
		t.Errorf("%d pool slots still held after a stopped probe", pool.Stats().InUse)
	}
	star = newStarJoin(fact.store.column(), q, &probe, &build, []int{1, 0}, nil)
	if seen := star.probe(res, nil, &exec.Ctx{Pool: pool}); seen != n {
		t.Errorf("probe after a stopped run saw %d rows, want %d", seen, n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	SetScanStartedHook(func(context.Context, string) { cancel() })
	defer SetScanStartedHook(nil)
	if _, err := db.ExecContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled star join returned %v, want context.Canceled", err)
	}
}

// TestJoinWholeNumberKeyTypes: an INTEGER column joins a BIGINT or DATE
// column by numeric value on every layout, in both directions, for SELECT
// and aggregate (it used to match nothing, silently); a VARCHAR against a
// number is an error, not an empty result.
func TestJoinWholeNumberKeyTypes(t *testing.T) {
	fsch := schema.MustNew("f", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "dk", Type: value.Integer},
		{Name: "v", Type: value.Double},
		{Name: "tag", Type: value.Varchar},
	}, "id")
	frows := make([][]value.Value, 0, 40)
	for i := int64(0); i < 40; i++ {
		frows = append(frows, []value.Value{value.NewBigint(i), value.NewInt(i % 5), value.NewDouble(float64(i) / 4), value.NewVarchar("t")})
	}
	layouts := []parLayout{
		{"row", catalog.RowStore, nil},
		{"column", catalog.ColumnStore, nil},
		{"horizontal", catalog.Partitioned, &catalog.PartitionSpec{Horizontal: &catalog.HorizontalSpec{
			SplitCol: 0, SplitVal: value.NewBigint(30), HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore}}},
		{"vertical", catalog.Partitioned, &catalog.PartitionSpec{Vertical: &catalog.VerticalSpec{RowCols: []int{0, 2}, ColCols: []int{0, 1, 3}}}},
	}
	for _, keyType := range []value.Type{value.Bigint, value.Date} {
		dsch := schema.MustNew("d", []schema.Column{{Name: "dkey", Type: keyType}, {Name: "label", Type: value.Varchar}}, "dkey")
		drows := make([][]value.Value, 0, 3)
		for k := int64(1); k <= 3; k++ { // keys 1..3 of the fact side's 0..4
			key, _ := value.Coerce(value.NewInt(k), keyType)
			drows = append(drows, []value.Value{key, value.NewVarchar(fmt.Sprintf("d%d", k))})
		}
		for _, l := range layouts {
			t.Run(fmt.Sprintf("%s/%s", keyType, l.name), func(t *testing.T) {
				db := New()
				if err := db.CreateTableWithLayout(fsch, l.store, l.spec); err != nil {
					t.Fatal(err)
				}
				if err := db.CreateTable(dsch, catalog.ColumnStore); err != nil {
					t.Fatal(err)
				}
				for table, rows := range map[string][][]value.Value{"f": frows, "d": drows} {
					if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: table, Rows: rows}); err != nil {
						t.Fatal(err)
					}
				}
				// f JOIN d and d JOIN f: 24 of the 40 fact rows find a partner.
				fd := &query.Join{Table: "d", LeftCol: 1, RightCol: 0}
				df := &query.Join{Table: "f", LeftCol: 0, RightCol: 1}
				for _, q := range []*query.Query{
					{Kind: query.Select, Table: "f", Join: fd, Cols: []int{0, 5}},
					{Kind: query.Select, Table: "d", Join: df, Cols: []int{1, 2}},
				} {
					if res := spanExec(t, db, q); len(res.Rows) != 24 {
						t.Errorf("%s JOIN %s: %d rows, want 24", q.Table, q.Join.Table, len(res.Rows))
					}
				}
				for _, q := range []*query.Query{
					{Kind: query.Aggregate, Table: "f", Join: fd, GroupBy: []int{5}, Aggs: []agg.Spec{{Func: agg.Count, Col: -1}, {Func: agg.Sum, Col: 2}}},
					{Kind: query.Aggregate, Table: "d", Join: df, GroupBy: []int{1}, Aggs: []agg.Spec{{Func: agg.Count, Col: -1}, {Func: agg.Sum, Col: 4}}},
				} {
					res := spanExec(t, db, q)
					if len(res.Rows) != 3 {
						t.Fatalf("%s JOIN %s: %d groups, want 3", q.Table, q.Join.Table, len(res.Rows))
					}
					for _, row := range res.Rows {
						k := float64(row[0].Varchar()[1] - '0')
						// Rows k, k+5, …, k+35: eight of them, v = id/4.
						if row[1].Int() != 8 || row[2].Double() != (8*k+140)/4 {
							t.Errorf("%s JOIN %s, group %v: COUNT %v SUM %v, want 8 and %v", q.Table, q.Join.Table, row[0], row[1], row[2], (8*k+140)/4)
						}
					}
				}
				bad := &query.Query{Kind: query.Select, Table: "f", Join: &query.Join{Table: "d", LeftCol: 3, RightCol: 0}}
				if _, err := db.Exec(bad); err == nil {
					t.Error("a VARCHAR = number join was accepted")
				}
			})
		}
	}
}

// BenchmarkStarJoinAggregate is the kernel-level view of the benchmark's
// join class, without TCP: 40 k fact rows joining 2 k dimension rows on the
// dimension's key, a third of the fact rows selected, grouped on a
// dimension attribute — beside the plain single-table GROUP BY over the
// same fact rows, which is what the probe costs once the build side has
// been resolved into the key column's dictionary. ns/row counts probed
// rows. It runs once per layout of the fact table, the probe side: only
// the plain column table probes on the dense kernel; the split keeps the
// newest quarter in the row store, and the vertical split keeps the filter
// column f0 in its row part.
func BenchmarkStarJoinAggregate(b *testing.B) {
	const factRows, dimRows = 40_000, 2000
	fsch := schema.MustNew("fact", []schema.Column{
		{Name: "id", Type: value.Bigint}, {Name: "dimkey", Type: value.Integer},
		{Name: "k0", Type: value.Double}, {Name: "f0", Type: value.Integer},
	}, "id")
	dsch := schema.MustNew("dim", []schema.Column{
		{Name: "dkey", Type: value.Integer}, {Name: "d_g1", Type: value.Integer},
	}, "dkey")
	rng := rand.New(rand.NewSource(2012))
	frows := make([][]value.Value, 0, factRows)
	for id := int64(0); id < factRows; id++ {
		frows = append(frows, []value.Value{value.NewBigint(id), value.NewInt(rng.Int63n(dimRows)),
			value.NewDouble(float64(rng.Intn(10000)) / 100), value.NewInt(rng.Int63n(1000))})
	}
	drows := make([][]value.Value, 0, dimRows)
	for k := int64(0); k < dimRows; k++ {
		drows = append(drows, []value.Value{value.NewInt(k), value.NewInt(k % 25)})
	}
	pred := &expr.Comparison{Col: 3, Op: expr.Lt, Val: value.NewInt(300)}
	probed, keys := 0, map[int64]bool{}
	for _, r := range frows {
		if pred.Matches(r) {
			probed++
			keys[r[1].Int()] = true
		}
	}
	split := &catalog.HorizontalSpec{SplitCol: 0, SplitVal: value.NewBigint(factRows * 3 / 4), HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore}
	vert := &catalog.VerticalSpec{RowCols: []int{0, 3}, ColCols: []int{0, 1, 2}}
	for _, l := range []parLayout{
		{"column", catalog.ColumnStore, nil},
		{"hot-cold", catalog.Partitioned, &catalog.PartitionSpec{Horizontal: split}},
		{"vertical", catalog.Partitioned, &catalog.PartitionSpec{Vertical: vert}},
		{"hot-cold+vertical", catalog.Partitioned, &catalog.PartitionSpec{Horizontal: split, Vertical: vert}},
	} {
		db := New()
		if err := db.CreateTableWithLayout(fsch, l.store, l.spec); err != nil {
			b.Fatal(err)
		}
		if err := db.CreateTable(dsch, catalog.ColumnStore); err != nil {
			b.Fatal(err)
		}
		for table, rows := range map[string][][]value.Value{"fact": frows, "dim": drows} {
			if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: table, Rows: rows}); err != nil {
				b.Fatal(err)
			}
			if err := db.Compact(table); err != nil {
				b.Fatal(err)
			}
		}
		for _, c := range []struct {
			name   string
			q      *query.Query
			groups int
		}{
			{"join", &query.Query{Kind: query.Aggregate, Table: "fact", Join: &query.Join{Table: "dim", LeftCol: 1, RightCol: 0},
				Aggs: []agg.Spec{{Func: agg.Sum, Col: 2}}, GroupBy: []int{4 + 1}, Pred: pred}, 25},
			{"group-by", &query.Query{Kind: query.Aggregate, Table: "fact",
				Aggs: []agg.Spec{{Func: agg.Sum, Col: 2}}, GroupBy: []int{1}, Pred: pred}, len(keys)},
		} {
			b.Run(l.name+"/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := db.Exec(c.q)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) != c.groups {
						b.Fatalf("%d groups, want %d", len(res.Rows), c.groups)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(probed), "ns/row")
			})
		}
	}
}
