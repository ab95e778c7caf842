package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// The spanning suite checks aggregates that need columns of both
// partitions of a vertical split against a row-store oracle holding the
// same rows. Keyfigures are multiples of 0.25 — fractional, yet every sum
// is exact in a float64 — so layouts that associate their additions
// differently must still agree exactly.

const spanRows = 6000

func spanSchema() *schema.Table {
	return schema.MustNew("span", []schema.Column{
		{Name: "id", Type: value.Bigint},                  // 0: PK, both partitions
		{Name: "grp", Type: value.Integer},                // 1: column side, card 7
		{Name: "tag", Type: value.Integer},                // 2: row side, card 5
		{Name: "amt", Type: value.Double, Nullable: true}, // 3: row side keyfigure
		{Name: "qty", Type: value.Double},                 // 4: column side keyfigure
		{Name: "flag", Type: value.Integer},               // 5: row side filter, card 10
		{Name: "cat", Type: value.Integer},                // 6: column side filter, card 20
	}, "id")
}

func spanRow(rng *rand.Rand, id int64) []value.Value {
	amt := value.NewDouble(float64(rng.Intn(40_000)) / 4)
	if rng.Intn(12) == 0 {
		amt = value.Null(value.Double)
	}
	return []value.Value{
		value.NewBigint(id),
		value.NewInt(rng.Int63n(7)),
		value.NewInt(rng.Int63n(5)),
		amt,
		value.NewDouble(float64(rng.Intn(8000)) / 4),
		value.NewInt(rng.Int63n(10)),
		value.NewInt(rng.Int63n(20)),
	}
}

func spanVertical() *catalog.VerticalSpec {
	return &catalog.VerticalSpec{RowCols: []int{0, 2, 3, 5}, ColCols: []int{0, 1, 4, 6}}
}

func spanLayouts() []parLayout {
	return []parLayout{
		{"vertical", catalog.Partitioned, &catalog.PartitionSpec{Vertical: spanVertical()}},
		{"horizontal+vertical", catalog.Partitioned, &catalog.PartitionSpec{
			Horizontal: &catalog.HorizontalSpec{
				SplitCol: 0, SplitVal: value.NewBigint(spanRows * 9 / 10),
				HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
			},
			Vertical: spanVertical(),
		}},
	}
}

// spanQuery is one aggregate of the matrix; dense says whether the column
// partition's dense kernel covers its shape (else full rows are joined and
// accumulated one by one).
type spanQuery struct {
	q     *query.Query
	dense bool
}

// spanQueries is the aggregate matrix: global, one- and two-column
// GROUP BY (group columns on either side, and on both) over every
// aggregate function, with predicates on the column side only, the row
// side only, both, a disjunction no partition covers, and one that matches
// nothing. The kernel takes the shapes whose group columns all live in the
// column partition, whose MIN/MAX read column-partition columns and whose
// conjuncts each fit one partition; amt, the row-side keyfigure, has NULLs.
func spanQueries() []spanQuery {
	specSets := [][]agg.Spec{
		{{Func: agg.Sum, Col: 3}, {Func: agg.Avg, Col: 4}, {Func: agg.Min, Col: 3},
			{Func: agg.Max, Col: 4}, {Func: agg.Count, Col: -1}, {Func: agg.Count, Col: 3}},
		{{Func: agg.Sum, Col: 3}, {Func: agg.Avg, Col: 3}, {Func: agg.Count, Col: 3}, {Func: agg.Sum, Col: 4},
			{Func: agg.Min, Col: 4}, {Func: agg.Max, Col: 4}, {Func: agg.Count, Col: -1}},
	}
	colSide := &expr.Comparison{Col: 6, Op: expr.Lt, Val: value.NewInt(8)}
	rowSide := &expr.Comparison{Col: 5, Op: expr.Ge, Val: value.NewInt(4)}
	either := &expr.Or{Preds: []expr.Predicate{colSide, rowSide}}
	preds := []expr.Predicate{
		nil,
		colSide,
		rowSide,
		&expr.And{Preds: []expr.Predicate{colSide, rowSide, &expr.Between{Col: 0, Lo: value.NewBigint(500), Hi: value.NewBigint(5600)}}},
		either,
		&expr.And{Preds: []expr.Predicate{rowSide, &expr.Comparison{Col: 6, Op: expr.Gt, Val: value.NewInt(99)}}},
	}
	var qs []spanQuery
	for si, specs := range specSets {
		for gi, groupBy := range [][]int{nil, {1}, {1, 6}, {2}, {1, 2}} {
			for _, pred := range preds {
				qs = append(qs, spanQuery{
					q:     &query.Query{Kind: query.Aggregate, Table: "span", Aggs: specs, GroupBy: groupBy, Pred: pred},
					dense: si == 1 && gi < 3 && pred != expr.Predicate(either),
				})
			}
		}
	}
	return qs
}

func spanExec(t *testing.T, db *Database, q *query.Query) *Result {
	t.Helper()
	res, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSpanAgree runs the matrix on the oracle and on db at every pool
// size and requires equal results, the expected kernel (checkKernel: db is
// a plain vertical split, whose one spanning aggregate owns the trace's
// aggregate stage) and no PK-join miss.
func assertSpanAgree(t *testing.T, stage string, db, oracle *Database, pools []int, checkKernel bool) {
	t.Helper()
	misses := mVerticalJoinMiss.Value()
	for i, sq := range spanQueries() {
		q := sq.q
		want := sortedRows(spanExec(t, oracle, q).Rows)
		for _, p := range pools {
			db.SetPool(exec.NewPool(p))
			if got := sortedRows(spanExec(t, db, q).Rows); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s q%d (group %v, pred %v) at pool %d: diverged from the row-store oracle\ngot  (%d rows): %.400v\nwant (%d rows): %.400v",
					stage, i, q.GroupBy, q.Pred, p, len(got), got, len(want), want)
			}
		}
		if !checkKernel {
			continue
		}
		want1 := map[bool]string{true: "kernel=dense", false: "kernel=generic"}[sq.dense]
		if detail := spanDetail(t, db, q); !strings.Contains(detail, want1) {
			t.Fatalf("%s q%d (group %v, pred %v): aggregate detail %q, want %s", stage, i, q.GroupBy, q.Pred, detail, want1)
		}
	}
	if n := mVerticalJoinMiss.Value() - misses; n != 0 {
		t.Fatalf("%s: hs_vertical_join_miss_total moved by %d", stage, n)
	}
}

// spanDetail returns the aggregate stage's detail of q under EXPLAIN
// ANALYZE.
func spanDetail(t *testing.T, db *Database, q *query.Query) string {
	t.Helper()
	ex, err := db.ExplainAnalyzeContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	_, detail, _ := explainStage(t, ex, "aggregate")
	return detail
}

// spanProbes returns the keys a spanning aggregate probed and those the
// positional guess resolved, from its aggregate stage's detail.
func spanProbes(t *testing.T, db *Database, q *query.Query) (probed, guessed int64) {
	t.Helper()
	for _, kv := range strings.Fields(spanDetail(t, db, q)) {
		fmt.Sscanf(kv, "probe_rows=%d", &probed)
		fmt.Sscanf(kv, "probe_guessed=%d", &guessed)
	}
	return probed, guessed
}

// TestVerticalSpanningAggregate runs the matrix through inserts, a merge,
// deletes and updates, at pool sizes 1 to 8, with the keys inserted in
// ascending, shuffled and descending order. On the plain vertical split it
// also checks that the positional guess resolves every key of a freshly
// merged table, and that the PK index takes the keys it misses once
// tombstones break the run of slots.
func TestVerticalSpanningAggregate(t *testing.T) {
	orders := []struct {
		name  string
		pools []int
	}{{"ascending", []int{1, 2, 3, 4, 8}}, {"shuffled", []int{8}}, {"descending", []int{3}}}
	if raceEnabled { // one pool size that adds helper concurrency; key order is not concurrency
		orders = orders[:1]
		orders[0].pools = []int{8}
	}
	for _, l := range spanLayouts() {
		t.Run(l.name, func(t *testing.T) {
			for _, o := range orders {
				t.Run(o.name, func(t *testing.T) {
					t.Parallel()
					spanningWall(t, l, o.name, o.pools, l.name == "vertical")
				})
			}
		})
	}
}

// spanningWall loads layout l and the oracle with the keys in the given
// order and asserts the matrix at every stage; plain marks the plain
// vertical split, whose trace names the spanning aggregate's probes.
func spanningWall(t *testing.T, l parLayout, order string, pools []int, plain bool) {
	db, oracle := New(), New()
	if err := db.CreateTableWithLayout(spanSchema(), l.store, l.spec); err != nil {
		t.Fatal(err)
	}
	if err := oracle.CreateTable(spanSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	both := func(q *query.Query) {
		t.Helper()
		if a, b := spanExec(t, db, q).Affected, spanExec(t, oracle, q).Affected; a != b {
			t.Fatalf("%v affected %d rows, oracle %d", q.Kind, a, b)
		}
	}
	rng := rand.New(rand.NewSource(11))
	insert := func(lo, hi int64) {
		t.Helper()
		ids := make([]int64, 0, hi-lo)
		for id := lo; id < hi; id++ {
			ids = append(ids, id)
		}
		switch order {
		case "shuffled":
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		case "descending":
			slices.Reverse(ids)
		}
		rows := make([][]value.Value, 0, len(ids))
		for _, id := range ids {
			rows = append(rows, spanRow(rng, id))
		}
		both(&query.Query{Kind: query.Insert, Table: "span", Rows: rows})
	}
	// The dense kernel's shape: group on the column side, SUM the row side.
	dense := &query.Query{Kind: query.Aggregate, Table: "span",
		Aggs: []agg.Spec{{Func: agg.Sum, Col: 3}, {Func: agg.Avg, Col: 4}}, GroupBy: []int{1}}
	insert(0, spanRows-1000)
	if err := db.Compact("span"); err != nil {
		t.Fatal(err)
	}
	assertSpanAgree(t, "main only", db, oracle, pools, plain)
	if plain {
		if probed, guessed := spanProbes(t, db, dense); probed != spanRows-1000 || guessed != probed {
			t.Fatalf("merged split: %d keys probed, %d guessed; want all %d by the guess", probed, guessed, spanRows-1000)
		}
	}

	insert(spanRows-1000, spanRows)
	assertSpanAgree(t, "rows in the delta", db, oracle, pools, plain)

	both(&query.Query{Kind: query.Delete, Table: "span",
		Pred: &expr.Between{Col: 0, Lo: value.NewBigint(1000), Hi: value.NewBigint(1400)}})
	both(&query.Query{Kind: query.Delete, Table: "span",
		Pred: &expr.Comparison{Col: 5, Op: expr.Eq, Val: value.NewInt(9)}})
	assertSpanAgree(t, "tombstones", db, oracle, pools, plain)
	if plain {
		if probed, guessed := spanProbes(t, db, dense); guessed >= probed {
			t.Fatalf("tombstones: all %d keys guessed, the PK index fallback never ran", probed)
		}
	}

	// qty lives in the column partition: the update migrates main rows to
	// its delta. amt lives in the row partition: the update re-appends the
	// row partition's slots as well.
	both(&query.Query{Kind: query.Update, Table: "span",
		Pred: &expr.Between{Col: 0, Lo: value.NewBigint(2000), Hi: value.NewBigint(2600)},
		Set:  map[int]value.Value{4: value.NewDouble(12345.75)}})
	both(&query.Query{Kind: query.Update, Table: "span",
		Pred: &expr.Between{Col: 0, Lo: value.NewBigint(3000), Hi: value.NewBigint(3300)},
		Set:  map[int]value.Value{3: value.Null(value.Double), 4: value.NewDouble(0.5)}})
	both(&query.Query{Kind: query.Update, Table: "span",
		Pred: &expr.Comparison{Col: 2, Op: expr.Eq, Val: value.NewInt(3)},
		Set:  map[int]value.Value{3: value.NewDouble(7.25)}})
	assertSpanAgree(t, "updated rows re-appended", db, oracle, pools, plain)

	if err := db.Compact("span"); err != nil {
		t.Fatal(err)
	}
	assertSpanAgree(t, "after compact", db, oracle, pools, plain)

	empty := spanExec(t, db, &query.Query{Kind: query.Aggregate, Table: "span",
		Aggs: []agg.Spec{{Func: agg.Sum, Col: 3}, {Func: agg.Avg, Col: 4}}, GroupBy: []int{1},
		Pred: &expr.Comparison{Col: 5, Op: expr.Gt, Val: value.NewInt(99)}})
	if len(empty.Rows) != 0 {
		t.Fatalf("empty grouped result has %d rows", len(empty.Rows))
	}
}

// TestVerticalSpanningAggregateStops fires the Stop hook in the middle of
// a spanning scan: the operator must come back promptly with the pool's
// helper slots released, and the engine must surface the cancellation
// instead of the partial result.
func TestVerticalSpanningAggregateStops(t *testing.T) {
	v, err := newStorage(spanSchema(), catalog.Partitioned, &catalog.PartitionSpec{Vertical: spanVertical()})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40_000
	rng := rand.New(rand.NewSource(3))
	rows := make([][]value.Value, 0, n)
	for id := int64(0); id < n; id++ {
		rows = append(rows, spanRow(rng, id))
	}
	if err := v.Upsert(rows); err != nil {
		t.Fatal(err)
	}
	v.Compact()
	specs := []agg.Spec{{Func: agg.Count, Col: -1}, {Func: agg.Sum, Col: 3}, {Func: agg.Sum, Col: 4}}

	pool := exec.NewPool(4)
	var polls atomic.Int64
	ex := &exec.Ctx{Pool: pool, Stop: func() bool { return polls.Add(1) > 6 }}
	res := v.Aggregate(specs, []int{1}, nil, ex)
	if !ex.Stopped() {
		t.Fatal("stop hook never fired")
	}
	var counted int64
	for _, g := range res.Groups {
		counted += g.Accs[0].Final(agg.Count).Int()
	}
	if counted >= n {
		t.Errorf("stopped aggregate still visited all %d rows", counted)
	}
	if pool.Stats().InUse != 0 {
		t.Errorf("%d pool slots still held after a stopped aggregate", pool.Stats().InUse)
	}
	// The same storage still answers in full afterwards.
	res = v.Aggregate(specs, nil, nil, &exec.Ctx{Pool: pool})
	if got := res.Global().Accs[0].Final(agg.Count).Int(); got != n {
		t.Errorf("COUNT(*) after a stopped run = %d, want %d", got, n)
	}

	db := New()
	if err := db.CreateTableWithLayout(spanSchema(), catalog.Partitioned, &catalog.PartitionSpec{Vertical: spanVertical()}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "span", Rows: rows}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	SetScanStartedHook(func(context.Context, string) { cancel() })
	defer SetScanStartedHook(nil)
	if _, err := db.ExecContext(ctx, &query.Query{Kind: query.Aggregate, Table: "span", Aggs: specs, GroupBy: []int{1}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled spanning aggregate returned %v, want context.Canceled", err)
	}
}

// tpTable is olap_scan's tp, shaped like workload.StandardTable (which
// this package cannot import): a key, 12 keyfigures in [0, 100) in steps of
// 1/den and 17 filter and group columns, n rows; the vertical split puts k0
// and k1 in the row partition and the rest in the column partition.
func tpTable(n, den int) (*schema.Table, *catalog.VerticalSpec, [][]value.Value) {
	cols := []schema.Column{{Name: "id", Type: value.Bigint}}
	for i := 0; i < 12; i++ {
		cols = append(cols, schema.Column{Name: fmt.Sprintf("k%d", i), Type: value.Double})
	}
	for i := 0; i < 17; i++ {
		cols = append(cols, schema.Column{Name: fmt.Sprintf("a%d", i), Type: value.Integer})
	}
	colCols := []int{0}
	for c := 3; c < len(cols); c++ {
		colCols = append(colCols, c)
	}
	rng := rand.New(rand.NewSource(2012))
	rows := make([][]value.Value, 0, n)
	for id := int64(0); id < int64(n); id++ {
		row := []value.Value{value.NewBigint(id)}
		for i := 0; i < 12; i++ {
			row = append(row, value.NewDouble(float64(rng.Intn(100*den))/float64(den)))
		}
		for i := 0; i < 17; i++ {
			row = append(row, value.NewInt(rng.Int63n(20)))
		}
		rows = append(rows, row)
	}
	return schema.MustNew("tp", cols, "id"), &catalog.VerticalSpec{RowCols: []int{0, 1, 2}, ColCols: colCols}, rows
}

// tpGroupPart is olap_scan's group_part: GROUP BY g1, SUM(k0), AVG(k3).
func tpGroupPart() *query.Query {
	return &query.Query{Kind: query.Aggregate, Table: "tp", GroupBy: []int{23},
		Aggs: []agg.Spec{{Func: agg.Sum, Col: 1}, {Func: agg.Avg, Col: 4}}}
}

// TestVerticalSpanningTPLayout runs group_part and its neighbours on tp in
// the layout olap_scan advises — the newest tenth whole in the row store,
// the rest split vertically — at pool sizes 1 to 8 against a row-store
// oracle. The cold side's spanning aggregate must run on the dense kernel
// with every key resolved by the positional guess.
func TestVerticalSpanningTPLayout(t *testing.T) {
	const n = 30_000
	sch, vert, rows := tpTable(n, 4) // quarters: every sum exact, as spanRow's
	db, oracle := New(), New()
	if err := db.CreateTableWithLayout(sch, catalog.Partitioned, &catalog.PartitionSpec{
		Horizontal: &catalog.HorizontalSpec{SplitCol: 0, SplitVal: value.NewBigint(n * 9 / 10),
			HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore},
		Vertical: vert,
	}); err != nil {
		t.Fatal(err)
	}
	if err := oracle.CreateTable(sch, catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Database{db, oracle} {
		spanExec(t, d, &query.Query{Kind: query.Insert, Table: "tp", Rows: rows})
		if err := d.Compact("tp"); err != nil {
			t.Fatal(err)
		}
	}
	queries := []*query.Query{tpGroupPart(),
		{Kind: query.Aggregate, Table: "tp", GroupBy: []int{20}, Aggs: []agg.Spec{{Func: agg.Count, Col: -1}, {Func: agg.Sum, Col: 2}, {Func: agg.Min, Col: 5}},
			Pred: &expr.Comparison{Col: 14, Op: expr.Lt, Val: value.NewInt(7)}},
		{Kind: query.Aggregate, Table: "tp", Aggs: []agg.Spec{{Func: agg.Avg, Col: 1}, {Func: agg.Sum, Col: 12}},
			Pred: &expr.Comparison{Col: 2, Op: expr.Ge, Val: value.NewDouble(50)}},
	}
	pools := []int{1, 2, 3, 8}
	if raceEnabled {
		pools = []int{2, 8}
	}
	misses := mVerticalJoinMiss.Value()
	for i, q := range queries {
		want := sortedRows(spanExec(t, oracle, q).Rows)
		for _, p := range pools {
			db.SetPool(exec.NewPool(p))
			if got := sortedRows(spanExec(t, db, q).Rows); !reflect.DeepEqual(got, want) {
				t.Fatalf("q%d at pool %d: diverged from the row-store oracle\ngot  %.300v\nwant %.300v", i, p, got, want)
			}
		}
	}
	if moved := mVerticalJoinMiss.Value() - misses; moved != 0 {
		t.Fatalf("hs_vertical_join_miss_total moved by %d", moved)
	}
	detail := spanDetail(t, db, tpGroupPart())
	for _, want := range []string{"kernel=dense", "probe_rows=27000", "probe_guessed=27000", "probe_misses=0"} {
		if !strings.Contains(detail, want) {
			t.Errorf("group_part aggregate detail %q missing %q", detail, want)
		}
	}
}

// BenchmarkVerticalSpanningAggregate is the kernel-level view of the
// benchmark's group_part class, without TCP: GROUP BY g1, SUM(k0),
// AVG(k3) over 27 k rows of tp (tpTable) — k0 and k1 in the row partition
// and the rest in the column partition — beside the same aggregate on an
// unpartitioned column store.
func BenchmarkVerticalSpanningAggregate(b *testing.B) {
	const n = 27_000
	sch, vert, rows := tpTable(n, 100)
	layouts := []struct {
		name  string
		store catalog.StoreKind
		spec  *catalog.PartitionSpec
	}{
		{"vertical", catalog.Partitioned, &catalog.PartitionSpec{Vertical: vert}},
		{"column", catalog.ColumnStore, nil},
	}
	q := tpGroupPart()
	ex := &exec.Ctx{Pool: exec.NewPool(0)}
	for _, lay := range layouts {
		l, err := newStorage(sch, lay.store, lay.spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Upsert(rows); err != nil {
			b.Fatal(err)
		}
		l.Compact()
		b.Run(lay.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := len(l.Aggregate(q.Aggs, q.GroupBy, nil, ex).Groups); got != 20 {
					b.Fatalf("%d groups, want 20", got)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}
