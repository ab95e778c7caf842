package colstore

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/rowstore"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

func testSchema() *schema.Table {
	return schema.MustNew("items",
		[]schema.Column{
			{Name: "id", Type: value.Bigint},
			{Name: "grp", Type: value.Integer},
			{Name: "amount", Type: value.Double},
			{Name: "note", Type: value.Varchar, Nullable: true},
		}, "id")
}

func mkRow(id, grp int64, amount float64, note string) []value.Value {
	return []value.Value{value.NewBigint(id), value.NewInt(grp), value.NewDouble(amount), value.NewVarchar(note)}
}

func loaded(t *testing.T, n int) *Table {
	t.Helper()
	tb := New(testSchema())
	rows := make([][]value.Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, mkRow(int64(i), int64(i%5), float64(i), fmt.Sprintf("n%d", i%7)))
	}
	if err := tb.Insert(rows); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestInsertAndGet(t *testing.T) {
	tb := loaded(t, 10)
	if tb.Rows() != 10 {
		t.Errorf("Rows = %d", tb.Rows())
	}
	row := tb.Get(3)
	if row[0].Int() != 3 || row[2].Double() != 3 {
		t.Errorf("Get(3) = %v", row)
	}
	if tb.Schema().Name != "items" {
		t.Error("Schema accessor broken")
	}
	if !tb.liveSet.Get(3) {
		t.Error("row 3 not live")
	}
}

func TestInsertValidatesAndChecksPK(t *testing.T) {
	tb := loaded(t, 5)
	if err := tb.Insert([][]value.Value{{value.NewInt(1)}}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := tb.Insert([][]value.Value{mkRow(3, 0, 0, "dup")}); err == nil {
		t.Error("duplicate PK accepted")
	}
	if tb.Rows() != 5 {
		t.Errorf("rows after failures = %d", tb.Rows())
	}
}

func TestLookupPK(t *testing.T) {
	tb := loaded(t, 100)
	rid, ok := tb.LookupPK([]value.Value{value.NewBigint(42)})
	if !ok || tb.Get(rid)[0].Int() != 42 {
		t.Errorf("LookupPK = %d, %v", rid, ok)
	}
	if _, ok := tb.LookupPK([]value.Value{value.NewBigint(4200)}); ok {
		t.Error("missing key found")
	}
}

func TestMergeCompactsAndPreservesData(t *testing.T) {
	tb := loaded(t, 50)
	if tb.DeltaRows() != 50 {
		t.Errorf("delta = %d before merge", tb.DeltaRows())
	}
	tb.Merge()
	if tb.DeltaRows() != 0 || tb.Rows() != 50 {
		t.Errorf("after merge: delta=%d rows=%d", tb.DeltaRows(), tb.Rows())
	}
	for i := 0; i < 50; i++ {
		rid, ok := tb.LookupPK([]value.Value{value.NewBigint(int64(i))})
		if !ok {
			t.Fatalf("key %d lost after merge", i)
		}
		if got := tb.Get(rid)[2].Double(); got != float64(i) {
			t.Fatalf("value for %d = %v", i, got)
		}
	}
	// Merge with nothing to do is a no-op: it builds no new dictionary.
	dict := tb.cols[2].mainDict
	tb.Merge()
	if tb.cols[2].mainDict != dict {
		t.Error("no-op merge rebuilt the main fragment")
	}
}

func TestAutoMerge(t *testing.T) {
	tb := New(testSchema())
	batch := make([][]value.Value, 0, 1000)
	for i := 0; i < 10000; i++ {
		batch = append(batch, mkRow(int64(i), int64(i%5), float64(i), "x"))
		if len(batch) == 1000 {
			if err := tb.Insert(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if tb.DeltaRows() > mergeThreshold*10000 {
		t.Errorf("auto-merge never triggered: %d delta rows", tb.DeltaRows())
	}
	if tb.Rows() != 10000 {
		t.Errorf("rows = %d", tb.Rows())
	}
}

func TestScanPredicateFastPath(t *testing.T) {
	tb := loaded(t, 100)
	tb.Merge() // half the data in main...
	if err := tb.Insert([][]value.Value{mkRow(100, 2, 100, "d"), mkRow(101, 3, 101, "d")}); err != nil {
		t.Fatal(err)
	}
	pred := &expr.And{Preds: []expr.Predicate{
		&expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(2)},
		&expr.Comparison{Col: 2, Op: expr.Ge, Val: value.NewDouble(50)},
	}}
	var ids []int64
	for _, r := range scanRows(tb, pred, []int{0}) {
		ids = append(ids, r.vals[0].Int())
	}
	// grp==2: ids 2,7,...,97 and 100; amount>=50: 52,57,...,97,100
	want := 11
	if len(ids) != want {
		t.Errorf("matched %d ids: %v", len(ids), ids)
	}
}

func TestScanBetween(t *testing.T) {
	tb := loaded(t, 50)
	tb.Merge()
	pred := &expr.Between{Col: 0, Lo: value.NewBigint(10), Hi: value.NewBigint(19)}
	if count := len(scanRows(tb, pred, []int{0})); count != 10 {
		t.Errorf("BETWEEN matched %d", count)
	}
}

func TestScanFallbackOr(t *testing.T) {
	tb := loaded(t, 30)
	pred := &expr.Or{Preds: []expr.Predicate{
		&expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(3)},
		&expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(7)},
	}}
	if count := len(scanRows(tb, pred, nil)); count != 2 {
		t.Errorf("OR matched %d", count)
	}
}

func TestScanPKShortcut(t *testing.T) {
	tb := loaded(t, 100)
	pred := &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(55)}
	var got []int64
	for _, r := range scanRows(tb, pred, []int{0, 2}) {
		got = append(got, r.vals[0].Int())
	}
	if len(got) != 1 || got[0] != 55 {
		t.Errorf("PK scan = %v", got)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tb := loaded(t, 3*blockRows)
	batches, rows := 0, 0
	tb.ScanBatches(nil, nil, func(rids []int32, _ [][]value.Value) bool {
		batches++
		rows += len(rids)
		return false
	})
	if batches != 1 || rows != blockRows {
		t.Errorf("early stop visited %d batches, %d rows", batches, rows)
	}
}

// scanned is one row of a scan: its rid and the requested columns.
type scanned struct {
	rid  int
	vals []value.Value
}

// scanRows collects what ScanBatches streams, a row at a time.
func scanRows(tb *Table, pred expr.Predicate, cols []int) []scanned {
	var out []scanned
	tb.ScanBatches(pred, cols, func(rids []int32, colVals [][]value.Value) bool {
		for k, rid := range rids {
			r := scanned{rid: int(rid), vals: make([]value.Value, len(colVals))}
			for j := range colVals {
				r.vals[j] = colVals[j][k]
			}
			out = append(out, r)
		}
		return true
	})
	return out
}

func TestAggregateGlobalAcrossFragments(t *testing.T) {
	tb := loaded(t, 100) // all in delta
	tb.Merge()
	// Add 10 more rows in delta so both fragments contribute.
	extra := make([][]value.Value, 0, 10)
	for i := 100; i < 110; i++ {
		extra = append(extra, mkRow(int64(i), int64(i%5), float64(i), "x"))
	}
	if err := tb.Insert(extra); err != nil {
		t.Fatal(err)
	}
	res := tb.AggregateExec([]agg.Spec{
		{Func: agg.Sum, Col: 2},
		{Func: agg.Count, Col: -1},
		{Func: agg.Min, Col: 2},
		{Func: agg.Max, Col: 2},
	}, nil, nil, nil)
	rows := res.Rows()
	wantSum := float64(109*110) / 2
	if rows[0][0].Double() != wantSum {
		t.Errorf("SUM = %v, want %v", rows[0][0], wantSum)
	}
	if rows[0][1].Int() != 110 {
		t.Errorf("COUNT = %v", rows[0][1])
	}
	if rows[0][2].Double() != 0 || rows[0][3].Double() != 109 {
		t.Errorf("MIN/MAX = %v/%v", rows[0][2], rows[0][3])
	}
}

func TestAggregateWithPredicate(t *testing.T) {
	tb := loaded(t, 100)
	tb.Merge()
	pred := &expr.Comparison{Col: 2, Op: expr.Lt, Val: value.NewDouble(10)}
	res := tb.AggregateExec([]agg.Spec{{Func: agg.Sum, Col: 2}}, nil, pred, nil)
	if got := res.Rows()[0][0].Double(); got != 45 {
		t.Errorf("filtered SUM = %v", got)
	}
}

func TestAggregateSingleGroup(t *testing.T) {
	tb := loaded(t, 100)
	tb.Merge()
	if err := tb.Insert([][]value.Value{mkRow(100, 0, 1000, "x")}); err != nil {
		t.Fatal(err)
	}
	res := tb.AggregateExec([]agg.Spec{{Func: agg.Count, Col: -1}, {Func: agg.Sum, Col: 2}}, []int{1}, nil, nil)
	if len(res.Groups) != 5 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	counts := map[int64]int64{}
	for _, row := range res.Rows() {
		counts[row[0].Int()] = row[1].Int()
	}
	if counts[0] != 21 { // 20 + the extra row
		t.Errorf("group 0 count = %d", counts[0])
	}
	for g := int64(1); g < 5; g++ {
		if counts[g] != 20 {
			t.Errorf("group %d count = %d", g, counts[g])
		}
	}
}

func TestAggregateMultiGroup(t *testing.T) {
	tb := loaded(t, 20)
	res := tb.AggregateExec([]agg.Spec{{Func: agg.Count, Col: -1}}, []int{1, 3}, nil, nil)
	// grp has 5 values, note has 7 values; with 20 rows keyed by i%5 and
	// i%7 there are 20 distinct (i%5, i%7) pairs.
	if len(res.Groups) != 20 {
		t.Errorf("multi-group count = %d", len(res.Groups))
	}
}

func TestAggregateNullHandling(t *testing.T) {
	sch := schema.MustNew("t", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "v", Type: value.Double, Nullable: true},
	}, "id")
	tb := New(sch)
	rows := [][]value.Value{
		{value.NewBigint(1), value.NewDouble(10)},
		{value.NewBigint(2), value.Null(value.Double)},
		{value.NewBigint(3), value.NewDouble(20)},
	}
	if err := tb.Insert(rows); err != nil {
		t.Fatal(err)
	}
	check := func() {
		res := tb.AggregateExec([]agg.Spec{{Func: agg.Sum, Col: 1}, {Func: agg.Count, Col: -1}}, nil, nil, nil)
		r := res.Rows()[0]
		if r[0].Double() != 30 {
			t.Errorf("SUM with NULL = %v", r[0])
		}
		if r[1].Int() != 3 {
			t.Errorf("COUNT(*) = %v", r[1])
		}
	}
	check()
	tb.Merge() // NULLs must survive the merge
	check()
}

// TestPredicateOnAllNullDelta: a value predicate on a column whose delta
// holds nothing but NULLs — an empty delta dictionary — matches none of
// them, as the first conjunct tested and behind another one.
func TestPredicateOnAllNullDelta(t *testing.T) {
	sch := schema.MustNew("t", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "v", Type: value.Integer, Nullable: true},
	}, "id")
	tb := New(sch)
	row := func(id int64, v value.Value) []value.Value { return []value.Value{value.NewBigint(id), v} }
	if err := tb.Upsert([][]value.Value{row(1, value.NewInt(7)), row(2, value.NewInt(8))}); err != nil {
		t.Fatal(err)
	}
	tb.Merge()
	if err := tb.Upsert([][]value.Value{row(3, value.Null(value.Integer)), row(4, value.Null(value.Integer))}); err != nil {
		t.Fatal(err)
	}
	id := func(c int64) *expr.Comparison { return &expr.Comparison{Col: 0, Op: expr.Ge, Val: value.NewBigint(c)} }
	v := func(op expr.CmpOp, c int64) *expr.Comparison {
		return &expr.Comparison{Col: 1, Op: op, Val: value.NewInt(c)}
	}
	for _, c := range []struct {
		pred expr.Predicate
		want int64
	}{
		{v(expr.Eq, 7), 1},
		{&expr.And{Preds: []expr.Predicate{id(2), v(expr.Le, 8)}}, 2},
		{&expr.And{Preds: []expr.Predicate{id(1), v(expr.Eq, 7)}}, 1},
	} {
		if got := scanRows(tb, c.pred, []int{0}); len(got) != 1 || got[0].vals[0].Int() != c.want {
			t.Errorf("%s: scanned %v, want the row of id %d", c.pred, got, c.want)
		}
	}
}

// upsertAmount stores key id with the given amount, as a transaction's fold
// does, and checks the image a key lookup then finds and the live count.
func upsertAmount(t *testing.T, tb *Table, id int64, amount float64) {
	t.Helper()
	rows := tb.Rows()
	if err := tb.Upsert([][]value.Value{mkRow(id, id%5, amount, "u")}); err != nil {
		t.Fatal(err)
	}
	rid, ok := tb.LookupPK([]value.Value{value.NewBigint(id)})
	if !ok || tb.Get(rid)[2].Double() != amount {
		t.Fatalf("key %d after upsert: %v", id, tb.Get(rid))
	}
	if tb.Rows() != rows {
		t.Fatalf("live rows %d -> %d", rows, tb.Rows())
	}
}

// TestUpdateInPlaceDelta upserts a key held in the delta: the new image
// replaces it there, and the merge reclaims the superseded one.
func TestUpdateInPlaceDelta(t *testing.T) {
	tb := loaded(t, 10) // all in delta
	upsertAmount(t, tb, 3, 333)
	if tb.DeltaRows() != 11 {
		t.Errorf("delta rows = %d, want 11 (10 + the new image)", tb.DeltaRows())
	}
	tb.Merge()
	if tb.DeltaRows() != 0 || tb.Rows() != 10 {
		t.Errorf("after merge: delta=%d rows=%d, want 0 and 10", tb.DeltaRows(), tb.Rows())
	}
	rid, _ := tb.LookupPK([]value.Value{value.NewBigint(3)})
	if got := tb.Get(rid)[2].Double(); got != 333 {
		t.Errorf("merged value = %v", got)
	}
}

// TestUpdateMigratesMainRow upserts a key held in the main fragment with a
// value its dictionary lacks: the row moves to the delta, and every key
// keeps exactly one live row.
func TestUpdateMigratesMainRow(t *testing.T) {
	tb := loaded(t, 10)
	tb.Merge() // everything in main
	upsertAmount(t, tb, 5, -1)
	if tb.DeltaRows() != 1 {
		t.Errorf("expected row migration to delta, delta=%d", tb.DeltaRows())
	}
	// Aggregates must see exactly one row per id.
	res := tb.AggregateExec([]agg.Spec{{Func: agg.Count, Col: -1}}, nil, nil, nil)
	if res.Rows()[0][0].Int() != 10 {
		t.Errorf("count after upsert = %v", res.Rows()[0][0])
	}
}

// TestUpdateInPlaceMainWhenValueInDict upserts a main row to a value its
// dictionary already holds. Every write goes to the delta, so the row moves
// there like any other, and the merge brings it back into main.
func TestUpdateInPlaceMainWhenValueInDict(t *testing.T) {
	tb := loaded(t, 10)
	tb.Merge()
	upsertAmount(t, tb, 2, 7) // amount 7 is in the main dictionary
	if tb.DeltaRows() != 1 {
		t.Errorf("delta rows = %d, want 1", tb.DeltaRows())
	}
	tb.Merge()
	if tb.DeltaRows() != 0 || tb.Rows() != 10 {
		t.Errorf("after merge: delta=%d rows=%d, want 0 and 10", tb.DeltaRows(), tb.Rows())
	}
	res := tb.AggregateExec([]agg.Spec{{Func: agg.Sum, Col: 2}}, nil, nil, nil)
	if got := res.Rows()[0][0].Double(); got != 45-2+7 {
		t.Errorf("SUM(amount) after merge = %v, want 50", got)
	}
}

// TestUpdatePKMaintainsIndex moves a key as a transaction's fold does:
// delete the old key, upsert the row under the new one.
func TestUpdatePKMaintainsIndex(t *testing.T) {
	tb := loaded(t, 10)
	tb.Merge()
	if !tb.DeletePK([]value.Value{value.NewBigint(4)}) {
		t.Fatal("key 4 not found")
	}
	if err := tb.Upsert([][]value.Value{mkRow(400, 4, 4, "n4")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.LookupPK([]value.Value{value.NewBigint(4)}); ok {
		t.Error("old PK still resolvable")
	}
	if _, ok := tb.LookupPK([]value.Value{value.NewBigint(400)}); !ok {
		t.Error("new PK not resolvable")
	}
}

// TestUpdateValidates rejects an upsert batch holding a bad row before
// anything of it changes.
func TestUpdateValidates(t *testing.T) {
	tb := loaded(t, 5)
	good := mkRow(1, 0, 100, "x")
	for name, bad := range map[string][]value.Value{
		"type mismatch":      {value.NewBigint(2), value.NewInt(0), value.NewInt(1), value.NewVarchar("x")},
		"NULL into NOT NULL": {value.NewBigint(2), value.NewInt(0), value.Null(value.Double), value.NewVarchar("x")},
		"short row":          {value.NewBigint(2)},
	} {
		if err := tb.Upsert([][]value.Value{good, bad}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	rid, _ := tb.LookupPK([]value.Value{value.NewBigint(1)})
	if got := tb.Get(rid)[2].Double(); got != 1 || tb.Rows() != 5 {
		t.Errorf("rejected batch changed the table: amount %v, %d rows", got, tb.Rows())
	}
}

func TestDelete(t *testing.T) {
	tb := loaded(t, 20)
	tb.Merge()
	n := 0
	for id := int64(0); id < 20; id += 5 { // the grp 0 rows
		if tb.DeletePK([]value.Value{value.NewBigint(id)}) {
			n++
		}
	}
	if tb.DeletePK([]value.Value{value.NewBigint(0)}) {
		t.Error("deleted key deleted twice")
	}
	if n != 4 || tb.Rows() != 16 {
		t.Errorf("DeletePK = %d, Rows = %d", n, tb.Rows())
	}
	if _, ok := tb.LookupPK([]value.Value{value.NewBigint(0)}); ok {
		t.Error("deleted key still resolvable")
	}
	res := tb.AggregateExec([]agg.Spec{{Func: agg.Count, Col: -1}}, nil, nil, nil)
	if res.Rows()[0][0].Int() != 16 {
		t.Errorf("count after delete = %v", res.Rows()[0][0])
	}
	// Merge reclaims tombstones.
	tb.Merge()
	if tb.Rows() != 16 {
		t.Errorf("rows after compacting merge = %d", tb.Rows())
	}
	// Re-insert of a deleted key is allowed.
	if err := tb.Insert([][]value.Value{mkRow(0, 0, 0, "back")}); err != nil {
		t.Errorf("re-insert: %v", err)
	}
}

// TestDeleteLeavesOnlyLiveKeysInIndex deletes half the keys of a merged
// table with no merge after: the PK index must hold exactly the live keys
// at once, and shrink with them.
func TestDeleteLeavesOnlyLiveKeysInIndex(t *testing.T) {
	tb := loaded(t, 2000)
	tb.Merge()
	tb.AutoMerge = false
	before := tb.IndexBytes()
	for id := int64(0); id < 2000; id += 2 {
		tb.DeletePK([]value.Value{value.NewBigint(id)})
	}
	if tb.mainRows != 2000 || tb.Rows() != 1000 {
		t.Fatalf("%d main rows (a merge ran), %d rows", tb.mainRows, tb.Rows())
	}
	if n := tb.pkIndex.Len(); n != tb.Rows() {
		t.Errorf("the PK index holds %d keys for %d live rows", n, tb.Rows())
	}
	for id := int64(0); id < 2000; id++ {
		if _, ok := tb.LookupPK([]value.Value{value.NewBigint(id)}); ok != (id%2 == 1) {
			t.Fatalf("LookupPK(%d) = %v", id, ok)
		}
	}
	if after := tb.IndexBytes(); after >= before {
		t.Errorf("the PK index occupies %d bytes after deleting half its keys, %d before", after, before)
	}
}

// TestNoPrimaryKey writes to a table declared without a primary key, which
// is keyed by the hidden row key: duplicate declared values in both
// fragments, upserts and deletes by row key, then a merge.
func TestNoPrimaryKey(t *testing.T) {
	sch := schema.MustNew("heap", []schema.Column{{Name: "a", Type: value.Bigint}, {Name: "b", Type: value.Integer}})
	tb := New(sch)
	row := func(rowKey int64, b int64) []value.Value {
		return []value.Value{value.NewBigint(rowKey % 10), value.NewInt(b), value.NewBigint(rowKey)}
	}
	for _, merge := range []bool{true, false} {
		rows := make([][]value.Value, 100)
		for i := range rows {
			k := int64(i + tb.Rows())
			rows[i] = row(k, k)
		}
		if err := tb.Insert(rows); err != nil {
			t.Fatal(err)
		}
		if merge {
			tb.Merge()
		}
	}
	var upd [][]value.Value
	for k := int64(3); k < 200; k += 10 { // the 20 rows with a = 3
		upd = append(upd, row(k, -1))
	}
	if err := tb.Upsert(upd); err != nil || tb.Rows() != 200 {
		t.Fatalf("upsert: %v, %d rows", err, tb.Rows())
	}
	for _, r := range upd {
		if !tb.DeletePK(r[2:]) {
			t.Fatalf("row key %v not found", r[2])
		}
	}
	tb.Merge()
	if tb.Rows() != 180 || tb.pkIndex.Len() != 180 {
		t.Fatalf("%d rows, %d keys after the merge", tb.Rows(), tb.pkIndex.Len())
	}
}

// TestKeyedPredicateTouchesOneRow answers predicates naming the whole key —
// in the main fragment, in the delta, missing, tombstoned, with a residual
// conjunct that holds and one that fails — on every read path, and requires
// the answer of the same predicate written as a key range, which the
// code-vector scan answers, with no block decoded.
func TestKeyedPredicateTouchesOneRow(t *testing.T) {
	const n = 20_000
	build := func() *Table {
		tb := loaded(t, n) // merged on insert
		if tb.DeltaRows() != 0 {
			t.Fatalf("%d delta rows after the load", tb.DeltaRows())
		}
		if err := tb.Insert([][]value.Value{mkRow(n, 1, 1, "d"), mkRow(n+1, 2, 2, "d")}); err != nil {
			t.Fatal(err)
		}
		tb.DeletePK([]value.Value{value.NewBigint(500)})
		return tb
	}
	keyed, scanned := build(), build()
	pred := func(id int64, asRange bool, grp ...int64) expr.Predicate {
		conj := []expr.Predicate{&expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(id)}}
		if asRange {
			conj[0] = &expr.Between{Col: 0, Lo: value.NewBigint(id), Hi: value.NewBigint(id)}
		}
		for _, g := range grp {
			conj = append(conj, &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(g)})
		}
		return &expr.And{Preds: conj}
	}
	read := func(tb *Table, p expr.Predicate) string {
		out := ""
		for _, r := range scanRows(tb, p, []int{0, 3}) {
			out += fmt.Sprintf("%d:%v,%v ", r.rid, r.vals[0], r.vals[1])
		}
		b, rids := tb.scanBlocks(p, []int{2}, &exec.Ctx{Pool: exec.NewPool(8)})
		b.Each(func(w, _ int, colVals [][]value.Value) bool {
			out += fmt.Sprintf("%v %v ", rids(w), colVals[0])
			return true
		})
		res := tb.AggregateExec([]agg.Spec{{Func: agg.Count, Col: -1}, {Func: agg.Sum, Col: 2}}, nil, p, nil)
		return out + fmt.Sprint(res.Rows())
	}
	for _, c := range []struct {
		name string
		id   int64
		grp  []int64
	}{
		{"main", 123, nil}, {"delta", n + 1, nil}, {"missing", 3 * n, nil}, {"tombstoned", 500, nil},
		{"residual holds", 123, []int64{3}}, {"residual fails", 123, []int64{4}},
	} {
		decoded := mBlocksDecoded.Value()
		got := read(keyed, pred(c.id, false, c.grp...))
		if d := mBlocksDecoded.Value() - decoded; d != 0 {
			t.Errorf("%s: the keyed read decoded %d blocks", c.name, d)
		}
		if want := read(scanned, pred(c.id, true, c.grp...)); got != want {
			t.Errorf("%s: keyed %q, scanned %q", c.name, got, want)
		}
		key := []value.Value{value.NewBigint(c.id)}
		if gd, wd := keyed.DeletePK(key), scanned.DeletePK(key); gd != wd {
			t.Errorf("%s: keyed delete %v, scanned %v", c.name, gd, wd)
		}
		if keyed.Rows() != scanned.Rows() || keyed.pkIndex.Len() != keyed.Rows() {
			t.Errorf("%s: %d rows and %d keys, scanned %d rows", c.name, keyed.Rows(), keyed.pkIndex.Len(), scanned.Rows())
		}
	}
}

func TestCompressionRateAndMemory(t *testing.T) {
	tb := loaded(t, 1000)
	tb.Merge()
	// grp has 5 distinct values over 1000 rows: compresses very well.
	rGrp := tb.CompressionRate(1)
	// id is unique: compresses poorly.
	rID := tb.CompressionRate(0)
	if rGrp < 0.5 {
		t.Errorf("grp compression rate = %v", rGrp)
	}
	if rGrp <= rID {
		t.Errorf("expected grp (%v) to compress better than id (%v)", rGrp, rID)
	}
	if tb.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive")
	}
	if d := distinct(tb, 1); d != 5 {
		t.Errorf("distinct grp = %d", d)
	}
}

// Regression: the raw dictionary sum (main + delta) overcounts NDV when
// delta values overlap the main dictionary or rows are deleted; the
// distinct count that statistics read through ValueRuns feeds planner
// cardinality, so it must stay within [1, Rows()].
func TestDistinctCountClampedOnSkewedColumn(t *testing.T) {
	tb := New(testSchema())
	tb.AutoMerge = false
	// Main fragment: 100 rows, grp cycles over the same 3 values.
	rows := make([][]value.Value, 0, 100)
	for i := 0; i < 100; i++ {
		rows = append(rows, mkRow(int64(i), int64(i%3), float64(i), "x"))
	}
	if err := tb.Insert(rows); err != nil {
		t.Fatal(err)
	}
	tb.Merge()
	// Delta fragment: the same 3 skewed values again — every delta
	// dictionary entry overlaps main.
	rows = rows[:0]
	for i := 100; i < 200; i++ {
		rows = append(rows, mkRow(int64(i), int64(i%3), float64(i), "x"))
	}
	if err := tb.Insert(rows); err != nil {
		t.Fatal(err)
	}
	if d := distinct(tb, 1); d < 1 || d > tb.Rows() {
		t.Fatalf("distinct grp = %d outside [1, %d]", d, tb.Rows())
	}
	// Delete almost everything: dictionaries keep their entries but the
	// estimate must not exceed the surviving rows.
	for id := int64(0); id < 198; id++ {
		tb.DeletePK([]value.Value{value.NewBigint(id)})
	}
	if live := tb.Rows(); live != 2 {
		t.Fatalf("Rows after delete = %d, want 2", live)
	}
	for col := 0; col < 4; col++ {
		if d := distinct(tb, col); d < 1 || d > 2 {
			t.Fatalf("distinct col %d = %d outside [1, 2] after mass delete", col, d)
		}
	}
}

// distinct counts col's distinct live values as statistics read them.
func distinct(tb *Table, col int) int {
	n := 0
	tb.ValueRuns(col, func(value.Value, int) { n++ })
	return n
}

// TestValueRuns checks the dictionary read-out behind statistics: every
// distinct live value once, main and delta together, with its row count.
func TestValueRuns(t *testing.T) {
	tb := loaded(t, 100)
	tb.Merge()
	if err := tb.Insert([][]value.Value{mkRow(500, 9, -50, "x"), mkRow(501, 9, 99, "x")}); err != nil {
		t.Fatal(err)
	}
	tb.DeletePK([]value.Value{value.NewBigint(0)})
	rows := map[float64]int{}
	for _, r := range scanRows(tb, nil, []int{2}) {
		rows[r.vals[0].Double()]++
	}
	lo, hi, runs := math.Inf(1), math.Inf(-1), 0
	tb.ValueRuns(2, func(v value.Value, n int) {
		runs++
		if rows[v.Double()] != n {
			t.Errorf("ValueRuns(%v) = %d rows, scan saw %d", v, n, rows[v.Double()])
		}
		lo, hi = min(lo, v.Double()), max(hi, v.Double())
	})
	if runs != len(rows) || lo != -50 || hi != 99 {
		t.Errorf("ValueRuns: %d runs over [%v, %v], scan saw %d values", runs, lo, hi, len(rows))
	}
	New(testSchema()).ValueRuns(0, func(value.Value, int) { t.Error("empty table has no runs") })
}

// Cross-validation: the column store and row store must produce identical
// results for random data, predicates and aggregations.
func TestColumnRowStoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sch := testSchema()
	cs := New(sch)
	var rows [][]value.Value
	for i := 0; i < 500; i++ {
		rows = append(rows, mkRow(int64(i), rng.Int63n(8), float64(rng.Intn(100)), fmt.Sprintf("s%d", rng.Intn(4))))
	}
	if err := cs.Insert(rows); err != nil {
		t.Fatal(err)
	}
	cs.Merge()
	for trial := 0; trial < 50; trial++ {
		var pred expr.Predicate
		switch trial % 4 {
		case 0:
			pred = &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(rng.Int63n(8))}
		case 1:
			pred = &expr.Comparison{Col: 2, Op: expr.Ge, Val: value.NewDouble(float64(rng.Intn(100)))}
		case 2:
			pred = &expr.Between{Col: 0, Lo: value.NewBigint(rng.Int63n(250)), Hi: value.NewBigint(250 + rng.Int63n(250))}
		case 3:
			pred = nil
		}
		specs := []agg.Spec{{Func: agg.Sum, Col: 2}, {Func: agg.Count, Col: -1}, {Func: agg.Min, Col: 2}, {Func: agg.Max, Col: 2}}
		var groupBy []int
		if trial%2 == 0 {
			groupBy = []int{1}
		}
		cres := cs.AggregateExec(specs, groupBy, pred, nil)
		rres := foldRows(sch, rows, specs, groupBy, pred)
		if len(cres.Groups) != len(rres.Groups) {
			t.Fatalf("trial %d: group counts differ: cs=%d rs=%d", trial, len(cres.Groups), len(rres.Groups))
		}
		csums := map[string][]value.Value{}
		for _, row := range cres.Rows() {
			key := ""
			if groupBy != nil {
				key = row[0].String()
			}
			csums[key] = row
		}
		for _, row := range rres.Rows() {
			key := ""
			if groupBy != nil {
				key = row[0].String()
			}
			crow, ok := csums[key]
			if !ok {
				t.Fatalf("trial %d: group %q missing in column store", trial, key)
			}
			for i := range row {
				if crow[i].IsNull() != row[i].IsNull() {
					t.Fatalf("trial %d: null mismatch at %d", trial, i)
				}
				if !row[i].IsNull() && crow[i].Float() != row[i].Float() {
					t.Fatalf("trial %d group %q col %d: cs=%v rs=%v", trial, key, i, crow[i], row[i])
				}
			}
		}
	}
}

// Mutation equivalence under random upserts and deletes by key.
func TestMutationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sch := testSchema()
	cs := New(sch)
	rs := rowstore.New(sch)
	var rows [][]value.Value
	live := map[int64][]value.Value{} // the rows both stores should hold, by key
	for i := 0; i < 300; i++ {
		rows = append(rows, mkRow(int64(i), rng.Int63n(5), float64(i), "x"))
		live[int64(i)] = rows[i]
	}
	if err := cs.Insert(rows); err != nil {
		t.Fatal(err)
	}
	if err := rs.Insert(rows); err != nil {
		t.Fatal(err)
	}
	cs.Merge()
	for step := 0; step < 60; step++ {
		id := rng.Int63n(300)
		switch step % 3 {
		case 0:
			row := [][]value.Value{mkRow(id, rng.Int63n(5), float64(rng.Intn(1000)), "u")}
			cerr, rerr := cs.Upsert(row), rs.Upsert(row)
			if cerr != nil || rerr != nil {
				t.Fatalf("step %d: upsert cs=%v rs=%v", step, cerr, rerr)
			}
			live[id] = row[0]
		case 1:
			key := []value.Value{value.NewBigint(id)}
			if cn, rn := cs.DeletePK(key), rs.DeletePK(key); cn != rn {
				t.Fatalf("step %d: delete mismatch cs=%v rs=%v", step, cn, rn)
			}
			delete(live, id)
		case 2:
			if step%6 == 2 {
				cs.Merge()
			}
		}
		if cs.Rows() != rs.Rows() || cs.Rows() != len(live) {
			t.Fatalf("step %d: row counts diverged cs=%d rs=%d want %d", step, cs.Rows(), rs.Rows(), len(live))
		}
	}
	specs := []agg.Spec{{Func: agg.Sum, Col: 2}}
	cres := cs.AggregateExec(specs, nil, nil, nil)
	want := foldRows(sch, slices.Collect(maps.Values(live)), specs, nil, nil)
	if cres.Rows()[0][0].Double() != want.Rows()[0][0].Double() {
		t.Fatalf("final sums diverged: cs=%v want %v", cres.Rows()[0][0], want.Rows()[0][0])
	}
}

// foldRows aggregates the rows that match pred one tuple at a time: the
// reference the column store's kernels are checked against.
func foldRows(sch *schema.Table, rows [][]value.Value, specs []agg.Spec, groupBy []int, pred expr.Predicate) *agg.Result {
	res := agg.NewResult(specs, groupBy)
	res.SetOutputTypes(sch.ColTypes())
	for _, row := range rows {
		if pred == nil || pred.Matches(row) {
			res.AddRow(row)
		}
	}
	return res
}

func TestScanEmptyCols(t *testing.T) {
	tb := loaded(t, 30)
	tb.Merge()
	// Empty (non-nil) cols streams rids without materializing values.
	if count := len(scanRows(tb, &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(2)}, []int{})); count != 6 {
		t.Errorf("empty-cols scan matched %d", count)
	}
	tb.ScanBatches(nil, []int{}, func(rids []int32, colVals [][]value.Value) bool {
		if len(colVals) != 0 {
			t.Errorf("expected no column buffers, got %d", len(colVals))
		}
		return true
	})
}

func TestUpdatePKDuplicateRejected(t *testing.T) {
	for _, merged := range []bool{false, true} {
		name := "delta"
		if merged {
			name = "main"
		}
		t.Run(name, func(t *testing.T) {
			tb := loaded(t, 10)
			if merged {
				tb.Merge()
			}
			// A key the table holds, or one twice in the batch: the insert
			// is rejected whole.
			for _, batch := range [][][]value.Value{
				{mkRow(300, 0, 0, "new"), mkRow(5, 0, 999, "dup")},
				{mkRow(500, 0, 0, "a"), mkRow(500, 1, 1, "b")},
			} {
				if err := tb.Insert(batch); err == nil {
					t.Fatalf("duplicate-PK insert %v succeeded", batch)
				}
			}
			if tb.Rows() != 10 {
				t.Fatalf("rows = %d, want 10", tb.Rows())
			}
			for _, id := range []int64{300, 500} {
				if _, ok := tb.LookupPK([]value.Value{value.NewBigint(id)}); ok {
					t.Fatalf("partial application of rejected insert: key %d", id)
				}
			}
			// An upsert of a held key replaces its row: one live row per key.
			if err := tb.Upsert([][]value.Value{mkRow(5, 0, 999, "up")}); err != nil {
				t.Fatal(err)
			}
			rid, ok := tb.LookupPK([]value.Value{value.NewBigint(5)})
			if !ok || tb.Get(rid)[2].Double() != 999 || tb.Rows() != 10 || tb.pkIndex.Len() != 10 {
				t.Fatalf("upsert of key 5: %v, %d rows, %d keys", tb.Get(rid), tb.Rows(), tb.pkIndex.Len())
			}
		})
	}
}

func TestInsertBatchAtomic(t *testing.T) {
	tb := loaded(t, 5)
	err := tb.Insert([][]value.Value{mkRow(100, 0, 1, "x"), mkRow(3, 0, 1, "y")})
	if err == nil {
		t.Fatal("colliding batch accepted")
	}
	if tb.Rows() != 5 {
		t.Fatalf("rows = %d after failed batch, want 5", tb.Rows())
	}
	if _, ok := tb.LookupPK([]value.Value{value.NewBigint(100)}); ok {
		t.Fatal("prefix of failed batch retained")
	}
	err = tb.Insert([][]value.Value{mkRow(200, 0, 1, "x"), mkRow(200, 0, 2, "y")})
	if err == nil {
		t.Fatal("intra-batch duplicate accepted")
	}
	if tb.Rows() != 5 {
		t.Fatalf("rows = %d after intra-dup batch, want 5", tb.Rows())
	}
}
