package rowstore

import (
	"fmt"
	"testing"
	"testing/quick"

	"hybridstore/internal/agg"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

func testSchema(t testing.TB) *schema.Table {
	t.Helper()
	return schema.MustNew("items",
		[]schema.Column{
			{Name: "id", Type: value.Bigint},
			{Name: "grp", Type: value.Integer},
			{Name: "amount", Type: value.Double},
			{Name: "note", Type: value.Varchar, Nullable: true},
		}, "id")
}

func mkRow(id int64, grp int64, amount float64, note string) []value.Value {
	return []value.Value{value.NewBigint(id), value.NewInt(grp), value.NewDouble(amount), value.NewVarchar(note)}
}

func loaded(t *testing.T, n int) *Table {
	t.Helper()
	tb := New(testSchema(t))
	rows := make([][]value.Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, mkRow(int64(i), int64(i%5), float64(i), fmt.Sprintf("n%d", i)))
	}
	if err := tb.Insert(rows); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestInsertAndRows(t *testing.T) {
	tb := loaded(t, 10)
	if tb.Rows() != 10 {
		t.Errorf("Rows = %d", tb.Rows())
	}
	if tb.Value(3, 0).Int() != 3 || tb.Value(3, 2).Double() != 3 {
		t.Errorf("row 3 = %v %v", tb.Value(3, 0), tb.Value(3, 2))
	}
	if !tb.valid[3] {
		t.Error("row 3 should be valid")
	}
	if tb.Schema().Name != "items" {
		t.Error("Schema accessor broken")
	}
}

func TestInsertValidates(t *testing.T) {
	tb := New(testSchema(t))
	bad := []value.Value{value.NewInt(1), value.NewInt(1), value.NewDouble(1), value.NewVarchar("")}
	if err := tb.Insert([][]value.Value{bad}); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestPKUniqueness(t *testing.T) {
	tb := loaded(t, 5)
	err := tb.Insert([][]value.Value{mkRow(3, 0, 0, "dup")})
	if err == nil {
		t.Fatal("duplicate PK accepted")
	}
	if tb.Rows() != 5 {
		t.Errorf("failed insert changed row count: %d", tb.Rows())
	}
}

func TestLookupPK(t *testing.T) {
	tb := loaded(t, 100)
	rid, ok := tb.LookupPK([]value.Value{value.NewBigint(42)})
	if !ok || tb.Value(rid, 0).Int() != 42 {
		t.Errorf("LookupPK(42) = %d, %v", rid, ok)
	}
	if _, ok := tb.LookupPK([]value.Value{value.NewBigint(1000)}); ok {
		t.Error("missing key found")
	}
	if _, ok := tb.LookupPK(nil); ok {
		t.Error("arity mismatch should miss")
	}
}

func TestScanFull(t *testing.T) {
	tb := loaded(t, 20)
	count := 0
	tb.Scan(nil, func(rid int, row []value.Value) bool {
		count++
		return true
	})
	if count != 20 {
		t.Errorf("full scan visited %d", count)
	}
}

func TestScanPredicate(t *testing.T) {
	tb := loaded(t, 20)
	pred := &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(2)}
	ids := []int64{}
	tb.Scan(pred, func(rid int, row []value.Value) bool {
		ids = append(ids, row[0].Int())
		return true
	})
	if len(ids) != 4 { // ids 2,7,12,17
		t.Errorf("matched %v", ids)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tb := loaded(t, 20)
	count := 0
	tb.Scan(nil, func(rid int, row []value.Value) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestScanUsesPKIndex(t *testing.T) {
	tb := loaded(t, 100)
	pred := &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(77)}
	visited := 0
	tb.Scan(pred, func(rid int, row []value.Value) bool {
		visited++
		return true
	})
	if visited != 1 {
		t.Errorf("PK point scan visited %d rows", visited)
	}
	// Missing PK: index path returns nothing rather than scanning.
	pred = &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(9999)}
	visited = 0
	tb.Scan(pred, func(rid int, row []value.Value) bool {
		visited++
		return true
	})
	if visited != 0 {
		t.Errorf("missing PK visited %d rows", visited)
	}
}

func TestSecondaryIndex(t *testing.T) {
	tb := loaded(t, 50)
	if _, ok := tb.secondary[1]; ok {
		t.Error("no index yet on grp")
	}
	tb.CreateIndex(1)
	tb.CreateIndex(1) // idempotent
	if _, ok := tb.secondary[1]; !ok || len(tb.secondary) != 1 {
		t.Error("index not registered")
	}
	pred := &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(3)}
	got := 0
	tb.Scan(pred, func(rid int, row []value.Value) bool {
		if row[1].Int() != 3 {
			t.Errorf("index returned wrong row %v", row)
		}
		got++
		return true
	})
	if got != 10 {
		t.Errorf("index scan matched %d", got)
	}
}

// aggregate folds the rows of tb matching pred the way the engine
// aggregates a row table: the generic hash fold over its block scan.
func aggregate(tb *Table, specs []agg.Spec, groupBy []int, pred expr.Predicate) *agg.Result {
	res := agg.NewResult(specs, groupBy)
	res.SetOutputTypes(tb.Schema().ColTypes())
	res.Fold(1, func(cols []int) exec.Blocks { return tb.Blocks(pred, cols, nil) })
	return res
}

func TestAggregateGlobal(t *testing.T) {
	tb := loaded(t, 10) // amounts 0..9
	res := aggregate(tb, []agg.Spec{{Func: agg.Sum, Col: 2}, {Func: agg.Count, Col: -1}}, nil, nil)
	rows := res.Rows()
	if rows[0][0].Double() != 45 {
		t.Errorf("SUM = %v", rows[0][0])
	}
	if rows[0][1].Int() != 10 {
		t.Errorf("COUNT = %v", rows[0][1])
	}
}

func TestAggregateGrouped(t *testing.T) {
	tb := loaded(t, 10)
	res := aggregate(tb, []agg.Spec{{Func: agg.Count, Col: -1}}, []int{1}, nil)
	if len(res.Groups) != 5 {
		t.Errorf("groups = %d", len(res.Groups))
	}
	for _, row := range res.Rows() {
		if row[1].Int() != 2 {
			t.Errorf("group %v count = %v", row[0], row[1])
		}
	}
}

func TestAggregateWithPredicate(t *testing.T) {
	tb := loaded(t, 10)
	pred := &expr.Comparison{Col: 2, Op: expr.Ge, Val: value.NewDouble(5)}
	res := aggregate(tb, []agg.Spec{{Func: agg.Min, Col: 2}}, nil, pred)
	if got := res.Rows()[0][0].Double(); got != 5 {
		t.Errorf("MIN = %v", got)
	}
}

func TestUpdate(t *testing.T) {
	tb := loaded(t, 10)
	pred := &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(0)}
	n, err := tb.Update(pred, map[int]value.Value{2: value.NewDouble(-1)})
	if err != nil || n != 2 {
		t.Fatalf("Update = %d, %v", n, err)
	}
	count := 0
	tb.Scan(&expr.Comparison{Col: 2, Op: expr.Eq, Val: value.NewDouble(-1)}, func(rid int, row []value.Value) bool {
		count++
		return true
	})
	if count != 2 {
		t.Errorf("updated rows visible: %d", count)
	}
}

func TestUpdateValidates(t *testing.T) {
	tb := loaded(t, 5)
	if _, err := tb.Update(nil, map[int]value.Value{2: value.NewInt(1)}); err == nil {
		t.Error("type mismatch accepted")
	}
	if _, err := tb.Update(nil, map[int]value.Value{99: value.NewInt(1)}); err == nil {
		t.Error("out-of-range column accepted")
	}
	if _, err := tb.Update(nil, map[int]value.Value{0: value.Null(value.Bigint)}); err == nil {
		t.Error("NULL into NOT NULL accepted")
	}
}

func TestUpdatePKMaintainsIndex(t *testing.T) {
	tb := loaded(t, 10)
	pred := &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(3)}
	n, err := tb.Update(pred, map[int]value.Value{0: value.NewBigint(300)})
	if err != nil || n != 1 {
		t.Fatalf("update PK: %d, %v", n, err)
	}
	if _, ok := tb.LookupPK([]value.Value{value.NewBigint(3)}); ok {
		t.Error("old PK still indexed")
	}
	rid, ok := tb.LookupPK([]value.Value{value.NewBigint(300)})
	if !ok || tb.Value(rid, 0).Int() != 300 {
		t.Error("new PK not indexed")
	}
}

func TestUpdateMaintainsSecondaryIndex(t *testing.T) {
	tb := loaded(t, 10)
	tb.CreateIndex(1)
	pred := &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(2)} // grp was 2
	if _, err := tb.Update(pred, map[int]value.Value{1: value.NewInt(99)}); err != nil {
		t.Fatal(err)
	}
	count := 0
	tb.Scan(&expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(99)}, func(rid int, row []value.Value) bool {
		count++
		return true
	})
	if count != 1 {
		t.Errorf("index lookup after update found %d", count)
	}
	count = 0
	tb.Scan(&expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(2)}, func(rid int, row []value.Value) bool {
		count++
		return true
	})
	if count != 1 { // id 7 remains in grp 2
		t.Errorf("old index entries wrong: %d", count)
	}
}

func TestDelete(t *testing.T) {
	tb := loaded(t, 10)
	n := deleteWhere(tb, &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(1)})
	if n != 2 || tb.Rows() != 8 {
		t.Errorf("Delete = %d, Rows = %d", n, tb.Rows())
	}
	if _, ok := tb.LookupPK([]value.Value{value.NewBigint(1)}); ok {
		t.Error("deleted row still in PK index")
	}
	count := 0
	tb.Scan(nil, func(rid int, row []value.Value) bool { count++; return true })
	if count != 8 {
		t.Errorf("scan sees %d rows", count)
	}
	// Re-inserting the deleted key is allowed.
	if err := tb.Insert([][]value.Value{mkRow(1, 1, 1, "back")}); err != nil {
		t.Errorf("re-insert after delete: %v", err)
	}
}

func TestCompact(t *testing.T) {
	tb := loaded(t, 10)
	tb.CreateIndex(1)
	deleteWhere(tb, &expr.Comparison{Col: 0, Op: expr.Lt, Val: value.NewBigint(5)})
	if got := tb.Compact(); got != 5 {
		t.Errorf("Compact reclaimed %d", got)
	}
	if tb.Rows() != 5 || len(tb.valid) != 5 {
		t.Errorf("after compact: rows=%d cap=%d", tb.Rows(), len(tb.valid))
	}
	rid, ok := tb.LookupPK([]value.Value{value.NewBigint(7)})
	if !ok || tb.Value(rid, 0).Int() != 7 {
		t.Error("PK index broken after compact")
	}
	got := 0
	tb.Scan(&expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(2)}, func(rid int, row []value.Value) bool {
		got++
		return true
	})
	if got != 1 { // only id 7 left in grp 2
		t.Errorf("secondary index after compact matched %d", got)
	}
	if tb.Compact() != 0 {
		t.Error("second compact should be a no-op")
	}
}

func TestMemoryBytes(t *testing.T) {
	tb := loaded(t, 4)
	if tb.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive")
	}
	before := tb.MemoryBytes()
	deleteWhere(tb, &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(0)})
	if tb.MemoryBytes() >= before {
		t.Error("deleting should shrink accounted memory")
	}
}

// Property: insert then PK lookup returns the inserted tuple, for arbitrary
// key sets.
func TestInsertLookupProperty(t *testing.T) {
	f := func(keys []int64) bool {
		tb := New(schema.MustNew("t", []schema.Column{
			{Name: "id", Type: value.Bigint},
			{Name: "v", Type: value.Integer},
		}, "id"))
		seen := map[int64]bool{}
		for i, k := range keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			if err := tb.Insert([][]value.Value{{value.NewBigint(k), value.NewInt(int64(i))}}); err != nil {
				return false
			}
		}
		for k := range seen {
			rid, ok := tb.LookupPK([]value.Value{value.NewBigint(k)})
			if !ok || tb.Value(rid, 0).Int() != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUpdatePKDuplicateRejected(t *testing.T) {
	tb := loaded(t, 10)
	// New key collides with an existing row: the statement must fail
	// atomically — no row mutated, both index entries intact.
	n, err := tb.Update(&expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(3)},
		map[int]value.Value{0: value.NewBigint(5), 2: value.NewDouble(999)})
	if err == nil {
		t.Fatalf("duplicate-PK update succeeded (%d rows)", n)
	}
	if tb.Rows() != 10 {
		t.Fatalf("rows = %d, want 10", tb.Rows())
	}
	rid, ok := tb.LookupPK([]value.Value{value.NewBigint(3)})
	if !ok {
		t.Fatal("row 3 lost after failed update")
	}
	if got := tb.Value(rid, 2).Double(); got != 3 {
		t.Fatalf("failed update mutated amount: %v (atomicity broken)", got)
	}
	if _, ok := tb.LookupPK([]value.Value{value.NewBigint(5)}); !ok {
		t.Fatal("row 5 lost after failed update")
	}
	// Assigning one constant key to several rows is an intra-statement
	// duplicate even when no existing row carries the key.
	if _, err := tb.Update(&expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(1)},
		map[int]value.Value{0: value.NewBigint(500)}); err == nil {
		t.Fatal("multi-row constant-PK update succeeded")
	}
	if _, ok := tb.LookupPK([]value.Value{value.NewBigint(500)}); ok {
		t.Fatal("partial application of rejected update")
	}
	// A clean PK change still works and maintains the index.
	if n, err := tb.Update(&expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(3)},
		map[int]value.Value{0: value.NewBigint(300)}); err != nil || n != 1 {
		t.Fatalf("clean PK update: n=%d err=%v", n, err)
	}
	if _, ok := tb.LookupPK([]value.Value{value.NewBigint(3)}); ok {
		t.Fatal("old key still resolves")
	}
	if _, ok := tb.LookupPK([]value.Value{value.NewBigint(300)}); !ok {
		t.Fatal("new key does not resolve")
	}
	// Updating a row's PK to its own value is not a collision.
	if n, err := tb.Update(&expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(7)},
		map[int]value.Value{0: value.NewBigint(7), 2: value.NewDouble(70)}); err != nil || n != 1 {
		t.Fatalf("self-assignment: n=%d err=%v", n, err)
	}
}

func TestInsertBatchAtomic(t *testing.T) {
	tb := loaded(t, 5)
	// Batch whose last row collides with an existing key: nothing from
	// the batch may remain.
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
	// Batch with an internal duplicate.
	err = tb.Insert([][]value.Value{mkRow(200, 0, 1, "x"), mkRow(200, 0, 2, "y")})
	if err == nil {
		t.Fatal("intra-batch duplicate accepted")
	}
	if tb.Rows() != 5 {
		t.Fatalf("rows = %d after intra-dup batch, want 5", tb.Rows())
	}
}

// deleteWhere deletes the rows matching pred by key, as a transaction's
// fold does, and returns how many it deleted.
func deleteWhere(tb *Table, pred expr.Predicate) int {
	var keys [][]value.Value
	tb.Scan(pred, func(_ int, row []value.Value) bool {
		keys = append(keys, tb.Schema().PKValues(row))
		return true
	})
	for _, key := range keys {
		tb.DeletePK(key)
	}
	return len(keys)
}
