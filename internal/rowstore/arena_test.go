package rowstore

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"hybridstore/internal/expr"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// edgeValues lists, per type, the values a slot must carry bit for bit.
func edgeValues() map[value.Type][]value.Value {
	return map[value.Type][]value.Value{
		value.Integer: {value.NewInt(0), value.NewInt(-1), value.NewInt(math.MinInt32), value.NewInt(math.MaxInt32)},
		value.Bigint:  {value.NewBigint(0), value.NewBigint(math.MinInt64), value.NewBigint(math.MaxInt64)},
		value.Double: {value.NewDouble(0), value.NewDouble(math.Copysign(0, -1)), value.NewDouble(math.NaN()),
			value.NewDouble(math.Inf(-1)), value.NewDouble(math.SmallestNonzeroFloat64), value.NewDouble(-math.MaxFloat64)},
		value.Varchar: {value.NewVarchar(""), value.NewVarchar("x"), value.NewVarchar(strings.Repeat("\x00é", 1<<15))},
		value.Date:    {value.NewDate(0), value.NewDate(-719162), value.NewDate(math.MaxInt32)},
	}
}

// same reports whether the table stores v unchanged: same type, same NULL
// flag, same payload bits (NaN and -0.0 included), same string.
func same(a, b value.Value) bool {
	return a.Type() == b.Type() && a.IsNull() == b.IsNull() && a.Bits() == b.Bits() && a.Varchar() == b.Varchar()
}

func arenaSchema() *schema.Table {
	cols := []schema.Column{{Name: "id", Type: value.Bigint}}
	for _, typ := range value.Types {
		cols = append(cols, schema.Column{Name: "c" + typ.String(), Type: typ, Nullable: true})
	}
	return schema.MustNew("arena", cols, "id")
}

// checkAgainst compares every live row, through every read path, with the
// model.
func checkAgainst(t *testing.T, tb *Table, model map[int64][]value.Value, step string) {
	t.Helper()
	if tb.Rows() != len(model) {
		t.Fatalf("%s: %d rows, model has %d", step, tb.Rows(), len(model))
	}
	seen := 0
	logical := 0
	tb.Scan(nil, func(rid int, row []value.Value) bool {
		seen++
		want := model[row[0].Int()]
		for c, v := range row {
			if !same(v, want[c]) || !same(tb.Value(rid, c), want[c]) {
				t.Fatalf("%s: id %d column %d: stored %v, want %v", step, row[0].Int(), c, v, want[c])
			}
			logical += v.Bytes()
		}
		if got, ok := tb.LookupPK(row[:1]); !ok || got != rid {
			t.Fatalf("%s: id %d: LookupPK = %d,%v, scan says rid %d", step, row[0].Int(), got, ok, rid)
		}
		return true
	})
	if seen != len(model) {
		t.Fatalf("%s: scan saw %d rows, model has %d", step, seen, len(model))
	}
	if got := tb.MemoryBytes(); got != logical {
		t.Fatalf("%s: MemoryBytes %d, the boxed values add up to %d", step, got, logical)
	}
}

// TestArenaRoundTrip stores every edge value and NULL of every type
// through Insert, Update, Upsert and Compact, and through the Scan →
// Upsert pair snapshots are written and restored with.
func TestArenaRoundTrip(t *testing.T) {
	sch := arenaSchema()
	tb := New(sch)
	model := map[int64][]value.Value{}
	edges := edgeValues()
	var id int64
	var rows [][]value.Value
	for round := 0; round < 7; round++ {
		row := []value.Value{value.NewBigint(id)}
		for _, typ := range value.Types {
			if e := edges[typ]; round < len(e) {
				row = append(row, e[round])
			} else {
				row = append(row, value.Null(typ))
			}
		}
		rows = append(rows, row)
		model[id] = row
		id++
	}
	if err := tb.Insert(rows); err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, tb, model, "insert")

	// Update: every row takes the next row's values, column by column.
	for i := int64(0); i < id; i++ {
		src := rows[(i+1)%id]
		set := map[int]value.Value{}
		next := append([]value.Value{}, model[i]...)
		for c := 1; c < len(src); c++ {
			set[c], next[c] = src[c], src[c]
		}
		if n, err := tb.Update(&expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(i)}, set); n != 1 || err != nil {
			t.Fatalf("update %d: %d, %v", i, n, err)
		}
		model[i] = next
	}
	checkAgainst(t, tb, model, "update")

	// Upsert: overwrite half in place with the original images, add one.
	var up [][]value.Value
	for i := int64(0); i < id; i += 2 {
		up = append(up, rows[i])
		model[i] = rows[i]
	}
	fresh := append([]value.Value{value.NewBigint(id)}, rows[2][1:]...)
	up, model[id] = append(up, fresh), fresh
	slots := len(tb.valid)
	if err := tb.Upsert(up); err != nil {
		t.Fatal(err)
	}
	if len(tb.valid) != slots+1 {
		t.Fatalf("upsert of %d held keys and one new one took %d new slot windows", len(up)-1, len(tb.valid)-slots)
	}
	checkAgainst(t, tb, model, "upsert")

	deleteWhere(tb, &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(1)})
	if !tb.DeletePK([]value.Value{value.NewBigint(3)}) || tb.DeletePK([]value.Value{value.NewBigint(3)}) {
		t.Fatal("DeletePK must report the one row it removed")
	}
	delete(model, 1)
	delete(model, 3)
	if tb.Compact() != 2 {
		t.Fatal("compact did not reclaim the two tombstones")
	}
	if len(tb.strFree) != 0 || len(tb.strs) != tb.countStrings() {
		t.Fatalf("compacted string heap holds %d entries (%d free) for %d strings", len(tb.strs), len(tb.strFree), tb.countStrings())
	}
	checkAgainst(t, tb, model, "compact")

	var snap [][]value.Value
	tb.Scan(nil, func(_ int, row []value.Value) bool {
		snap = append(snap, append([]value.Value{}, row...))
		return true
	})
	re := New(sch)
	if err := re.Upsert(snap); err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, re, model, "reload")
	if re.ArenaBytes() != tb.ArenaBytes() {
		t.Errorf("a reloaded table takes %d arena bytes, the compacted one %d", re.ArenaBytes(), tb.ArenaBytes())
	}
}

// countStrings counts the non-NULL VARCHAR cells of the live rows.
func (t *Table) countStrings() int {
	n := 0
	for rid, ok := range t.valid {
		for _, c := range t.varchars {
			if ok && !t.isNull(t.base(rid), c) {
				n++
			}
		}
	}
	return n
}

// TestStringHeapDoesNotLeak overwrites VARCHARs many times: the heap must
// keep one entry per stored string.
func TestStringHeapDoesNotLeak(t *testing.T) {
	tb := loaded(t, 100)
	for round := 0; round < 50; round++ {
		if _, err := tb.Update(nil, map[int]value.Value{3: value.NewVarchar(strings.Repeat("r", round))}); err != nil {
			t.Fatal(err)
		}
	}
	if len(tb.strs) != 100 || tb.strBytes != 100*49 {
		t.Fatalf("after 50 overwrites of 100 strings the heap holds %d entries, %d bytes", len(tb.strs), tb.strBytes)
	}
	tb.Update(nil, map[int]value.Value{3: value.Null(value.Varchar)}) //nolint:errcheck // valid by construction
	if len(tb.strFree) != 100 || tb.strBytes != 0 || tb.MemoryBytes() != 100*(8+4+8) {
		t.Fatalf("NULLed strings: %d free entries, %d bytes, MemoryBytes %d", len(tb.strFree), tb.strBytes, tb.MemoryBytes())
	}
}

// TestTombstoneReclamation is the write pattern of a time-bound OLTP run:
// keyed updates must not take slot windows, and delete+insert churn must
// leave the arena within a constant factor of the live rows.
func TestTombstoneReclamation(t *testing.T) {
	const n = 100_000
	tb := loaded(t, n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		id := rng.Int63n(n)
		row := mkRow(id, id%5, float64(i), "u")
		if i%2 == 0 {
			if err := tb.Upsert([][]value.Value{row}); err != nil {
				t.Fatal(err)
			}
		} else if c, err := tb.Update(&expr.Comparison{Col: 0, Op: expr.Eq, Val: row[0]}, map[int]value.Value{2: row[2]}); c != 1 || err != nil {
			t.Fatal(c, err)
		}
	}
	if len(tb.valid) != n {
		t.Fatalf("10000 keyed updates grew the arena from %d to %d slot windows", n, len(tb.valid))
	}
	bound := func(step string) {
		t.Helper()
		if c, live := len(tb.valid), tb.Rows(); 4*(c-live) > live+4*reclaimMinDead {
			t.Fatalf("%s: %d slot windows for %d live rows", step, c, live)
		}
	}
	next := int64(n)
	for i := 0; i < 60_000; i++ {
		if !tb.DeletePK([]value.Value{value.NewBigint(next - n)}) {
			t.Fatalf("key %d missing", next-n)
		}
		if err := tb.Insert([][]value.Value{mkRow(next, next%5, 0, "i")}); err != nil {
			t.Fatal(err)
		}
		next++
		bound("delete+insert")
	}
	if tb.Rows() != n {
		t.Fatalf("%d rows after churn", tb.Rows())
	}
	// Shrinking: the arena follows the live rows down.
	deleteWhere(tb, &expr.Comparison{Col: 0, Op: expr.Lt, Val: value.NewBigint(next - 10_000)})
	bound("bulk delete")
	if rid, ok := tb.LookupPK([]value.Value{value.NewBigint(next - 1)}); !ok || tb.Value(rid, 0).Int() != next-1 {
		t.Fatal("PK index broken by reclamation")
	}
	var got []int64
	tb.Scan(&expr.Between{Col: 0, Lo: value.NewBigint(next - 3), Hi: value.NewBigint(next + 5)}, func(_ int, row []value.Value) bool {
		got = append(got, row[0].Int())
		return true
	})
	if len(got) != 3 || got[0] != next-3 || got[2] != next-1 {
		t.Fatalf("ordered PK index broken by reclamation: %v", got)
	}
}

// BenchmarkRowstoreScanFiltered is the full-arena scan with a predicate
// few rows pass: per row, one boxed column and a comparison.
func BenchmarkRowstoreScanFiltered(b *testing.B) {
	const n = 100_000
	tb := New(testSchema(b))
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = mkRow(int64(i), int64(i%1000), float64(i), "n")
	}
	if err := tb.Insert(rows); err != nil {
		b.Fatal(err)
	}
	pred := &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(7)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits := 0
		tb.Scan(pred, func(int, []value.Value) bool { hits++; return true })
		if hits != n/1000 {
			b.Fatal(hits)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
}
