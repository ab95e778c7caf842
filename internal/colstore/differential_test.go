package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// diffTable builds a table exercising every physical state the vectorized
// pipeline must handle: a merged main fragment with NULLs, a delta tail,
// tombstones from deletes, and main rows moved to the delta by upserts.
// Amounts are integral, so their sums are exact in any order; frac holds
// positive hundredths, ±0.0 and NULLs, so its sums depend on the order of
// the additions and its extrema on how -0.0 and +0.0 tie.
func diffTable(t *testing.T, rng *rand.Rand, n int) *Table {
	t.Helper()
	sch := schema.MustNew("diff",
		[]schema.Column{
			{Name: "id", Type: value.Bigint},
			{Name: "grp", Type: value.Integer, Nullable: true},
			{Name: "amount", Type: value.Double},
			{Name: "note", Type: value.Varchar, Nullable: true},
			{Name: "frac", Type: value.Double, Nullable: true},
		}, "id")
	frac := func() value.Value {
		switch rng.Intn(12) {
		case 0:
			return value.NewDouble(0)
		case 1:
			return value.NewDouble(math.Copysign(0, -1))
		case 2:
			return value.Null(value.Double)
		}
		return value.NewDouble(float64(1+rng.Intn(99999)) / 100)
	}
	tb := New(sch)
	tb.AutoMerge = false
	rows := make([][]value.Value, 0, n)
	for i := 0; i < n; i++ {
		grp := value.NewInt(rng.Int63n(16))
		if rng.Intn(13) == 0 {
			grp = value.Null(value.Integer)
		}
		note := value.NewVarchar(fmt.Sprintf("s%d", rng.Intn(6)))
		if rng.Intn(9) == 0 {
			note = value.Null(value.Varchar)
		}
		rows = append(rows, []value.Value{
			value.NewBigint(int64(i)), grp,
			value.NewDouble(float64(rng.Intn(500))), note, frac(),
		})
	}
	if err := tb.Insert(rows); err != nil {
		t.Fatal(err)
	}
	tb.Merge()
	// Tombstones in main.
	for _, row := range rows {
		if row[2].Double() < 20 {
			tb.DeletePK(row[:1])
		}
	}
	// Upserts of live main rows, with amounts the main dictionary lacks.
	for i := 0; i < 30; i++ {
		rid, ok := tb.LookupPK([]value.Value{value.NewBigint(rng.Int63n(int64(n)))})
		amount := value.NewDouble(float64(1000 + rng.Intn(100)))
		if !ok {
			continue
		}
		row := tb.Get(rid)
		row[2], row[4] = amount, frac()
		if err := tb.Upsert([][]value.Value{row}); err != nil {
			t.Fatal(err)
		}
	}
	// Delta tail (with NULLs) on top.
	tail := make([][]value.Value, 0, n/10)
	for i := n; i < n+n/10; i++ {
		grp := value.NewInt(rng.Int63n(16))
		if rng.Intn(13) == 0 {
			grp = value.Null(value.Integer)
		}
		tail = append(tail, []value.Value{
			value.NewBigint(int64(i)), grp,
			value.NewDouble(float64(rng.Intn(500))), value.NewVarchar("d"), frac(),
		})
	}
	if err := tb.Insert(tail); err != nil {
		t.Fatal(err)
	}
	return tb
}

// randomPredicate covers both the compiled code-range bitmap path
// (comparisons, BETWEEN, conjunctions) and the fallback shapes (Ne, NULL
// constants, OR, IN, NOT).
func randomPredicate(rng *rand.Rand, n int) expr.Predicate {
	cmp := func() expr.Predicate {
		switch rng.Intn(4) {
		case 0:
			return &expr.Comparison{Col: 0, Op: expr.CmpOp(rng.Intn(6)), Val: value.NewBigint(rng.Int63n(int64(n)))}
		case 1:
			return &expr.Comparison{Col: 1, Op: expr.CmpOp(rng.Intn(6)), Val: value.NewInt(rng.Int63n(16))}
		case 2:
			return &expr.Comparison{Col: 2, Op: expr.CmpOp(rng.Intn(6)), Val: value.NewDouble(float64(rng.Intn(1100)))}
		default:
			return &expr.Comparison{Col: 3, Op: expr.CmpOp(rng.Intn(6)), Val: value.NewVarchar(fmt.Sprintf("s%d", rng.Intn(6)))}
		}
	}
	switch rng.Intn(10) {
	case 0:
		return nil
	case 8:
		// A key: one row, or none when it was deleted.
		return &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(rng.Int63n(int64(n)))}
	case 9:
		// Matches no row, on the compiled path.
		return &expr.Comparison{Col: 0, Op: expr.Lt, Val: value.NewBigint(-1)}
	case 1:
		return cmp()
	case 2:
		lo := rng.Int63n(int64(n))
		return &expr.Between{Col: 0, Lo: value.NewBigint(lo), Hi: value.NewBigint(lo + rng.Int63n(int64(n)))}
	case 3:
		return &expr.And{Preds: []expr.Predicate{cmp(), cmp()}}
	case 4:
		return &expr.Or{Preds: []expr.Predicate{cmp(), cmp()}}
	case 5:
		return &expr.Not{P: cmp()}
	case 6:
		// NULL constant: matches nothing, exercises the fallback guard.
		return &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.Null(value.Integer)}
	default:
		return &expr.In{Col: 3, Vals: []value.Value{
			value.NewVarchar("s1"), value.NewVarchar("s4"), value.NewVarchar("d"),
		}}
	}
}

// oracleRows is the naive row-materializing oracle: reconstruct every live
// tuple and evaluate the predicate on values.
func oracleRows(tb *Table, pred expr.Predicate) []int32 {
	var out []int32
	for rid := 0; rid < tb.totalRows(); rid++ {
		if !tb.liveSet.Get(rid) {
			continue
		}
		if pred == nil || pred.Matches(tb.Get(rid)) {
			out = append(out, int32(rid))
		}
	}
	return out
}

// TestDifferentialScan asserts that the vectorized bitmap pipeline
// (ScanBatches) yields exactly the oracle's row sets and values for
// randomized predicates.
func TestDifferentialScan(t *testing.T) {
	rng := rand.New(rand.NewSource(20120825))
	tb := diffTable(t, rng, 5000)
	cols := []int{0, 1, 2, 3}
	for trial := 0; trial < 300; trial++ {
		pred := randomPredicate(rng, 5000)
		want := oracleRows(tb, pred)

		// Batched rids must be the oracle's, in order, and batched values
		// must equal full tuple reconstruction.
		i := 0
		tb.ScanBatches(pred, cols, func(rids []int32, colVals [][]value.Value) bool {
			for k, rid := range rids {
				if i >= len(want) || rid != want[i] {
					t.Fatalf("trial %d (%v): batch rid %d at %d, oracle %v", trial, pred, rid, i, want[min(i, len(want)-1):])
				}
				row := tb.Get(int(rid))
				for j, c := range cols {
					if !value.Equal(colVals[j][k], row[c]) {
						t.Fatalf("trial %d rid %d col %d: batch %v, oracle %v",
							trial, rid, c, colVals[j][k], row[c])
					}
				}
				i++
			}
			return true
		})
		if i != len(want) {
			t.Fatalf("trial %d: ScanBatches visited %d of %d rows", trial, i, len(want))
		}
	}
}

// TestDifferentialAggregate asserts grouped and global aggregates computed
// by the vectorized paths agree with per-row oracle accumulation over the
// oracle's row set (floats to a relative 1e-12: the kernel adds in another
// order), and that every pool size returns the same bits. The table is
// large enough for the pools to run helpers.
func TestDifferentialAggregate(t *testing.T) {
	const n = 12000
	rng := rand.New(rand.NewSource(51212))
	tb := diffTable(t, rng, n)
	specs := []agg.Spec{
		{Func: agg.Sum, Col: 2},
		{Func: agg.Count, Col: -1},
		{Func: agg.Min, Col: 2},
		{Func: agg.Max, Col: 2},
		{Func: agg.Count, Col: 1},
		{Func: agg.Avg, Col: 2},
		{Func: agg.Sum, Col: 4},
		{Func: agg.Avg, Col: 4},
		{Func: agg.Min, Col: 4},
		{Func: agg.Max, Col: 4},
		{Func: agg.Count, Col: 4},
	}
	pools := []*exec.Pool{exec.NewPool(1), exec.NewPool(2), exec.NewPool(3), exec.NewPool(8)}
	groupings := [][]int{nil, {1}, {1, 3}, {1, 2, 3}}
	rowKey := func(row []value.Value, groupBy []int) string {
		k := ""
		for i := range groupBy {
			k += row[i].Key() + "\x1f"
		}
		return k
	}
	for trial := 0; trial < 120; trial++ {
		pred := randomPredicate(rng, n)
		groupBy := groupings[trial%len(groupings)]

		// Oracle: per-row accumulation over reconstructed tuples.
		want := agg.NewResult(specs, groupBy)
		key := make([]value.Value, len(groupBy))
		for _, rid := range oracleRows(tb, pred) {
			row := tb.Get(int(rid))
			var g *agg.Group
			if len(groupBy) > 0 {
				for i, c := range groupBy {
					key[i] = row[c]
				}
				g = want.GroupFor(key)
			} else {
				g = want.Global()
			}
			for si, s := range specs {
				if s.Col < 0 {
					g.Accs[si].AddCount(1)
				} else {
					g.Accs[si].AddFor(s.Func, row[s.Col])
				}
			}
		}
		index := map[string][]value.Value{}
		for _, row := range want.Rows() {
			index[rowKey(row, groupBy)] = row
		}

		var first map[string][]value.Value // the first pool's rows, by group
		for pi, pool := range pools {
			got := tb.AggregateExec(specs, groupBy, pred, &exec.Ctx{Pool: pool})
			if len(got.Groups) != len(want.Groups) {
				t.Fatalf("trial %d (%v, group %v, pool %d): %d groups, oracle %d",
					trial, pred, groupBy, pool.Size(), len(got.Groups), len(want.Groups))
			}
			if pi == 0 {
				first = map[string][]value.Value{}
			}
			for _, row := range got.Rows() {
				k := rowKey(row, groupBy)
				wrow, ok := index[k]
				if !ok {
					t.Fatalf("trial %d: group %v missing in oracle", trial, row[:len(groupBy)])
				}
				if pi == 0 {
					first[k] = row
				}
				for i := range row {
					if !closeValues(row[i], wrow[i]) {
						t.Fatalf("trial %d (%v, group %v, pool %d) col %d: vectorized %v, oracle %v",
							trial, pred, groupBy, pool.Size(), i, row[i], wrow[i])
					}
					if !value.Equal(row[i], first[k][i]) {
						t.Fatalf("trial %d (%v, group %v) col %d: pool %d returned %v, pool %d %v",
							trial, pred, groupBy, i, pool.Size(), row[i], pools[0].Size(), first[k][i])
					}
				}
			}
		}
	}
}

// closeValues reports whether a and b are equal, or both non-NULL DOUBLEs
// within a relative 1e-12 of each other.
func closeValues(a, b value.Value) bool {
	if value.Equal(a, b) {
		return true
	}
	if a.IsNull() || b.IsNull() || a.Type() != value.Double || b.Type() != value.Double {
		return false
	}
	x, y := a.Double(), b.Double()
	return math.Abs(x-y) <= 1e-12*max(math.Abs(x), math.Abs(y))
}
