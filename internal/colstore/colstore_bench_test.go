package colstore

import (
	"fmt"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/expr"
	"hybridstore/internal/value"
)

// benchRows sizes the benchmark table.
const benchRows = 400_000

// benchTable builds a merged table with a small delta tail, the steady
// state of the column store: id (unique), grp (64 distinct, unclustered),
// amount (~n/50 distinct, range-clustered like an insertion-ordered
// timestamp — the shape selective analytical predicates have in practice),
// note (16 distinct, nullable).
func benchTable(b *testing.B, n int) *Table {
	b.Helper()
	tb := New(testSchema())
	tb.AutoMerge = false
	rows := make([][]value.Value, 0, n)
	for i := 0; i < n; i++ {
		note := value.NewVarchar(fmt.Sprintf("n%d", i%16))
		if i%31 == 0 {
			note = value.Null(value.Varchar)
		}
		rows = append(rows, []value.Value{
			value.NewBigint(int64(i)),
			value.NewInt(int64(i % 64)),
			value.NewDouble(float64(i / 50)),
			note,
		})
	}
	if err := tb.Insert(rows); err != nil {
		b.Fatal(err)
	}
	tb.Merge()
	// ~2% of rows arrive after the merge and sit in the delta.
	tail := make([][]value.Value, 0, n/50)
	for i := n; i < n+n/50; i++ {
		tail = append(tail, mkRow(int64(i), int64(i%64), float64(i/50), "d"))
	}
	if err := tb.Insert(tail); err != nil {
		b.Fatal(err)
	}
	return tb
}

var benchSink interface{}

// BenchmarkMatchBitmap measures raw predicate evaluation over the code
// vectors (no materialization): a two-conjunct range predicate at ~10%
// selectivity.
func BenchmarkMatchBitmap(b *testing.B) {
	n := benchRows
	tb := benchTable(b, n)
	pred := &expr.And{Preds: []expr.Predicate{
		&expr.Comparison{Col: 2, Op: expr.Lt, Val: value.NewDouble(float64(n / 5 / 50))},
		&expr.Comparison{Col: 1, Op: expr.Ge, Val: value.NewInt(32)},
	}}
	b.SetBytes(int64(tb.totalRows()))
	s := tb.acquireScratch()
	defer tb.releaseScratch(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = tb.matchBitmapExec(pred, s, nil)
	}
}

// BenchmarkColScanSelective measures a selective scan (~2% of rows)
// materializing two columns.
func BenchmarkColScanSelective(b *testing.B) {
	n := benchRows
	tb := benchTable(b, n)
	pred := &expr.Comparison{Col: 2, Op: expr.Ge, Val: value.NewDouble(float64((n - n/50) / 50))}
	b.SetBytes(int64(tb.totalRows()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		var sum float64
		tb.ScanBatches(pred, []int{0, 2}, func(rids []int32, colVals [][]value.Value) bool {
			count += len(rids)
			for _, v := range colVals[1] {
				sum += v.Double()
			}
			return true
		})
		benchSink = sum
	}
}

// BenchmarkColAggregateGroupBy measures a filtered single-column group-by
// (SUM + COUNT(*) over ~80% of rows, 64 groups) — the TPC-H Q1 shape the
// paper's column store is built for.
func BenchmarkColAggregateGroupBy(b *testing.B) {
	n := benchRows
	tb := benchTable(b, n)
	pred := &expr.Comparison{Col: 2, Op: expr.Ge, Val: value.NewDouble(float64(n / 5 / 50))}
	specs := []agg.Spec{{Func: agg.Sum, Col: 2}, {Func: agg.Count, Col: -1}}
	b.SetBytes(int64(tb.totalRows()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = tb.AggregateExec(specs, []int{1}, pred, nil)
	}
}

// BenchmarkColAggregateGlobal measures ungrouped SUM, AVG and MIN over a
// DOUBLE column of 10 000 distinct values in 30 000 rows: main has every
// row merged, delta leaves the last tenth of them unmerged.
func BenchmarkColAggregateGlobal(b *testing.B) {
	const n = 30000
	specs := []agg.Spec{{Func: agg.Sum, Col: 2}, {Func: agg.Avg, Col: 2}, {Func: agg.Min, Col: 2}}
	for _, c := range []struct {
		name   string
		merged int
	}{{"main", n}, {"delta", n - n/10}} {
		b.Run(c.name, func(b *testing.B) {
			tb := New(testSchema())
			tb.AutoMerge = false
			rows := make([][]value.Value, 0, n)
			for i := 0; i < n; i++ {
				rows = append(rows, mkRow(int64(i), int64(i%64), float64(i*7919%10000)/4, "x"))
			}
			if err := tb.Insert(rows[:c.merged]); err != nil {
				b.Fatal(err)
			}
			tb.Merge()
			if err := tb.Insert(rows[c.merged:]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = tb.AggregateExec(specs, nil, nil, nil)
			}
		})
	}
}

// BenchmarkColAggregatePairGroup measures the dense two-column group-by
// fast path (grp x note).
func BenchmarkColAggregatePairGroup(b *testing.B) {
	n := benchRows
	tb := benchTable(b, n)
	specs := []agg.Spec{{Func: agg.Sum, Col: 2}, {Func: agg.Count, Col: -1}}
	b.SetBytes(int64(tb.totalRows()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = tb.AggregateExec(specs, []int{1, 3}, nil, nil)
	}
}
