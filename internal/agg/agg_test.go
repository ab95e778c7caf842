package agg

import (
	"math"
	"testing"
	"testing/quick"

	"hybridstore/internal/value"
)

func TestFuncString(t *testing.T) {
	want := map[Func]string{Sum: "SUM", Avg: "AVG", Min: "MIN", Max: "MAX", Count: "COUNT"}
	for f, s := range want {
		if f.String() != s {
			t.Errorf("%v.String() = %q", f, f.String())
		}
		got, err := ParseFunc(s)
		if err != nil || got != f {
			t.Errorf("ParseFunc(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFunc("MEDIAN"); err == nil {
		t.Error("unknown func should fail")
	}
}

func TestSpecString(t *testing.T) {
	if s := (Spec{Func: Sum, Col: 2}).String(); s != "SUM(col2)" {
		t.Errorf("Spec.String = %q", s)
	}
	if s := (Spec{Func: Count, Col: -1}).String(); s != "COUNT(*)" {
		t.Errorf("Spec.String = %q", s)
	}
}

// The tests fold values with AddFor(Min, v): the MIN/MAX branch keeps
// every statistic an accumulator has (sum, count and extrema), so one
// accumulator answers every function.
func TestAccBasics(t *testing.T) {
	var a Acc
	for _, x := range []float64{1, 2, 3, 4} {
		a.AddFor(Min, value.NewDouble(x))
	}
	if got := a.Final(Sum).Double(); got != 10 {
		t.Errorf("SUM = %v", got)
	}
	if got := a.Final(Avg).Double(); got != 2.5 {
		t.Errorf("AVG = %v", got)
	}
	if got := a.Final(Min).Double(); got != 1 {
		t.Errorf("MIN = %v", got)
	}
	if got := a.Final(Max).Double(); got != 4 {
		t.Errorf("MAX = %v", got)
	}
	if got := a.Final(Count).Int(); got != 4 {
		t.Errorf("COUNT = %v", got)
	}
}

func TestAccIgnoresNull(t *testing.T) {
	var a Acc
	a.AddFor(Min, value.Null(value.Double))
	a.AddFor(Min, value.NewDouble(5))
	if n := a.Final(Count).Int(); n != 1 || a.Final(Sum).Double() != 5 {
		t.Errorf("NULL not ignored: count=%d", n)
	}
}

func TestAccEmpty(t *testing.T) {
	var a Acc
	if !a.Final(Sum).IsNull() || !a.Final(Avg).IsNull() || !a.Final(Min).IsNull() || !a.Final(Max).IsNull() {
		t.Error("empty aggregates should be NULL")
	}
	if a.Final(Count).Int() != 0 {
		t.Error("empty COUNT should be 0")
	}
}

func TestAddCount(t *testing.T) {
	var a Acc
	a.AddCount(42)
	if a.Final(Count).Int() != 42 {
		t.Errorf("AddCount = %v", a.Final(Count))
	}
}

func TestMergeAcc(t *testing.T) {
	var a, b, whole Acc
	for i := 1; i <= 6; i++ {
		v := value.NewInt(int64(i))
		whole.AddFor(Min, v)
		if i <= 3 {
			a.AddFor(Min, v)
		} else {
			b.AddFor(Min, v)
		}
	}
	a.Merge(&b)
	for _, f := range []Func{Sum, Avg, Min, Max, Count} {
		av, wv := a.Final(f), whole.Final(f)
		if av.Type() != wv.Type() || av.Float() != wv.Float() {
			t.Errorf("%v: merged=%v whole=%v", f, av, wv)
		}
	}
	// Merging an empty Acc changes nothing.
	var empty Acc
	before := a.Final(Sum).Double()
	a.Merge(&empty)
	if a.Final(Sum).Double() != before {
		t.Error("empty merge changed state")
	}
	// Merging into an empty Acc copies.
	var target Acc
	target.Merge(&whole)
	if target.Final(Min).Float() != 1 || target.Final(Max).Float() != 6 {
		t.Error("merge into empty broken")
	}
}

func TestResultUngrouped(t *testing.T) {
	r := NewResult([]Spec{{Func: Sum, Col: 0}, {Func: Count, Col: -1}}, nil)
	r.Global().Accs[0].AddFor(Min, value.NewDouble(2))
	r.Global().Accs[0].AddFor(Min, value.NewDouble(3))
	r.Global().Accs[1].AddCount(2)
	rows := r.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0].Double() != 5 || rows[0][1].Int() != 2 {
		t.Errorf("row = %v", rows[0])
	}
	if len(r.Groups) != 1 {
		t.Errorf("groups = %d", len(r.Groups))
	}
}

func TestResultGrouped(t *testing.T) {
	r := NewResult([]Spec{{Func: Sum, Col: 1}}, []int{0})
	add := func(k int64, v float64) {
		g := r.GroupFor([]value.Value{value.NewInt(k)})
		g.Accs[0].AddFor(Min, value.NewDouble(v))
	}
	add(1, 10)
	add(2, 20)
	add(1, 5)
	if len(r.Groups) != 2 {
		t.Fatalf("groups = %d", len(r.Groups))
	}
	rows := r.Rows()
	sums := map[int64]float64{}
	for _, row := range rows {
		sums[row[0].Int()] = row[1].Double()
	}
	if sums[1] != 15 || sums[2] != 20 {
		t.Errorf("sums = %v", sums)
	}
}

func TestGroupKeyReuse(t *testing.T) {
	r := NewResult([]Spec{{Func: Count, Col: -1}}, []int{0, 1})
	buf := []value.Value{value.NewInt(1), value.NewVarchar("a")}
	g1 := r.GroupFor(buf)
	buf[0] = value.NewInt(2) // mutate caller buffer
	g2 := r.GroupFor(buf)
	if g1 == g2 {
		t.Fatal("distinct keys mapped to same group")
	}
	if g1.Key[0].Int() != 1 {
		t.Error("group key was not copied")
	}
}

func TestResultMergeGrouped(t *testing.T) {
	mk := func(pairs map[int64]float64) *Result {
		r := NewResult([]Spec{{Func: Sum, Col: 1}}, []int{0})
		for k, v := range pairs {
			r.GroupFor([]value.Value{value.NewInt(k)}).Accs[0].AddFor(Min, value.NewDouble(v))
		}
		return r
	}
	a := mk(map[int64]float64{1: 10, 2: 20})
	b := mk(map[int64]float64{2: 5, 3: 7})
	a.Merge(b)
	a.Merge(nil) // no-op
	sums := map[int64]float64{}
	for _, row := range a.Rows() {
		sums[row[0].Int()] = row[1].Double()
	}
	want := map[int64]float64{1: 10, 2: 25, 3: 7}
	for k, v := range want {
		if sums[k] != v {
			t.Errorf("group %d = %v, want %v", k, sums[k], v)
		}
	}
}

func TestResultMergeUngrouped(t *testing.T) {
	a := NewResult([]Spec{{Func: Min, Col: 0}}, nil)
	b := NewResult([]Spec{{Func: Min, Col: 0}}, nil)
	a.Global().Accs[0].AddFor(Min, value.NewInt(5))
	b.Global().Accs[0].AddFor(Min, value.NewInt(3))
	a.Merge(b)
	if got := a.Global().Accs[0].Final(Min).Int(); got != 3 {
		t.Errorf("merged MIN = %d", got)
	}
}

// Property: splitting a value sequence at any point and merging partial
// accumulators equals accumulating the whole sequence.
func TestMergeEquivalenceProperty(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		for _, x := range xs {
			// Skip degenerate floats and magnitudes where summation order
			// changes overflow behaviour; the property is about merge
			// semantics, not IEEE-754 edge cases.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true
			}
		}
		if len(xs) == 0 {
			return true
		}
		cut := int(split) % len(xs)
		var a, b, whole Acc
		for i, x := range xs {
			v := value.NewDouble(x)
			whole.AddFor(Min, v)
			if i < cut {
				a.AddFor(Min, v)
			} else {
				b.AddFor(Min, v)
			}
		}
		a.Merge(&b)
		const eps = 1e-6
		close := func(p, q float64) bool {
			d := p - q
			scale := math.Abs(p) + math.Abs(q) + 1
			return math.Abs(d) < eps*scale
		}
		return close(a.Final(Sum).Float(), whole.Final(Sum).Float()) &&
			a.Final(Count).Int() == whole.Final(Count).Int() &&
			a.Final(Min).Float() == whole.Final(Min).Float() &&
			a.Final(Max).Float() == whole.Final(Max).Float()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddCountDoesNotPoisonMinMax(t *testing.T) {
	// A count-only accumulator (a COUNT(*) partial from one partition)
	// must contribute its count on merge without injecting its
	// zero-valued min/max — the old code marked it "seen" and could
	// propagate an Integer 0 into a Bigint accumulator.
	var countOnly Acc
	countOnly.AddCount(5)
	var real Acc
	real.AddFor(Min, value.NewBigint(10))
	real.Merge(&countOnly)
	if got := real.Final(Count).Int(); got != 6 {
		t.Errorf("merged count = %d, want 6", got)
	}
	if got := real.Final(Min); got.Type() != value.Bigint || got.Int() != 10 {
		t.Errorf("merged min = %v (%s), want BIGINT 10", got, got.Type())
	}
	if got := real.Final(Max); got.Type() != value.Bigint || got.Int() != 10 {
		t.Errorf("merged max = %v (%s), want BIGINT 10", got, got.Type())
	}
	// The other direction: merging real values into a count-only
	// accumulator adopts them.
	var target Acc
	target.AddCount(3)
	target.Merge(&real)
	if got := target.Final(Count).Int(); got != 9 {
		t.Errorf("count-only target count = %d, want 9", got)
	}
	if got := target.Final(Min); got.Type() != value.Bigint || got.Int() != 10 {
		t.Errorf("count-only target min = %v, want 10", got)
	}
	// Merging two count-only accumulators still sums counts (the old
	// early-return on !b.seen was saved only by AddCount lying about
	// seen).
	var a, b Acc
	a.AddCount(2)
	b.AddCount(3)
	a.Merge(&b)
	if got := a.Final(Count).Int(); got != 5 {
		t.Errorf("count-only merge = %d, want 5", got)
	}
}

func TestFinalTypedEmptyMinMax(t *testing.T) {
	var a Acc
	for _, tc := range []struct {
		f   Func
		typ value.Type
	}{
		{Min, value.Varchar}, {Max, value.Varchar},
		{Min, value.Bigint}, {Max, value.Date},
	} {
		got := a.FinalTyped(tc.f, tc.typ)
		if !got.IsNull() || got.Type() != tc.typ {
			t.Errorf("empty %v as %s = %v (%s)", tc.f, tc.typ, got, got.Type())
		}
	}
	// Non-empty accumulators ignore the hint and return the real value.
	a.AddFor(Min, value.NewVarchar("x"))
	if got := a.FinalTyped(Min, value.Varchar); got.IsNull() || got.Varchar() != "x" {
		t.Errorf("non-empty FinalTyped = %v", got)
	}
}

func TestOutputType(t *testing.T) {
	if got := Count.OutputType(value.Varchar); got != value.Bigint {
		t.Errorf("COUNT output = %s", got)
	}
	if got := Sum.OutputType(value.Integer); got != value.Double {
		t.Errorf("SUM output = %s", got)
	}
	if got := Avg.OutputType(value.Bigint); got != value.Double {
		t.Errorf("AVG output = %s", got)
	}
	if got := Min.OutputType(value.Varchar); got != value.Varchar {
		t.Errorf("MIN output = %s", got)
	}
	if got := Max.OutputType(value.Date); got != value.Date {
		t.Errorf("MAX output = %s", got)
	}
}

func TestResultTypedEmptyRows(t *testing.T) {
	specs := []Spec{{Func: Count, Col: -1}, {Func: Min, Col: 1}, {Func: Max, Col: 0}}
	r := NewResult(specs, nil)
	r.SetOutputTypes([]value.Type{value.Bigint, value.Varchar})
	rows := r.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	row := rows[0]
	if row[0].Type() != value.Bigint || row[0].Int() != 0 {
		t.Errorf("COUNT(*) over empty = %v (%s)", row[0], row[0].Type())
	}
	if !row[1].IsNull() || row[1].Type() != value.Varchar {
		t.Errorf("MIN(varchar) over empty = %v (%s)", row[1], row[1].Type())
	}
	if !row[2].IsNull() || row[2].Type() != value.Bigint {
		t.Errorf("MAX(bigint) over empty = %v (%s)", row[2], row[2].Type())
	}
	// Merge propagates types into an untyped result.
	other := NewResult(specs, nil)
	other.Merge(r)
	if len(other.Types) != len(specs) {
		t.Error("Merge did not propagate output types")
	}
}
