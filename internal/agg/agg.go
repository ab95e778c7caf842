// Package agg implements aggregation accumulators and grouped aggregation
// results shared by the column store's dense kernel (which folds its
// scalar per-group sums and code extrema in once per group), the one
// generic hash fold every other aggregate runs on (Result.Fold, over a
// block scan of any store) and the engine (merging partial results across
// horizontal partitions; the paper's "union of both partitions" for
// queries that span them).
package agg

import (
	"fmt"
	"slices"

	"hybridstore/internal/exec"
	"hybridstore/internal/value"
)

// Func is an aggregation function.
type Func uint8

const (
	Sum Func = iota
	Avg
	Min
	Max
	Count
)

// String returns the SQL name of the function.
func (f Func) String() string {
	switch f {
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Count:
		return "COUNT"
	default:
		return fmt.Sprintf("Func(%d)", uint8(f))
	}
}

// ParseFunc converts a SQL aggregate name into a Func.
func ParseFunc(s string) (Func, error) {
	switch s {
	case "SUM":
		return Sum, nil
	case "AVG":
		return Avg, nil
	case "MIN":
		return Min, nil
	case "MAX":
		return Max, nil
	case "COUNT":
		return Count, nil
	default:
		return 0, fmt.Errorf("agg: unknown aggregate %q", s)
	}
}

// Spec is one aggregate in a query: a function applied to a column.
// Col may be -1 for COUNT(*).
type Spec struct {
	Func Func
	Col  int
}

// String renders the spec with positional column naming.
func (s Spec) String() string {
	if s.Col < 0 {
		return s.Func.String() + "(*)"
	}
	return fmt.Sprintf("%s(col%d)", s.Func, s.Col)
}

// Acc accumulates one aggregate. A single Acc tracks enough state to answer
// any Func, so partial results can be merged regardless of function.
type Acc struct {
	sum      float64
	count    int64
	min, max value.Value
	seen     bool
}

// AddFor folds a single value the way function f needs it: NULLs are
// ignored, and only MIN and MAX pay for tracking extrema, which no other
// function reads (Merge and Final tolerate an accumulator that never saw
// them).
func (a *Acc) AddFor(f Func, v value.Value) {
	switch {
	case v.IsNull():
	case f == Min || f == Max:
		a.AddSummary(v.Float(), 1, v, v)
	default:
		a.sum += v.Float()
		a.count++
	}
}

// AddSummary folds a precomputed partial aggregate — the Float-sum, the
// non-NULL row count and the min/max value of a batch of rows — into the
// accumulator. The column store's dense kernel accumulates these per group
// with integer/float scalar ops and folds once per group, instead of paying
// a value comparison per row.
func (a *Acc) AddSummary(sum float64, count int64, min, max value.Value) {
	if count <= 0 {
		return
	}
	a.sum += sum
	a.count += count
	if !a.seen {
		a.min, a.max, a.seen = min, max, true
		return
	}
	if value.Less(min, a.min) {
		a.min = min
	}
	if value.Less(a.max, max) {
		a.max = max
	}
}

// AddSum folds a precomputed Float-sum over count non-NULL rows without
// their extrema, for accumulators whose function never reads MIN/MAX
// (like AddCount, it leaves min/max unseen).
func (a *Acc) AddSum(sum float64, count int64) {
	a.sum += sum
	a.count += count
}

// AddCount increments only the row counter; used for COUNT(*) where no
// column value is inspected. It deliberately does not mark min/max as
// seen: a count-only accumulator holds zero-valued min/max, and marking
// them valid would let Merge propagate that garbage into a real
// accumulator.
func (a *Acc) AddCount(n int64) {
	a.count += n
}

// Merge folds another accumulator into a. Used when combining partial
// results from horizontal partitions. Counts and sums always combine;
// min/max transfer only when b actually observed values, so a COUNT(*)
// partial from an empty or count-only partition neither loses its count
// nor injects zero-valued extrema.
func (a *Acc) Merge(b *Acc) {
	a.sum += b.sum
	a.count += b.count
	if !b.seen {
		return
	}
	if !a.seen {
		a.min, a.max, a.seen = b.min, b.max, true
		return
	}
	if value.Less(b.min, a.min) {
		a.min = b.min
	}
	if value.Less(a.max, b.max) {
		a.max = b.max
	}
}

// OutputType returns the result type of the function applied to a
// column of type colType: COUNT yields BIGINT, SUM and AVG widen to
// DOUBLE, and MIN/MAX preserve the column's own type.
func (f Func) OutputType(colType value.Type) value.Type {
	switch f {
	case Count:
		return value.Bigint
	case Min, Max:
		return colType
	default:
		return value.Double
	}
}

// FinalTyped computes the aggregate value for the requested function
// with a known output type: an empty MIN/MAX yields a NULL of the
// column's type (a VARCHAR column's empty MIN is a VARCHAR NULL), where
// the untyped Final can only guess Double.
func (a *Acc) FinalTyped(f Func, typ value.Type) value.Value {
	if (f == Min || f == Max) && !a.seen {
		return value.Null(typ)
	}
	return a.Final(f)
}

// Final computes the aggregate value for the requested function.
func (a *Acc) Final(f Func) value.Value {
	switch f {
	case Count:
		return value.NewBigint(a.count)
	case Sum:
		if a.count == 0 {
			return value.Null(value.Double)
		}
		return value.NewDouble(a.sum)
	case Avg:
		if a.count == 0 {
			return value.Null(value.Double)
		}
		return value.NewDouble(a.sum / float64(a.count))
	case Min:
		if !a.seen {
			return value.Null(value.Double)
		}
		return a.min
	case Max:
		if !a.seen {
			return value.Null(value.Double)
		}
		return a.max
	default:
		return value.Null(value.Double)
	}
}

// Group is one group-by bucket: the key values and one accumulator per
// aggregate spec.
type Group struct {
	Key  []value.Value
	Accs []Acc
}

// Result is a grouped aggregation result. With no group-by columns it
// holds exactly one global group.
type Result struct {
	Specs     []Spec
	GroupCols []int
	Groups    []*Group

	// Types holds the output type of each spec (see Func.OutputType).
	// When set — the stores set it from their schemas — empty-group
	// MIN/MAX produce correctly typed NULLs; when nil, Rows falls back
	// to the untyped Final.
	Types []value.Type

	index map[uint64]int // key hash -> newest group with that hash
	chain []int          // per group: the next older group with the same key hash, -1 at the end
	key   []value.Value  // AddRow's group-key scratch
}

// SetOutputTypes records each spec's result type given the source
// table's column types (COUNT(*) specs need no column).
func (r *Result) SetOutputTypes(colTypes []value.Type) {
	r.Types = make([]value.Type, len(r.Specs))
	for i, s := range r.Specs {
		ct := value.Double
		if s.Col >= 0 && s.Col < len(colTypes) {
			ct = colTypes[s.Col]
		}
		r.Types[i] = s.Func.OutputType(ct)
	}
}

// NewResult allocates an empty result for the given aggregates and
// grouping columns.
func NewResult(specs []Spec, groupCols []int) *Result {
	r := &Result{Specs: specs, GroupCols: groupCols}
	if len(groupCols) == 0 {
		r.Groups = []*Group{{Accs: make([]Acc, len(specs))}}
		return r
	}
	r.index = make(map[uint64]int)
	return r
}

// Global returns the single group of an ungrouped result.
func (r *Result) Global() *Group { return r.Groups[0] }

// GroupFor returns (creating if needed) the bucket for the given key. The
// key slice is copied on first use so callers may reuse their buffer.
func (r *Result) GroupFor(key []value.Value) *Group {
	return r.Groups[r.GroupIndex(key)]
}

// GroupIndex is GroupFor returning the bucket's position in Groups, a
// dense id in order of first use.
func (r *Result) GroupIndex(key []value.Value) int {
	h := value.HashRow(key)
	newest, seen := r.index[h]
	if !seen {
		newest = -1
	}
	for i := newest; i >= 0; i = r.chain[i] {
		if equalKeys(r.Groups[i].Key, key) {
			return i
		}
	}
	var g *Group
	if n := len(r.Groups); n < cap(r.Groups) {
		g = r.Groups[:n+1][n] // a group Merge emptied out of r, reused
	}
	if g == nil {
		g = &Group{Key: make([]value.Value, len(key)), Accs: make([]Acc, len(r.Specs))}
	}
	copy(g.Key, key)
	r.index[h] = len(r.Groups)
	r.chain = append(r.chain, newest)
	r.Groups = append(r.Groups, g)
	return len(r.Groups) - 1
}

func equalKeys(a, b []value.Value) bool {
	for i := range a {
		if !value.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// AddRow folds one row — indexed the way the specs' and grouping columns
// are — into its group: the tuple-at-a-time accumulation step.
func (r *Result) AddRow(row []value.Value) {
	var g *Group
	if len(r.GroupCols) == 0 {
		g = r.Global()
	} else {
		if r.key == nil {
			r.key = make([]value.Value, len(r.GroupCols))
		}
		for i, c := range r.GroupCols {
			r.key[i] = row[c]
		}
		g = r.GroupFor(r.key)
	}
	for i, s := range r.Specs {
		if s.Col < 0 {
			g.Accs[i].AddCount(1)
		} else {
			g.Accs[i].AddFor(s.Func, row[s.Col])
		}
	}
}

// Merge folds a compatible partial result (same specs and grouping) into
// r and leaves other empty, ready to accumulate again (into the groups it
// had, emptied): an r without groups takes over other's.
func (r *Result) Merge(other *Result) {
	if other == nil {
		return
	}
	if r.Types == nil {
		r.Types = other.Types
	}
	if len(r.GroupCols) == 0 {
		for i := range r.Global().Accs {
			r.Global().Accs[i].Merge(&other.Global().Accs[i])
		}
		clear(other.Global().Accs)
		return
	}
	if len(r.Groups) == 0 {
		r.Groups, r.index, r.chain, other.Groups, other.index, other.chain = other.Groups, other.index, other.chain, r.Groups, r.index, r.chain
		return
	}
	for _, g := range other.Groups {
		dst := r.GroupFor(g.Key)
		for i := range dst.Accs {
			dst.Accs[i].Merge(&g.Accs[i])
		}
		clear(g.Accs)
	}
	other.Groups, other.chain = other.Groups[:0], other.chain[:0]
	clear(other.index)
}

// Fold is the generic hash aggregation: it folds into r, one row at a
// time (AddRow), the rows of the block scan that scan returns for the
// columns r's grouping and specs name (grouping columns first, at least one
// column). Ranges of per consecutive blocks each accumulate into a partial
// result of their own, and the partials are merged into r in block order as
// the ranges complete, then reused (exec.Reduce): the result is a function
// of the data and per alone, never of the pool size, groups follow their
// first appearance in scan order, and no more partials are alive than the
// workers hold. A stopped scan leaves r partial, to be discarded.
func (r *Result) Fold(per int, scan func(cols []int) exec.Blocks) {
	cols := slices.Clone(r.GroupCols)
	for _, s := range r.Specs {
		if s.Col >= 0 && !slices.Contains(cols, s.Col) {
			cols = append(cols, s.Col)
		}
	}
	if len(cols) == 0 {
		cols = []int{0} // COUNT(*) alone: any column counts the rows
	}
	width := slices.Max(cols) + 1 // a block row is read into a row of table positions
	type partial struct {
		*Result
		row []value.Value
	}
	b := scan(cols)
	exec.Reduce(b.Ctx, b.N, per, func() partial { return partial{NewResult(r.Specs, r.GroupCols), make([]value.Value, width)} }, func(w int, p partial, i int) bool {
		colVals := b.Block(w, i)
		for k := 0; len(colVals) > 0 && k < len(colVals[0]); k++ {
			for j, c := range cols {
				p.row[c] = colVals[j][k]
			}
			p.AddRow(p.row)
		}
		return true
	}, func(p partial) { r.Merge(p.Result) })
	b.Release()
}

// Rows materializes the result as output rows: group-key columns followed
// by one value per aggregate spec.
func (r *Result) Rows() [][]value.Value {
	out := make([][]value.Value, 0, len(r.Groups))
	for _, g := range r.Groups {
		row := make([]value.Value, 0, len(g.Key)+len(r.Specs))
		row = append(row, g.Key...)
		for i := range r.Specs {
			row = append(row, r.final(g, i))
		}
		out = append(out, row)
	}
	return out
}

// Columns materializes the result column-major, in Rows' order.
func (r *Result) Columns() [][]value.Value {
	nk := len(r.GroupCols)
	cols := make([][]value.Value, nk+len(r.Specs))
	for j := range cols {
		cols[j] = make([]value.Value, len(r.Groups))
	}
	for k, g := range r.Groups {
		for j, v := range g.Key {
			cols[j][k] = v
		}
		for i := range r.Specs {
			cols[nk+i][k] = r.final(g, i)
		}
	}
	return cols
}

// final is group g's value of spec i, typed when Types is set.
func (r *Result) final(g *Group, i int) value.Value {
	if r.Types != nil {
		return g.Accs[i].FinalTyped(r.Specs[i].Func, r.Types[i])
	}
	return g.Accs[i].Final(r.Specs[i].Func)
}
