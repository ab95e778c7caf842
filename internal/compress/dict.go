// Package compress implements the dictionary encoding and bit-packing
// primitives of the column store: a sorted, read-optimized dictionary for
// the main fragment, an unsorted append-friendly dictionary for the delta
// fragment, and fixed-width bit-packed code vectors. It also defines the
// compression-rate metric that the paper's cost model consumes through
// f_compression.
package compress

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"hybridstore/internal/value"
)

// store is the typed storage both dictionaries keep their distinct values
// in, indexed by code: one slice in the column's own representation —
// ints for INTEGER, BIGINT and DATE, floats for DOUBLE, strs for VARCHAR —
// and nothing per row. A value.Value is boxed only on the way out.
type store struct {
	typ      value.Type
	ints     []int64
	floats   []float64
	strs     []string
	strBytes int // summed length of strs
}

// Len returns the number of distinct values.
func (s *store) Len() int { return len(s.ints) + len(s.floats) + len(s.strs) }

// Value returns the value for a code. Codes are dense in [0, Len).
func (s *store) Value(code uint32) value.Value {
	switch s.typ {
	case value.Varchar:
		return value.NewVarchar(s.strs[code])
	case value.Double:
		return value.NewDouble(s.floats[code])
	default:
		return value.FromBits(s.typ, uint64(s.ints[code]))
	}
}

// Word returns the fixed-width payload (Value.Bits) of a non-VARCHAR code.
func (s *store) Word(code uint32) uint64 {
	if s.typ == value.Double {
		return math.Float64bits(s.floats[code])
	}
	return uint64(s.ints[code])
}

// Bytes returns the logical payload of the dictionary: the sum of its
// values' Value.Bytes.
func (s *store) Bytes() int {
	if s.typ == value.Varchar {
		return s.strBytes
	}
	return s.Len() * value.Null(s.typ).Bytes()
}

// residentBytes is what the storage occupies: slice capacities, string
// headers and string payloads.
func (s *store) residentBytes() int {
	return 8*cap(s.ints) + 8*cap(s.floats) + 16*cap(s.strs) + s.strBytes
}

// Dict is a sorted, immutable dictionary mapping codes to values, exactly
// Len values long. Because the values are sorted, order-preserving code
// comparisons can answer range predicates directly on the encoded
// representation — this is the "implicit index" the paper ascribes to the
// column store. DOUBLE entries that compare equal but differ in their bits
// (-0.0 and 0.0, NaN payloads) are distinct entries, ordered by bit pattern.
type Dict struct {
	store
	viewOnce sync.Once
	view     []float64
}

// NewDict builds a sorted dictionary of the given type from the distinct
// values of vals. NULLs are excluded; callers track them separately.
func NewDict(typ value.Type, vals []value.Value) *Dict {
	u := NewUDict(typ)
	for _, v := range vals {
		if !v.IsNull() {
			u.GetOrAdd(v)
		}
	}
	d, _ := Merge(&Dict{store: store{typ: typ}}, u, nil)
	return d
}

// Floats returns the dictionary widened to float64 for aggregation, indexed
// by code (Value.Float of every entry): the storage itself for DOUBLE, a
// view built on first use otherwise. Read-only.
func (d *Dict) Floats() []float64 {
	if d.typ == value.Double {
		return d.floats
	}
	d.viewOnce.Do(func() {
		d.view = make([]float64, d.Len())
		for i, n := range d.ints {
			d.view[i] = float64(n)
		}
	})
	return d.view
}

// ResidentBytes is the memory the dictionary occupies, by capacity.
func (d *Dict) ResidentBytes() int { return d.residentBytes() + 8*cap(d.view) }

// bounds returns the codes [first, after) of the sorted vals that compare
// equal to x.
func bounds[T cmp.Ordered](vals []T, x T) (first, after int) {
	first, _ = slices.BinarySearch(vals, x)
	for after = first; after < len(vals) && cmp.Compare(vals[after], x) == 0; after++ {
	}
	return first, after
}

// Code finds the code of v via binary search.
func (d *Dict) Code(v value.Value) (uint32, bool) {
	lo, hi := d.CodeRange(RangeEq, v)
	for c := lo; c < hi; c++ {
		if d.typ != value.Double || math.Float64bits(d.floats[c]) == v.Bits() {
			return c, true
		}
	}
	return 0, false
}

// CodeRange returns the half-open code interval [lo, hi) of values
// satisfying op against v, a non-NULL value of the dictionary's type. This
// turns a value predicate into an integer range check on codes.
func (d *Dict) CodeRange(op CodeRangeOp, v value.Value) (lo, hi uint32) {
	if v.Type() != d.typ {
		panic(fmt.Sprintf("compress: %s value against a %s dictionary", v.Type(), d.typ))
	}
	var first, after int
	switch d.typ {
	case value.Varchar:
		first, after = bounds(d.strs, v.Varchar())
	case value.Double:
		first, after = bounds(d.floats, v.Double())
	default:
		first, after = bounds(d.ints, v.Int())
	}
	switch op {
	case RangeEq:
		return uint32(first), uint32(after)
	case RangeLt:
		return 0, uint32(first)
	case RangeLe:
		return 0, uint32(after)
	case RangeGt:
		return uint32(after), uint32(d.Len())
	case RangeGe:
		return uint32(first), uint32(d.Len())
	default:
		return 0, 0
	}
}

// CodeRangeOp selects the comparison for CodeRange.
type CodeRangeOp uint8

const (
	RangeEq CodeRangeOp = iota
	RangeLt
	RangeLe
	RangeGt
	RangeGe
)

// UDict is an unsorted dictionary used by the write-optimized delta
// fragment. Codes are assigned in arrival order; lookup is via a hash map
// on the typed value — the bit pattern of a fixed-width value, the string
// of a VARCHAR — so inserts are O(1) but there is no order-preserving code
// comparison.
type UDict struct {
	store
	byBits map[uint64]uint32
	byStr  map[string]uint32
}

// NewUDict returns an empty unsorted dictionary for values of type typ.
func NewUDict(typ value.Type) *UDict {
	d := &UDict{store: store{typ: typ}}
	if typ == value.Varchar {
		d.byStr = make(map[string]uint32)
	} else {
		d.byBits = make(map[uint64]uint32)
	}
	return d
}

// Code returns the existing code for v.
func (d *UDict) Code(v value.Value) (code uint32, ok bool) {
	if d.typ == value.Varchar {
		code, ok = d.byStr[v.Varchar()]
	} else {
		code, ok = d.byBits[v.Bits()]
	}
	return code, ok
}

// GetOrAdd returns the code for v, inserting it if new.
func (d *UDict) GetOrAdd(v value.Value) uint32 {
	if c, ok := d.Code(v); ok {
		return c
	}
	c := uint32(d.Len())
	switch d.typ {
	case value.Varchar:
		s := v.Varchar()
		d.strs = append(d.strs, s)
		d.strBytes += len(s)
		d.byStr[s] = c
	case value.Double:
		d.floats = append(d.floats, v.Double())
		d.byBits[v.Bits()] = c
	default:
		d.ints = append(d.ints, v.Int())
		d.byBits[v.Bits()] = c
	}
	return c
}

// udictEntryBytes estimates what one entry costs the lookup map beyond the
// typed storage: key, code and bucket overhead.
const udictEntryBytes = 24

// ResidentBytes is the memory the dictionary occupies: the storage by
// capacity plus an estimate of the lookup map.
func (d *UDict) ResidentBytes() int { return d.residentBytes() + udictEntryBytes*d.Len() }

// Merge folds the unsorted dictionary delta into the sorted dictionary main
// of the same type. refs counts the references to every old code — main
// codes first, then delta codes offset by main.Len() — and an unreferenced
// value does not enter the result; nil keeps everything. merged holds each
// remaining value once, sorted, in storage exactly Len long; to maps every
// referenced old code (indexed like refs) to its code in merged. The cost
// is linear in the two dictionaries plus sorting delta's values.
func Merge(main *Dict, delta *UDict, refs []int) (merged *Dict, to []uint32) {
	merged = &Dict{store: store{typ: main.typ}}
	switch main.typ {
	case value.Varchar:
		merged.strs, to = mergeSorted(main.strs, delta.strs, refs, cmp.Compare[string])
		for _, s := range merged.strs {
			merged.strBytes += len(s)
		}
	case value.Double:
		merged.floats, to = mergeSorted(main.floats, delta.floats, refs, func(a, b float64) int {
			return cmp.Or(cmp.Compare(a, b), cmp.Compare(int64(math.Float64bits(a)), int64(math.Float64bits(b))))
		})
	default:
		merged.ints, to = mergeSorted(main.ints, delta.ints, refs, cmp.Compare[int64])
	}
	return merged, to
}

// mergeSorted merges a, sorted by the total order order, with the unsorted
// b (see Merge): the first pass numbers the result, the second fills it.
func mergeSorted[T any](a, b []T, refs []int, order func(x, y T) int) (out []T, to []uint32) {
	used := func(code int) bool { return refs == nil || refs[code] > 0 }
	sorted := make([]int, 0, len(b)) // referenced codes of b, by value
	for c := range b {
		if used(len(a) + c) {
			sorted = append(sorted, c)
		}
	}
	slices.SortFunc(sorted, func(x, y int) int { return order(b[x], b[y]) })
	to = make([]uint32, len(a)+len(b))
	n := uint32(0)
	for i, k := 0, 0; ; n++ {
		for i < len(a) && !used(i) {
			i++
		}
		if i == len(a) && k == len(sorted) {
			break
		}
		c := -1 // a's next value against b's: the lower one is numbered, both if equal
		if i == len(a) {
			c = 1
		} else if k < len(sorted) {
			c = order(a[i], b[sorted[k]])
		}
		if c <= 0 {
			to[i] = n
			i++
		}
		if c >= 0 {
			to[len(a)+sorted[k]] = n
			k++
		}
	}
	out = make([]T, n)
	for c := range a {
		if used(c) {
			out[to[c]] = a[c]
		}
	}
	for _, c := range sorted {
		out[to[len(a)+c]] = b[c]
	}
	return out, to
}
