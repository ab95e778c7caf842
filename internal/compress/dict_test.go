package compress

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hybridstore/internal/value"
)

// edgeValues are the values of a type a dictionary must keep apart and in
// order: extremes, -0.0 beside 0.0, NaN, empty and 64 KB strings.
func edgeValues(typ value.Type) []value.Value {
	switch typ {
	case value.Double:
		return []value.Value{value.NewDouble(math.NaN()), value.NewDouble(math.Copysign(0, -1)), value.NewDouble(0),
			value.NewDouble(math.Inf(-1)), value.NewDouble(math.Inf(1)), value.NewDouble(-math.MaxFloat64)}
	case value.Varchar:
		return []value.Value{value.NewVarchar(""), value.NewVarchar(strings.Repeat("x", 64<<10)), value.NewVarchar("\x00")}
	default:
		return []value.Value{value.FromBits(typ, 1<<63), value.FromBits(typ, 0), value.FromBits(typ, math.MaxInt64)}
	}
}

func randomValue(rng *rand.Rand, typ value.Type) value.Value {
	if edges := edgeValues(typ); rng.Intn(4) == 0 {
		return edges[rng.Intn(len(edges))]
	}
	switch typ {
	case value.Double:
		return value.NewDouble(float64(rng.Intn(40)-20) / 4)
	case value.Varchar:
		return value.NewVarchar(string(rune('a' + rng.Intn(20))))
	default:
		return value.FromBits(typ, uint64(int64(rng.Intn(40)-20)))
	}
}

// dictOrder is the dictionary's total order written the naive way: by
// value.Compare, equal values of different bit patterns by the pattern.
func dictOrder(a, b value.Value) bool {
	if c := value.Compare(a, b); c != 0 {
		return c < 0
	}
	return int64(a.Bits()) < int64(b.Bits())
}

func sameDictEntry(a, b value.Value) bool {
	return a.Type() == b.Type() && a.Bits() == b.Bits() && a.Varchar() == b.Varchar()
}

// TestMergeAgainstNaive merges random sorted and unsorted dictionaries of
// every type under random reference counts and checks the result against
// sorting the referenced values: contents, order, translation, exact size,
// lookups, payload accounting and the float view.
func TestMergeAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, typ := range value.Types {
		for round := 0; round < 200; round++ {
			var mainVals []value.Value
			for i := rng.Intn(12); i > 0; i-- {
				mainVals = append(mainVals, randomValue(rng, typ))
			}
			main := NewDict(typ, mainVals)
			delta := NewUDict(typ)
			for i := rng.Intn(12); i > 0; i-- {
				delta.GetOrAdd(randomValue(rng, typ))
			}
			old := func(code int) value.Value {
				if code < main.Len() {
					return main.Value(uint32(code))
				}
				return delta.Value(uint32(code - main.Len()))
			}
			var refs []int
			if round%4 != 0 {
				refs = make([]int, main.Len()+delta.Len())
				for c := range refs {
					refs[c] = rng.Intn(3)
				}
			}
			var want []value.Value
			for c := 0; c < main.Len()+delta.Len(); c++ {
				if refs == nil || refs[c] > 0 {
					want = append(want, old(c))
				}
			}
			sort.Slice(want, func(i, j int) bool { return dictOrder(want[i], want[j]) })
			n := 0
			for i, v := range want {
				if i == 0 || !sameDictEntry(v, want[n-1]) {
					want[n] = v
					n++
				}
			}
			want = want[:n]

			merged, to := Merge(main, delta, refs)
			if merged.Len() != len(want) {
				t.Fatalf("%s round %d: merged %d values, want %d", typ, round, merged.Len(), len(want))
			}
			if c := cap(merged.ints) + cap(merged.floats) + cap(merged.strs); c != merged.Len() {
				t.Errorf("%s round %d: storage holds %d slots for %d values", typ, round, c, merged.Len())
			}
			bytes := 0
			floats := merged.Floats()
			for i, w := range want {
				got := merged.Value(uint32(i))
				if !sameDictEntry(got, w) {
					t.Fatalf("%s round %d: entry %d is %v, want %v", typ, round, i, got, w)
				}
				if c, ok := merged.Code(w); !ok || int(c) != i {
					t.Errorf("%s round %d: Code(%v) = %d, %v; want %d", typ, round, w, c, ok, i)
				}
				if f := floats[i]; f != w.Float() && !(math.IsNaN(f) && math.IsNaN(w.Float())) {
					t.Errorf("%s round %d: Floats()[%d] = %v, want %v", typ, round, i, f, w.Float())
				}
				bytes += w.Bytes()
			}
			if merged.Bytes() != bytes {
				t.Errorf("%s round %d: Bytes() = %d, values sum to %d", typ, round, merged.Bytes(), bytes)
			}
			for c := 0; c < main.Len()+delta.Len(); c++ {
				if (refs == nil || refs[c] > 0) && !sameDictEntry(merged.Value(to[c]), old(c)) {
					t.Errorf("%s round %d: old code %d (%v) translates to %v", typ, round, c, old(c), merged.Value(to[c]))
				}
			}
			probe := randomValue(rng, typ)
			for op, keep := range map[CodeRangeOp]func(c int) bool{
				RangeEq: func(c int) bool { return c == 0 }, RangeLt: func(c int) bool { return c < 0 },
				RangeLe: func(c int) bool { return c <= 0 }, RangeGt: func(c int) bool { return c > 0 },
				RangeGe: func(c int) bool { return c >= 0 },
			} {
				lo, hi := merged.CodeRange(op, probe)
				for i, w := range want {
					if in := uint32(i) >= lo && uint32(i) < hi; in != keep(value.Compare(w, probe)) {
						t.Errorf("%s round %d: CodeRange(%d, %v) = [%d,%d) disagrees with Compare on entry %d (%v)",
							typ, round, op, probe, lo, hi, i, w)
					}
				}
			}
		}
	}
}

// TestUDictKeysOnBits: the delta dictionary tells apart what Value.Equal
// tells apart — NaN is one entry, -0.0 and 0.0 are two.
func TestUDictKeysOnBits(t *testing.T) {
	d := NewUDict(value.Double)
	nan, negZero, zero := value.NewDouble(math.NaN()), value.NewDouble(math.Copysign(0, -1)), value.NewDouble(0)
	if d.GetOrAdd(nan) != 0 || d.GetOrAdd(negZero) != 1 || d.GetOrAdd(zero) != 2 || d.GetOrAdd(nan) != 0 {
		t.Errorf("NaN, -0.0 and 0.0 must be three entries, found again by their bits: %d entries", d.Len())
	}
	if got := d.Value(1); !sameDictEntry(got, negZero) {
		t.Errorf("Value(1) = %v, want -0", got)
	}
	if d.Bytes() != 24 {
		t.Errorf("Bytes() = %d, want 24", d.Bytes())
	}
}
