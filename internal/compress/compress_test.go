package compress

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hybridstore/internal/value"
)

func intVals(xs ...int64) []value.Value {
	out := make([]value.Value, len(xs))
	for i, x := range xs {
		out[i] = value.NewInt(x)
	}
	return out
}

func TestNewDictSortedDistinct(t *testing.T) {
	d := NewDict(value.Integer, intVals(5, 3, 5, 1, 3, 9))
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	want := []int64{1, 3, 5, 9}
	for i, w := range want {
		if d.Value(uint32(i)).Int() != w {
			t.Errorf("Value(%d) = %v, want %d", i, d.Value(uint32(i)), w)
		}
	}
}

func TestDictExcludesNull(t *testing.T) {
	d := NewDict(value.Integer, []value.Value{value.NewInt(1), value.Null(value.Integer), value.NewInt(2)})
	if d.Len() != 2 {
		t.Errorf("NULL should be excluded: len=%d", d.Len())
	}
}

func TestDictCode(t *testing.T) {
	d := NewDict(value.Integer, intVals(10, 20, 30))
	if c, ok := d.Code(value.NewInt(20)); !ok || c != 1 {
		t.Errorf("Code(20) = %d, %v", c, ok)
	}
	if _, ok := d.Code(value.NewInt(25)); ok {
		t.Error("Code(25) should miss")
	}
}

func TestDictCodeRange(t *testing.T) {
	d := NewDict(value.Integer, intVals(10, 20, 30, 40))
	cases := []struct {
		op     CodeRangeOp
		v      int64
		lo, hi uint32
	}{
		{RangeEq, 20, 1, 2},
		{RangeEq, 25, 2, 2}, // empty
		{RangeLt, 30, 0, 2},
		{RangeLe, 30, 0, 3},
		{RangeGt, 20, 2, 4},
		{RangeGe, 20, 1, 4},
		{RangeLt, 5, 0, 0},
		{RangeGe, 45, 4, 4},
	}
	for _, c := range cases {
		lo, hi := d.CodeRange(c.op, value.NewInt(c.v))
		if lo != c.lo || hi != c.hi {
			t.Errorf("CodeRange(%v, %d) = [%d,%d), want [%d,%d)", c.op, c.v, lo, hi, c.lo, c.hi)
		}
	}
}

func TestDictVarchar(t *testing.T) {
	d := NewDict(value.Varchar, []value.Value{value.NewVarchar("b"), value.NewVarchar("a"), value.NewVarchar("b")})
	if d.Len() != 2 || d.Value(0).Varchar() != "a" {
		t.Errorf("varchar dict broken: %v %v", d.Value(0), d.Value(1))
	}
}

func TestUDict(t *testing.T) {
	d := NewUDict(value.Integer)
	c1 := d.GetOrAdd(value.NewInt(100))
	c2 := d.GetOrAdd(value.NewInt(50))
	c3 := d.GetOrAdd(value.NewInt(100))
	if c1 != 0 || c2 != 1 || c3 != 0 {
		t.Errorf("codes = %d,%d,%d", c1, c2, c3)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	if v := d.Value(1); v.Int() != 50 {
		t.Errorf("Value(1) = %v", v)
	}
	if c, ok := d.Code(value.NewInt(50)); !ok || c != 1 {
		t.Errorf("Code(50) = %d, %v", c, ok)
	}
	if _, ok := d.Code(value.NewInt(1)); ok {
		t.Error("Code(1) should miss")
	}
	if d.Len() != 2 {
		t.Error("Values broken")
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]uint{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 256: 8, 257: 9, 1 << 20: 20}
	for d, w := range cases {
		if got := BitsFor(d); got != w {
			t.Errorf("BitsFor(%d) = %d, want %d", d, got, w)
		}
	}
}

func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, distinct := range []int{1, 2, 3, 7, 31, 100, 4096, 1 << 17} {
		n := 1000
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = uint32(rng.Intn(distinct))
		}
		p := Pack(codes, distinct)
		if p.Len() != n {
			t.Fatalf("Len = %d", p.Len())
		}
		for i, c := range codes {
			if got := p.Get(i); got != c {
				t.Fatalf("distinct=%d Get(%d) = %d, want %d", distinct, i, got, c)
			}
		}
		dst := make([]uint32, n)
		p.UnpackBlock(0, dst)
		for idx, code := range dst {
			if code != codes[idx] {
				t.Fatalf("UnpackBlock code %d at %d, want %d", code, idx, codes[idx])
			}
		}
	}
}

func TestPackWidthZero(t *testing.T) {
	p := Pack([]uint32{0, 0, 0}, 1)
	if p.width != 0 || p.SizeBytes() != 0 {
		t.Errorf("width-0 vector should occupy no payload: w=%d size=%d", p.width, p.SizeBytes())
	}
	if p.Get(2) != 0 {
		t.Error("width-0 Get should be 0")
	}
	dst := []uint32{7, 7, 7}
	p.UnpackBlock(0, dst)
	for i, c := range dst {
		if c != 0 {
			t.Errorf("width-0 UnpackBlock[%d] = %d", i, c)
		}
	}
}

func TestPackSizeBytes(t *testing.T) {
	p := Pack(make([]uint32, 64), 2) // 64 codes × 1 bit = 1 word
	if p.SizeBytes() != 8 {
		t.Errorf("SizeBytes = %d, want 8", p.SizeBytes())
	}
}

// Property: pack/unpack round-trips for arbitrary code slices.
func TestPackProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		codes := make([]uint32, len(raw))
		maxC := 0
		for i, r := range raw {
			codes[i] = uint32(r)
			if int(r) >= maxC {
				maxC = int(r) + 1
			}
		}
		p := Pack(codes, maxC)
		for i, c := range codes {
			if p.Get(i) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRate(t *testing.T) {
	if r := Rate(100, 30); r != 0.7 {
		t.Errorf("Rate(100,30) = %v", r)
	}
	if r := Rate(100, 150); r != 0 {
		t.Errorf("incompressible should clamp to 0: %v", r)
	}
	if r := Rate(0, 10); r != 0 {
		t.Errorf("empty input rate = %v", r)
	}
	if r := Rate(100, -1); r != 1 {
		t.Errorf("over-compression clamps to 1: %v", r)
	}
}

func TestColumnRate(t *testing.T) {
	// Few distinct values over many rows compress well.
	high := ColumnRate(1_000_000, 10, value.Bigint, 0)
	low := ColumnRate(1_000_000, 1_000_000, value.Bigint, 0)
	if high < 0.9 {
		t.Errorf("10 distinct over 1m rows should compress well: %v", high)
	}
	if low > 0.5 {
		t.Errorf("unique column should compress poorly: %v", low)
	}
	if high <= low {
		t.Errorf("rate ordering violated: %v <= %v", high, low)
	}
	if r := ColumnRate(0, 0, value.Integer, 0); r != 0 {
		t.Errorf("empty column rate = %v", r)
	}
	// Varchar uses the average length.
	v := ColumnRate(10000, 20, value.Varchar, 40)
	if v < 0.9 {
		t.Errorf("repetitive varchar should compress well: %v", v)
	}
}

// Property: column rate is monotonically non-increasing in distinct count.
func TestColumnRateMonotonic(t *testing.T) {
	rows := 100000
	prev := 2.0
	for _, d := range []int{1, 10, 100, 1000, 10000, 100000} {
		r := ColumnRate(rows, d, value.Bigint, 0)
		if r > prev {
			t.Errorf("rate increased with distinct: d=%d r=%v prev=%v", d, r, prev)
		}
		prev = r
	}
}

func TestUnpackBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, distinct := range []int{1, 2, 3, 31, 100, 4096, 1 << 17} {
		n := 1500
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = uint32(rng.Intn(distinct))
		}
		p := Pack(codes, distinct)
		dst := make([]uint32, n)
		for i := range dst {
			dst[i] = ^uint32(0) // must be overwritten
		}
		// Arbitrary block boundaries, including word-straddling starts.
		for _, blk := range [][2]int{{0, 64}, {1, 63}, {63, 130}, {500, 1000}, {0, n}, {n - 1, 1}, {n, 0}} {
			start, ln := blk[0], blk[1]
			p.UnpackBlock(start, dst[:ln])
			for i := 0; i < ln; i++ {
				if dst[i] != codes[start+i] {
					t.Fatalf("distinct=%d UnpackBlock(%d)[%d] = %d, want %d",
						distinct, start, i, dst[i], codes[start+i])
				}
			}
		}
	}
}
