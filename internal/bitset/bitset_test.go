package bitset

import (
	"math/rand"
	"testing"
)

func TestSetGetClear(t *testing.T) {
	b := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	b.Clear(64)
	if b.Get(64) || !b.Get(63) || !b.Get(65) {
		t.Error("Clear touched neighbors")
	}
}

// count is the number of set bits, read the way scans read them.
func count(b Bits) int { return len(b.AppendSet(nil, 0, 64*len(b))) }

func TestFillOnesAndCount(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128, 1000} {
		b := New(n + 70) // extra words that must stay zero
		b.FillOnes(n)
		if got := count(b); got != n {
			t.Errorf("FillOnes(%d): Count = %d", n, got)
		}
		if n > 0 && (!b.Get(0) || !b.Get(n-1)) {
			t.Errorf("FillOnes(%d): boundary bits unset", n)
		}
		if b.Get(n) {
			t.Errorf("FillOnes(%d): bit %d leaked", n, n)
		}
	}
	// FillOnes must also clear previously set high bits.
	b := New(256)
	b.FillOnes(256)
	b.FillOnes(10)
	if n := count(b); n != 10 {
		t.Errorf("re-FillOnes left stale bits: %d", n)
	}
}

func TestAndAndNot(t *testing.T) {
	a, b := New(128), New(128)
	a.FillOnes(100)
	for i := 0; i < 128; i += 3 {
		b.Set(i)
	}
	a.And(b)
	for i := 0; i < 128; i++ {
		want := i < 100 && i%3 == 0
		if a.Get(i) != want {
			t.Fatalf("And: bit %d = %v", i, a.Get(i))
		}
	}
}

func TestRangeOpsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 500
	b := New(n)
	ref := make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			b.Set(i)
			ref[i] = true
		}
	}
	for trial := 0; trial < 200; trial++ {
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n+1-lo)
		var wantSet []int32
		for i := lo; i < hi; i++ {
			if ref[i] {
				wantSet = append(wantSet, int32(i))
			}
		}
		got := b.AppendSet(nil, lo, hi)
		if len(got) != len(wantSet) {
			t.Fatalf("AppendSet(%d,%d) len = %d, want %d", lo, hi, len(got), len(wantSet))
		}
		for i := range got {
			if got[i] != wantSet[i] {
				t.Fatalf("AppendSet(%d,%d)[%d] = %d, want %d", lo, hi, i, got[i], wantSet[i])
			}
		}
	}
}

func TestGrow(t *testing.T) {
	b := New(64)
	b.Set(10)
	b = Grow(b, 1000)
	if !b.Get(10) || count(b) != 1 {
		t.Error("Grow lost contents")
	}
	if len(b) != Words(1000) {
		t.Errorf("Grow len = %d", len(b))
	}
	// Growing within capacity must zero the newly exposed words.
	c := make(Bits, 1, 8)
	c[0] = 5
	cap3 := c[:3]
	cap3[2] = ^uint64(0) // dirty word beyond len
	c = c[:1]
	c = Grow(c, 130)
	if c[2] != 0 {
		t.Error("Grow exposed dirty word")
	}
}
