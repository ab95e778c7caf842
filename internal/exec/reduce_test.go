package exec

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// reduceSum folds vals, one value per morsel, through Reduce and returns
// the sum's bits plus how many partials were allocated.
func reduceSum(c *Ctx, vals []float64, per int) (uint64, int64) {
	var total float64
	var allocs atomic.Int64
	Reduce(c, len(vals), per,
		func() *float64 { allocs.Add(1); return new(float64) },
		func(_ int, p *float64, m int) bool { *p += vals[m]; return true },
		func(p *float64) { total += *p; *p = 0 })
	return math.Float64bits(total), allocs.Load()
}

func TestReduceIsPoolSizeIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 10_000)
	for i := range vals {
		vals[i] = rng.Float64() * 1e6
	}
	for _, per := range []int{1, 7, 64, len(vals) + 1} {
		want, _ := reduceSum(nil, vals, per)
		for _, size := range []int{1, 2, 3, 8} {
			got, allocs := reduceSum(&Ctx{Pool: NewPool(size)}, vals, per)
			if got != want {
				t.Errorf("per=%d pool=%d: sum bits %x, serial %x", per, size, got, want)
			}
			if size == 1 && allocs != 1 {
				t.Errorf("per=%d: 1-slot pool allocated %d partials, want 1 (recycled)", per, allocs)
			}
		}
	}
}

func TestReduceStops(t *testing.T) {
	var seen, merged atomic.Int64
	c := &Ctx{Pool: NewPool(4), Stop: func() bool { return seen.Load() >= 10 }}
	Reduce(c, 1000, 4,
		func() struct{} { return struct{}{} },
		func(int, struct{}, int) bool { seen.Add(1); return true },
		func(struct{}) { merged.Add(1) })
	if !c.Stopped() {
		t.Fatal("stop hook did not fire")
	}
	if n := seen.Load(); n >= 1000 {
		t.Errorf("stopped reduction still visited all %d morsels", n)
	}
	if m := merged.Load(); m >= 250 {
		t.Errorf("stopped reduction merged all %d ranges", m)
	}
}
