package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.91, 100}, {0.99, 100}, {0.0, 10}, {1.0, 100}, {0.05, 10}, {0.11, 20}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

func TestTrimmedMean(t *testing.T) {
	s := make([]int64, 200)
	for i := range s {
		s[i] = 10
	}
	s[198], s[199] = 1_000_000, 5_000_000 // the slowest 1 %: two freak stalls
	if got := trimmedMean(s, 0.99); got != 10 {
		t.Errorf("trimmedMean = %v, want 10: the slowest 1 %% left out", got)
	}
	// Stalls on more than 1 % of the operations do count, in proportion.
	for i := 180; i < 198; i++ {
		s[i] = 110 // 18 of the kept 198 wait 100 longer
	}
	if got, want := trimmedMean(s, 0.99), 10+100*18.0/198; got != want {
		t.Errorf("trimmedMean = %v, want %v", got, want)
	}
	if got := trimmedMean([]int64{7}, 0.99); got != 7 {
		t.Errorf("trimmedMean of one sample = %v, want 7", got)
	}
	if got := trimmedMean(nil, 0.99); got != 0 {
		t.Errorf("trimmedMean of no samples = %v, want 0", got)
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("medianFloat even = %v, want 2.5", got)
	}
	if got := medianFloat([]float64{9, 1, 5}); got != 5 {
		t.Errorf("medianFloat odd = %v, want 5", got)
	}
	if got := medianFloat(nil); got != 0 {
		t.Errorf("medianFloat of nothing = %v, want 0", got)
	}
}

func TestRecorderPickAndMean(t *testing.T) {
	var r recorder
	a := r.add(newSeries("a", 4))
	b := r.add(newSeries("b", 4))
	a.observe(10)
	a.observe(30)
	b.observe(100)
	if n := count(r.pick("a")); n != 2 {
		t.Errorf("count(a) = %d, want 2", n)
	}
	if n := count(r.pick("a", "b")); n != 3 {
		t.Errorf("count(a,b) = %d, want 3", n)
	}
	if m := mean(r.pick("a")); m != 20 {
		t.Errorf("mean(a) = %v, want 20", m)
	}
	if got := merged(r.all); len(got) != 3 || got[0] != 10 || got[2] != 100 {
		t.Errorf("merged = %v", got)
	}
}
