package main

import (
	"slices"
	"time"
)

// A series is the exact latency samples of one client for one statement
// class, in arrival order. Each client goroutine owns its series, so
// recording is an append to a pre-sized slice with no synchronisation.
type series struct {
	class string
	ns    []int64
}

func newSeries(class string, capacity int) *series {
	return &series{class: class, ns: make([]int64, 0, capacity)}
}

func (s *series) observe(d time.Duration) { s.ns = append(s.ns, d.Nanoseconds()) }

// A recorder collects the series of every client of one run.
type recorder struct {
	all []*series
}

func (r *recorder) add(s *series) *series {
	r.all = append(r.all, s)
	return s
}

// pick returns the series whose class is one of classes.
func (r *recorder) pick(classes ...string) []*series {
	var out []*series
	for _, s := range r.all {
		for _, c := range classes {
			if s.class == c {
				out = append(out, s)
			}
		}
	}
	return out
}

// count is the number of samples over all series.
func count(ss []*series) int {
	n := 0
	for _, s := range ss {
		n += len(s.ns)
	}
	return n
}

// merged returns every sample of ss, sorted.
func merged(ss []*series) []int64 {
	out := make([]int64, 0, count(ss))
	for _, s := range ss {
		out = append(out, s.ns...)
	}
	slices.Sort(out)
	return out
}

// percentile is the nearest-rank percentile of a sorted sample: the
// smallest value with at least q of the samples at or below it.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func mean(ss []*series) float64 {
	n, sum := 0, int64(0)
	for _, s := range ss {
		for _, v := range s.ns {
			sum += v
		}
		n += len(s.ns)
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// trimmedMean is the mean of a sorted sample with its slowest 1-keep
// left out (never everything). It is the benchmark's slow-path
// statistic: unlike a high percentile it moves in proportion when the
// share of operations that wait behind a fold or a lock changes, and
// unlike the plain mean it does not hang on how many of a run's few
// merge- or checkpoint-sized stalls happened to land on the class.
func trimmedMean(sorted []int64, keep float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	n := max(1, int(float64(len(sorted))*keep+1e-9))
	sum := int64(0)
	for _, v := range sorted[:n] {
		sum += v
	}
	return float64(sum) / float64(n)
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
