package exec

import (
	"sync"
	"sync/atomic"
)

// Reduce is the ordered reduction every parallel aggregate folds its
// partial results through. The n morsels are cut into fixed ranges of per
// consecutive morsels; each range is accumulated, morsel by morsel in
// ascending order, into a partial of its own by add, and finished
// partials are handed to merge strictly in range order, one at a time.
// How the additions of a float SUM associate is therefore a function of n
// and per alone — never of the pool size or of which worker ran which
// range — so a 1-slot pool and an N-slot pool produce bit-identical
// results. Callers derive per from the data (block count, group
// cardinality), never from the pool.
//
// Partials are recycled: merge must leave its argument empty, ready to
// accumulate a later range. newPartial and add run concurrently on
// distinct workers (add with distinct worker ids and distinct partials);
// merge calls are serialized. Stop is polled before every morsel; when it
// fires, or add returns false, later ranges stay unmerged and the caller
// must discard what it has.
func Reduce[P any](c *Ctx, n, per int, newPartial func() P, add func(worker int, p P, morsel int) bool, merge func(p P)) {
	if n <= 0 {
		return
	}
	per = max(per, 1)
	ranges := (n + per - 1) / per
	stop := c.StopHook()
	// run accumulates range r into p; false means stopped.
	run := func(w, r int, p P) bool {
		first := r * per
		for m, end := first, min(n, first+per); m < end; m++ {
			if m > first && stop != nil && stop() { // Morsels polled before the range's first morsel
				return false
			}
			if !add(w, p, m) {
				return false
			}
		}
		return true
	}
	if c.Workers(ranges) <= 1 {
		p := newPartial()
		c.Morsels(ranges, func(w, r int) bool {
			if !run(w, r, p) {
				return false
			}
			merge(p)
			return true
		})
		return
	}

	// Workers never wait for one another: a finished partial is published
	// in its range's slot, and whoever finds the next range in line ready
	// — and the merge lock free — merges as far as the line is complete.
	// Whatever is still pending when the workers are done is merged then.
	var (
		done    = make([]P, ranges)
		ready   = make([]atomic.Bool, ranges)
		next    atomic.Int64 // first range not merged yet; written under merging
		merging sync.Mutex
		// Recycled partials. Each worker holds one and a few wait in line
		// behind a slow range; twice the worker count covers both, and
		// overflow is left to the GC.
		free = make(chan P, 2*c.Workers(ranges))
	)
	drain := func() {
		for r := int(next.Load()); r < ranges && ready[r].Load(); r++ {
			merge(done[r])
			select {
			case free <- done[r]:
			default:
			}
			next.Store(int64(r + 1))
		}
	}
	pending := func() bool {
		r := int(next.Load())
		return r < ranges && ready[r].Load()
	}
	c.Morsels(ranges, func(w, r int) bool {
		var p P
		select {
		case p = <-free:
		default:
			p = newPartial()
		}
		if !run(w, r, p) {
			return false
		}
		done[r] = p
		ready[r].Store(true)
		for pending() && merging.TryLock() {
			drain()
			merging.Unlock()
		}
		return true
	})
	drain()
}
