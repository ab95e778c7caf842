// Package exec provides the process-wide query-execution worker pool and
// the morsel-driven parallel loop the storage layers run scans and
// aggregations on.
//
// The pool is a fixed set of slots (default GOMAXPROCS) shared by two
// kinds of work: statement admission (the network server blocks one slot
// per executing statement) and intra-query helpers (a parallel scan
// try-acquires extra slots for additional workers). Helpers never block —
// when no slot is free the caller simply does the work on its own
// goroutine, and the loop takes a helper on when a slot is freed — so
// sharing one pool between admission control and morsel parallelism
// cannot deadlock, and the total number of goroutines doing query work
// stays bounded by the pool size: a lone analytical query fans out across
// every core, while a saturated server runs one statement per slot with
// no oversubscription.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hybridstore/internal/trace"
)

// Pool is a bounded set of execution slots.
//
// The pool distinguishes three task states so observers (and drain
// logic) can tell them apart: queued (blocked in Acquire waiting for a
// slot), running (holding a slot) and done (cumulative completed slot
// holds). Before these counters existed the queue depth was
// unobservable — a goroutine parked in Acquire was indistinguishable
// from one actively running, so a saturated pool and an idle one with
// a long admission queue reported the same InUse.
type Pool struct {
	size  int
	slots chan struct{}

	queued     atomic.Int64 // goroutines blocked in Acquire
	done       atomic.Int64 // cumulative released slot holds
	peakQueued atomic.Int64 // high-water mark of queued
}

// PoolStats is a point-in-time view of pool activity.
type PoolStats struct {
	Size       int   // configured slots
	InUse      int   // slots currently held (running tasks + helpers)
	Queued     int   // goroutines blocked in Acquire right now
	Done       int64 // cumulative completed slot holds
	PeakQueued int64 // high-water mark of Queued since pool creation
}

// Stats returns current pool activity counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Size:       p.size,
		InUse:      len(p.slots),
		Queued:     int(p.queued.Load()),
		Done:       p.done.Load(),
		PeakQueued: p.peakQueued.Load(),
	}
}

// NewPool creates a pool with n slots; n <= 0 means GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{size: n, slots: make(chan struct{}, n)}
}

// Size returns the number of slots.
func (p *Pool) Size() int { return p.size }

// Acquire blocks until a slot is free (statement admission) or ctx is
// done, returning ctx.Err() in the latter case. While blocked the
// caller counts as queued in Stats.
func (p *Pool) Acquire(ctx context.Context) error {
	// Fast path: a free slot means no queueing at all.
	select {
	case p.slots <- struct{}{}:
		return nil
	default:
	}
	q := p.queued.Add(1)
	for {
		peak := p.peakQueued.Load()
		if q <= peak || p.peakQueued.CompareAndSwap(peak, q) {
			break
		}
	}
	defer p.queued.Add(-1)
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire grabs a slot only if one is free. Intra-query helpers use
// it so parallel loops degrade to inline execution instead of blocking.
func (p *Pool) TryAcquire() bool {
	select {
	case p.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot taken by Acquire or TryAcquire and counts the
// completed hold toward Stats().Done.
func (p *Pool) Release() {
	<-p.slots
	p.done.Add(1)
}

var (
	defaultMu   sync.Mutex
	defaultSize int
	defaultPool *Pool
)

// Default returns the shared process-wide pool, creating it on first use
// (GOMAXPROCS slots unless SetDefaultSize ran first).
func Default() *Pool {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultPool == nil {
		defaultPool = NewPool(defaultSize)
	}
	return defaultPool
}

// SetDefaultSize sizes the default pool (0 = GOMAXPROCS). Commands call
// it at startup from their -workers flag, before any query runs; calling
// it later replaces the pool for future Default() callers only.
func SetDefaultSize(n int) {
	defaultMu.Lock()
	defaultPool = NewPool(n)
	defaultMu.Unlock()
}

// Ctx carries one statement's execution resources through the storage
// layers: the pool its morsel loops may draw helper workers from and the
// cooperative cancellation hook derived from the statement context. A
// nil Ctx (or nil Pool) means serial execution with no cancellation —
// every method is nil-receiver safe.
type Ctx struct {
	Pool *Pool
	// Stop is polled at batch boundaries (roughly every 1024 rows); a
	// true return abandons the work and the partial result must be
	// discarded.
	Stop func() bool
	// Trace, when non-nil, collects morsel counts and per-worker busy
	// time from parallel loops. Nil (the default) keeps Morsels on its
	// uninstrumented fast path.
	Trace *trace.Trace
}

// Serial returns c without its pool: the same cancellation hook and trace,
// with every loop run on the calling goroutine.
func (c *Ctx) Serial() *Ctx { return &Ctx{Stop: c.StopHook(), Trace: c.Tracer()} }

// Tracer returns the Ctx's trace (nil for a nil Ctx or an untraced
// statement) so storage layers can report counters nil-safely.
func (c *Ctx) Tracer() *trace.Trace {
	if c == nil {
		return nil
	}
	return c.Trace
}

// Stopped reports whether the statement has been cancelled.
func (c *Ctx) Stopped() bool {
	return c != nil && c.Stop != nil && c.Stop()
}

// StopHook returns the raw cancellation hook (nil for a nil Ctx), for
// handing to serial code paths that take a stop func directly.
func (c *Ctx) StopHook() func() bool {
	if c == nil {
		return nil
	}
	return c.Stop
}

// Workers returns the maximum number of workers a Morsels(n, ...) loop
// may use (including the caller); callers size per-worker state with it.
func (c *Ctx) Workers(n int) int {
	if c == nil || c.Pool == nil {
		return 1
	}
	return max(1, min(n, c.Pool.Size()))
}

// Morsels runs fn(worker, morsel) for every morsel in [0, n), claiming
// morsels from a shared counter. The caller is worker 0; before every claim
// a worker recruits one more helper from the pool while ids below
// Workers(n) and more morsels than the claim remain, so a loop started on a
// full pool widens when a slot is freed (a statement blocked in Acquire
// gets the slot first). Helper ids are handed out once each, so per-worker
// state indexed by them is never shared. fn returning false — or Stop,
// polled before every claim — stops all workers after their current
// morsel. fn must be safe for concurrent calls with distinct worker ids.
func (c *Ctx) Morsels(n int, fn func(worker, morsel int) bool) {
	if n <= 0 {
		return
	}
	l := &morselLoop{c: c, n: n, workers: c.Workers(n), fn: fn}
	l.run(0)
	l.wg.Wait()
	c.Tracer().AddMorselRun(min(l.next.Load(), int64(n)), min(int(l.helpers.Load())+1, l.workers), l.workers)
}

// morselLoop is the state one Morsels call shares among its workers.
type morselLoop struct {
	c          *Ctx
	n, workers int
	fn         func(worker, morsel int) bool
	next       atomic.Int64 // the next morsel to claim: claims so far
	helpers    atomic.Int64 // helper ids handed out; may pass workers-1
	stopped    atomic.Bool
	wg         sync.WaitGroup
}

// recruit starts one more helper if an id is left, more than one morsel
// remains and the pool has a free slot.
func (l *morselLoop) recruit() {
	if l.helpers.Load() >= int64(l.workers-1) || l.n-int(l.next.Load()) < 2 || !l.c.Pool.TryAcquire() {
		return
	}
	w := int(l.helpers.Add(1))
	if w >= l.workers { // another worker took the last id first
		l.c.Pool.Release()
		return
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		defer l.c.Pool.Release()
		l.run(w)
	}()
}

// run claims and runs morsels as worker until none is left or the loop
// stops.
func (l *morselLoop) run(worker int) {
	tr, stop := l.c.Tracer(), l.c.StopHook()
	start := time.Time{}
	if tr != nil {
		start = time.Now()
	}
	for !l.stopped.Load() && (stop == nil || !stop()) {
		l.recruit()
		m := int(l.next.Add(1)) - 1
		if m >= l.n {
			break
		}
		if !l.fn(worker, m) {
			l.stopped.Store(true)
			break
		}
	}
	if tr != nil {
		tr.AddWorkerBusy(worker, time.Since(start))
	}
}
