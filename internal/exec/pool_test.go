package exec

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridstore/internal/trace"
)

func TestMorselsCoversAll(t *testing.T) {
	for _, size := range []int{1, 2, 4, 8} {
		p := NewPool(size)
		c := &Ctx{Pool: p}
		const n = 1000
		var hits [n]atomic.Int32
		var maxWorker atomic.Int32
		c.Morsels(n, func(w, m int) bool {
			hits[m].Add(1)
			for {
				cur := maxWorker.Load()
				if int32(w) <= cur || maxWorker.CompareAndSwap(cur, int32(w)) {
					break
				}
			}
			return true
		})
		for m := range hits {
			if got := hits[m].Load(); got != 1 {
				t.Fatalf("size=%d morsel %d ran %d times", size, m, got)
			}
		}
		if int(maxWorker.Load()) >= size {
			t.Fatalf("size=%d saw worker id %d", size, maxWorker.Load())
		}
	}
}

func TestMorselsNilCtxSerial(t *testing.T) {
	var c *Ctx
	seen := 0
	c.Morsels(10, func(w, m int) bool {
		if w != 0 || m != seen {
			t.Fatalf("nil ctx: got worker %d morsel %d, want 0 %d", w, m, seen)
		}
		seen++
		return true
	})
	if seen != 10 {
		t.Fatalf("nil ctx ran %d morsels, want 10", seen)
	}
}

func TestMorselsStopsOnFalse(t *testing.T) {
	c := &Ctx{Pool: NewPool(4)}
	var ran atomic.Int32
	c.Morsels(10000, func(w, m int) bool {
		return ran.Add(1) < 5
	})
	// All workers finish their current morsel after the stop flag, so a
	// few extra invocations are fine — but not the whole range.
	if n := ran.Load(); n < 5 || n > 50 {
		t.Fatalf("ran %d morsels after early stop", n)
	}
}

func TestMorselsHonorsStopHook(t *testing.T) {
	stopped := atomic.Bool{}
	c := &Ctx{Pool: NewPool(2), Stop: stopped.Load}
	var ran atomic.Int32
	c.Morsels(1000, func(w, m int) bool {
		if ran.Add(1) == 3 {
			stopped.Store(true)
		}
		return true
	})
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("stop hook ignored: ran all %d morsels", n)
	}
}

func TestAcquireBlocksAndCtxCancels(t *testing.T) {
	p := NewPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := p.Stats().InUse; n != 1 {
		t.Fatalf("InUse = %d, want 1", n)
	}
	if p.TryAcquire() {
		t.Fatal("TryAcquire succeeded on a full pool")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Acquire(ctx); err == nil {
		t.Fatal("Acquire returned nil on a full pool with expiring ctx")
	}
	p.Release()
	if !p.TryAcquire() {
		t.Fatal("TryAcquire failed on a free pool")
	}
	p.Release()
}

func TestDoRunsAll(t *testing.T) {
	c := &Ctx{Pool: NewPool(4)}
	var mu sync.Mutex
	got := map[int]bool{}
	mark := func(i int) func() {
		return func() {
			mu.Lock()
			got[i] = true
			mu.Unlock()
		}
	}
	c.Do(mark(0), mark(1), mark(2))
	if len(got) != 3 {
		t.Fatalf("Do ran %d of 3 fns", len(got))
	}
}

func TestHelpersNeverExceedPool(t *testing.T) {
	p := NewPool(3)
	c := &Ctx{Pool: p}
	var cur, peak atomic.Int32
	c.Morsels(200, func(w, m int) bool {
		n := cur.Add(1)
		for {
			pk := peak.Load()
			if n <= pk || peak.CompareAndSwap(pk, n) {
				break
			}
		}
		time.Sleep(20 * time.Microsecond)
		cur.Add(-1)
		return true
	})
	if peak.Load() > 3 {
		t.Fatalf("peak concurrency %d exceeds pool size 3", peak.Load())
	}
}

func TestPoolStats(t *testing.T) {
	p := NewPool(1)
	st := p.Stats()
	if st.Size != 1 || st.InUse != 0 || st.Queued != 0 || st.Done != 0 || st.PeakQueued != 0 {
		t.Fatalf("fresh pool stats = %+v", st)
	}
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.InUse != 1 {
		t.Fatalf("InUse = %d after acquire, want 1", st.InUse)
	}

	// Second acquirer must show up as queued while the slot is held.
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(started)
		if err := p.Acquire(context.Background()); err == nil {
			p.Release()
		}
		close(done)
	}()
	<-started
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never counted as queued")
		}
		time.Sleep(time.Millisecond)
	}
	if st := p.Stats(); st.PeakQueued < 1 {
		t.Fatalf("PeakQueued = %d, want >= 1", st.PeakQueued)
	}
	p.Release()
	<-done
	st = p.Stats()
	if st.Done != 2 {
		t.Fatalf("Done = %d after two releases, want 2", st.Done)
	}
	if st.Queued != 0 {
		t.Fatalf("Queued = %d after drain, want 0", st.Queued)
	}
}

func TestPoolStatsQueuedClearsOnCancel(t *testing.T) {
	p := NewPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- p.Acquire(ctx) }()
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never counted as queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled Acquire returned nil")
	}
	if st := p.Stats(); st.Queued != 0 {
		t.Fatalf("Queued = %d after cancelled acquire, want 0", st.Queued)
	}
	p.Release()
}

func TestMorselsTraceCollection(t *testing.T) {
	tr := trace.New()
	c := &Ctx{Pool: NewPool(4), Trace: tr}
	const n = 64
	var ran atomic.Int32
	c.Morsels(n, func(w, m int) bool {
		ran.Add(1)
		time.Sleep(10 * time.Microsecond)
		return true
	})
	morsels, runs := tr.Morsels()
	if morsels != n || runs != 1 {
		t.Fatalf("trace morsels = %d runs = %d, want %d/1", morsels, runs, n)
	}
	busy := tr.WorkerBusy()
	if len(busy) == 0 {
		t.Fatal("no worker busy time recorded")
	}
	for _, wb := range busy {
		if wb.Busy <= 0 {
			t.Fatalf("worker %d busy = %v, want > 0", wb.Worker, wb.Busy)
		}
	}
}
