package exec

import (
	"context"
	"fmt"
	"strings"
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

// TestMorselsRecruitsFreedSlot starts a loop on a pool with every slot
// held and frees one from inside the first morsel: a helper must join the
// running loop and take morsels of its own.
func TestMorselsRecruitsFreedSlot(t *testing.T) {
	p := NewPool(2)
	for range 2 {
		if err := p.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	c := &Ctx{Pool: p}
	var helped atomic.Bool
	deadline := time.Now().Add(2 * time.Second)
	c.Morsels(100, func(w, m int) bool {
		switch {
		case m == 0:
			p.Release()
		case w != 0:
			helped.Store(true)
		default: // give a helper the time to start
			for !helped.Load() && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
		}
		return true
	})
	if !helped.Load() {
		t.Fatal("worker 0 ran every morsel although a slot was freed after the first")
	}
	if n := p.Stats().InUse; n != 1 {
		t.Fatalf("InUse = %d after the loop, want the 1 slot still held", n)
	}
	p.Release()
}

// TestHelpersNeverExceedPool runs loops on a free pool and on a full one
// whose slots are freed one at a time mid-loop: helpers that join late
// must still get distinct worker ids below Workers(n), and the loop must
// never run more workers than that.
func TestHelpersNeverExceedPool(t *testing.T) {
	const n = 200
	p := NewPool(3)
	c := &Ctx{Pool: p}
	for _, held := range []int{0, 3} {
		for range held {
			if err := p.Acquire(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		var cur, peak, freed, badID atomic.Int32
		badID.Store(-1)
		active := make([]atomic.Bool, c.Workers(n))
		c.Morsels(n, func(w, m int) bool {
			if w >= len(active) || !active[w].CompareAndSwap(false, true) {
				badID.Store(int32(w))
				return false
			}
			k := cur.Add(1)
			for {
				pk := peak.Load()
				if k <= pk || peak.CompareAndSwap(pk, k) {
					break
				}
			}
			if m%40 == 39 && freed.Add(1) <= int32(held) {
				p.Release()
			}
			time.Sleep(20 * time.Microsecond)
			cur.Add(-1)
			active[w].Store(false)
			return true
		})
		if w := badID.Load(); w >= 0 {
			t.Fatalf("held=%d: worker id %d out of range or running twice", held, w)
		}
		if peak.Load() > int32(len(active)) {
			t.Fatalf("held=%d: peak concurrency %d exceeds Workers(n) = %d", held, peak.Load(), len(active))
		}
		for f := min(int(freed.Load()), held); f < held; f++ {
			p.Release()
		}
		if n := p.Stats().InUse; n != 0 {
			t.Fatalf("held=%d: %d slots in use after the loop", held, n)
		}
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
	detail, busy, ok := tr.Parallel()
	if !ok || !strings.HasPrefix(detail, fmt.Sprintf("morsels=%d runs=1 ", n)) {
		t.Fatalf("trace parallel = %q, want %d morsels in 1 run", detail, n)
	}
	if busy <= 0 {
		t.Fatalf("busy = %v, want > 0", busy)
	}
}
