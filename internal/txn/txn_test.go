package txn

import (
	"errors"
	"sync"
	"testing"

	"hybridstore/internal/value"
)

func pk(id int64) []value.Value { return []value.Value{value.NewBigint(id)} }
func row(id, v int64) []value.Value {
	return []value.Value{value.NewBigint(id), value.NewBigint(v)}
}

func TestCommitAdvancesTimestamps(t *testing.T) {
	m := NewManager()
	if m.ReadTS() != 0 {
		t.Fatalf("fresh manager ReadTS = %d", m.ReadTS())
	}
	tb := NewTable("t")
	t1 := m.Begin()
	if err := tb.Claim(t1, pk(1), row(1, 10), nil); err != nil {
		t.Fatal(err)
	}
	ts := m.Commit(t1, nil)
	if ts != 1 || t1.CommitTS() != 1 || m.ReadTS() != 1 {
		t.Fatalf("commit ts=%d, CommitTS=%d, ReadTS=%d", ts, t1.CommitTS(), m.ReadTS())
	}
	t2 := m.Begin()
	if t2.BeginTS != 1 {
		t.Fatalf("BeginTS = %d, want 1", t2.BeginTS)
	}
	if err := tb.Claim(t2, pk(2), row(2, 20), nil); err != nil {
		t.Fatal(err)
	}
	if ts := m.Commit(t2, nil); ts != 2 {
		t.Fatalf("second commit ts = %d", ts)
	}
}

func TestFirstUpdaterWins(t *testing.T) {
	m := NewManager()
	tb := NewTable("t")
	t1, t2 := m.Begin(), m.Begin()
	if err := tb.Claim(t1, pk(1), row(1, 11), nil); err != nil {
		t.Fatal(err)
	}
	// Uncommitted claim by a live transaction blocks t2 immediately.
	if err := tb.Claim(t2, pk(1), row(1, 12), nil); !errors.Is(err, ErrConflict) {
		t.Fatalf("claim against live claim: %v", err)
	}
	m.Commit(t1, nil)
	// After t1 committed, the version is newer than t2's snapshot.
	if err := tb.Claim(t2, pk(1), row(1, 12), nil); !errors.Is(err, ErrConflict) {
		t.Fatalf("claim against newer commit: %v", err)
	}
	// A transaction begun after the commit claims freely.
	t3 := m.Begin()
	if err := tb.Claim(t3, pk(1), row(1, 13), nil); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteOwnClaim(t *testing.T) {
	m := NewManager()
	tb := NewTable("t")
	t1 := m.Begin()
	if err := tb.Claim(t1, pk(1), row(1, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.Claim(t1, pk(1), row(1, 2), nil); err != nil {
		t.Fatal(err)
	}
	if t1.Writes() != 1 {
		t.Fatalf("rewrite duplicated the write set: %d entries", t1.Writes())
	}
	if got, chained := tb.VisibleForWrite(t1, pk(1)); !chained || got[1].Int() != 2 {
		t.Fatalf("own claim not visible for write: %v %v", got, chained)
	}
}

func TestSnapshotVisibility(t *testing.T) {
	m := NewManager()
	tb := NewTable("t")
	old := m.Begin() // snapshot 0

	t1 := m.Begin()
	// base pre-image 100 captured at chain creation
	if err := tb.Claim(t1, pk(1), row(1, 101), row(1, 100)); err != nil {
		t.Fatal(err)
	}
	// t1 sees its own uncommitted version; old sees the pre-image.
	assertVisible(t, tb, t1.BeginTS, t1, 1, 101)
	assertVisible(t, tb, old.BeginTS, old, 1, 100)
	m.Commit(t1, nil) // ts 1
	// old's snapshot (0) still resolves to the pre-image.
	assertVisible(t, tb, old.BeginTS, old, 1, 100)
	// a fresh snapshot sees the committed version.
	assertVisible(t, tb, m.ReadTS(), nil, 1, 101)
}

func TestTombstoneHidesKey(t *testing.T) {
	m := NewManager()
	tb := NewTable("t")
	old := m.Begin()
	t1 := m.Begin()
	if err := tb.Claim(t1, pk(1), nil, row(1, 100)); err != nil { // delete
		t.Fatal(err)
	}
	m.Commit(t1, nil)
	// Deleted for new snapshots, alive for the old one.
	if _, _, vis := lookup(tb, m.ReadTS(), nil, 1); vis {
		t.Fatal("tombstoned key still visible to a new snapshot")
	}
	assertVisible(t, tb, old.BeginTS, old, 1, 100)
}

func TestAbortRestoresBaseAuthority(t *testing.T) {
	m := NewManager()
	tb := NewTable("t")
	t1 := m.Begin()
	if err := tb.Claim(t1, pk(1), row(1, 5), row(1, 4)); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 {
		t.Fatalf("chains = %d", tb.Len())
	}
	m.Abort(t1)
	if tb.Len() != 0 {
		t.Fatalf("abort left %d chains (base pre-image should not pin one)", tb.Len())
	}
	// The key is claimable again.
	t2 := m.Begin()
	if err := tb.Claim(t2, pk(1), row(1, 6), row(1, 4)); err != nil {
		t.Fatal(err)
	}
}

func TestPruneRespectsBothBounds(t *testing.T) {
	m := NewManager()
	tb := NewTable("t")
	old := m.Begin() // snapshot 0 stays live

	t1 := m.Begin()
	if err := tb.Claim(t1, pk(1), row(1, 1), row(1, 0)); err != nil {
		t.Fatal(err)
	}
	m.Commit(t1, nil) // ts 1

	// Folded, but the old snapshot still needs the pre-image.
	if n := tb.Prune(m.ReadTS(), m.MinActiveTS()); n != 0 {
		t.Fatalf("pruned %d chains under a live old snapshot", n)
	}
	m.Abort(old)
	// Committed but not folded: must survive too.
	if n := tb.Prune(0, m.MinActiveTS()); n != 0 {
		t.Fatalf("pruned %d unfolded chains", n)
	}
	if n := tb.Prune(m.ReadTS(), m.MinActiveTS()); n != 1 || tb.Len() != 0 {
		t.Fatalf("prune: %d dropped, %d left", n, tb.Len())
	}

	// A chain with an uncommitted head survives any bound.
	t2 := m.Begin()
	if err := tb.Claim(t2, pk(2), row(2, 2), nil); err != nil {
		t.Fatal(err)
	}
	if n := tb.Prune(^uint64(0), ^uint64(0)); n != 0 {
		t.Fatalf("pruned a chain with an uncommitted head")
	}
}

func TestMinActiveTS(t *testing.T) {
	m := NewManager()
	tb := NewTable("t")
	t1 := m.Begin() // snapshot 0
	if err := tb.Claim(t1, pk(1), row(1, 1), nil); err != nil {
		t.Fatal(err)
	}
	m.Commit(t1, nil) // ts 1
	t2 := m.Begin()   // snapshot 1
	if got := m.MinActiveTS(); got != 1 {
		t.Fatalf("MinActiveTS = %d, want 1", got)
	}
	old := m.Begin()
	old.BeginTS = 0 // simulate an older live snapshot
	_ = old
	m.Abort(t2)
	if n := len(m.active); n != 1 {
		t.Fatalf("active = %d", n)
	}
}

func TestConcurrentClaimsOneWinner(t *testing.T) {
	m := NewManager()
	tb := NewTable("t")
	const racers = 16
	var wg sync.WaitGroup
	wins := make(chan *Txn, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			tx := m.Begin()
			if err := tb.Claim(tx, pk(7), row(7, n), nil); err != nil {
				m.Abort(tx)
				return
			}
			wins <- tx
		}(int64(i))
	}
	wg.Wait()
	close(wins)
	var winners []*Txn
	for tx := range wins {
		winners = append(winners, tx)
	}
	if len(winners) != 1 {
		t.Fatalf("%d racers claimed the same key", len(winners))
	}
	m.Commit(winners[0], nil)
}

func assertVisible(t *testing.T, tb *Table, s uint64, tx *Txn, id, want int64) {
	t.Helper()
	got, ok, vis := lookup(tb, s, tx, id)
	if !ok || !vis {
		t.Fatalf("key %d not visible at snapshot %d", id, s)
	}
	if got[1].Int() != want {
		t.Fatalf("key %d at snapshot %d: got %d, want %d", id, s, got[1].Int(), want)
	}
}

// lookup finds the chain of one pk in the overlay and the row it shows
// under (s, tx); visible=false means the key is absent at s.
func lookup(tb *Table, s uint64, tx *Txn, id int64) (r []value.Value, found, visible bool) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for _, c := range tb.chains {
		if c.pk[0].Int() != id {
			continue
		}
		// tx's own claim, else the newest version committed at or before s.
		for _, v := range c.versions {
			if v.owner == nil && v.ts <= s || v.owner != nil && v.owner == tx {
				return v.row, true, v.row != nil
			}
		}
		return nil, true, false
	}
	return nil, false, false
}
