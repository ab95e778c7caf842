// Package txn implements the MVCC transaction subsystem: a transaction
// manager issuing monotonic begin/commit timestamps, per-primary-key
// version chains layered over the physical stores, snapshot-isolation
// visibility, and first-updater-wins write-write conflict detection.
//
// The package is deliberately storage-agnostic: a Table here is only the
// version overlay of one engine table, keyed by primary key, so it works
// identically over the row store, the column store, and the vertical and
// horizontal partitioned layouts — and survives an online layout
// migration of the underlying storage, since nothing in a chain refers
// to physical row positions.
//
// # Model
//
// Timestamps are a single monotonic counter. A transaction's snapshot is
// the newest commit timestamp at Begin; a version is visible to it when
// the version committed at or before that snapshot (or the transaction
// wrote the version itself). Writers claim a key's chain head before
// commit; a claim fails immediately — first-updater-wins, no waiting —
// when the head is an uncommitted version of another live transaction or
// a version that committed after the claimant's snapshot. Commits stamp
// every claimed version with the next timestamp under the manager's
// commit lock, so the commit order is total and equals the engine's WAL
// order.
//
// The engine folds committed versions into the base storage afterwards;
// a chain may only be dropped (Prune) once its newest version is folded
// AND visible to every live snapshot, because readers older than a
// version must keep resolving the key through the chain instead of the
// (already newer) base row.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hybridstore/internal/value"
)

// ErrConflict is the sentinel wrapped by every serialization failure
// (write-write conflict under snapshot isolation). Callers match it with
// errors.Is; the wire layer maps it to CodeTxnConflict so drivers can
// retry the whole transaction.
var ErrConflict = errors.New("txn: serialization conflict")

// Txn is one transaction. Exported fields are immutable after Begin;
// the write set is guarded by the owning tables' locks plus the
// manager's commit lock.
type Txn struct {
	// BeginTS is the snapshot: versions committed at or before it are
	// visible.
	BeginTS uint64

	mgr *Manager

	// writes lists every chain this transaction holds an uncommitted
	// version on, in claim order. Appended under the claimed table's
	// mutex; read at commit/rollback when no statement of this
	// transaction is in flight.
	writes []claimed

	// commitTS is set by Commit (0 until then).
	commitTS uint64
}

// claimed is one entry of a transaction's write set.
type claimed struct {
	table *Table
	chain *chain
	// fresh marks a claim that created its chain with no base pre-image:
	// the key did not exist anywhere (base storage or overlay) when it
	// was claimed, so folding the commit needs no delete-before-insert.
	fresh bool
}

// CommitTS returns the commit timestamp (0 before Commit).
func (t *Txn) CommitTS() uint64 { return t.commitTS }

// Writes reports how many chains the transaction has claimed. Zero means
// commit is a no-op.
func (t *Txn) Writes() int { return len(t.writes) }

// Pending calls fn for every chain the transaction holds an uncommitted
// version on: the owning overlay table, the chain's primary key and the
// version's row (nil for a tombstone). fresh reports that the key did
// not exist when first claimed (a pure insert — no delete needed when
// folding). The engine assembles the WAL commit record from this before
// Commit stamps the versions. Callers must ensure no statement of the
// transaction is concurrently claiming.
func (t *Txn) Pending(fn func(tb *Table, pk, row []value.Value, fresh bool)) {
	for _, w := range t.writes {
		w.table.mu.Lock()
		var pk, row []value.Value
		ok := len(w.chain.versions) > 0 && w.chain.versions[0].owner == t
		if ok {
			pk, row = w.chain.pk, w.chain.versions[0].row
		}
		w.table.mu.Unlock()
		if ok {
			fn(w.table, pk, row, w.fresh)
		}
	}
}

// Manager issues timestamps and tracks live transactions.
type Manager struct {
	// lastCommitted is the newest commit timestamp; Begin snapshots it.
	// It advances only after the committing transaction's versions are
	// fully stamped, so a snapshot at ts implies every commit <= ts is
	// completely visible.
	lastCommitted atomic.Uint64

	// commitMu serializes commits: timestamp allocation, version
	// stamping and the caller's WAL enqueue happen inside one critical
	// section, so commit-timestamp order equals log order.
	commitMu sync.Mutex

	mu     sync.Mutex
	active map[*Txn]struct{}
}

// NewManager creates an empty transaction manager.
func NewManager() *Manager {
	return &Manager{active: make(map[*Txn]struct{})}
}

// ReadTS returns the snapshot timestamp a statement outside any explicit
// transaction reads at: the newest committed timestamp.
func (m *Manager) ReadTS() uint64 { return m.lastCommitted.Load() }

// Begin starts a transaction with a snapshot of the current committed
// state and registers it as live.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	// The snapshot is taken under m.mu so MinActiveTS can never race a
	// Begin into reporting a bound above a live snapshot.
	t := &Txn{mgr: m, BeginTS: m.lastCommitted.Load()}
	m.active[t] = struct{}{}
	return t
}

// MinActiveTS returns the oldest live snapshot timestamp — the bound
// below which versions can be garbage-collected. With no live
// transaction it is the newest committed timestamp.
func (m *Manager) MinActiveTS() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	min := m.lastCommitted.Load()
	for t := range m.active {
		if t.BeginTS < min {
			min = t.BeginTS
		}
	}
	return min
}

// Commit stamps every version the transaction claimed with the next
// commit timestamp and invokes apply inside the commit critical section
// — the engine builds and enqueues the WAL commit record there, so
// timestamp order equals log order. lastCommitted advances only after
// stamping, making the commit atomic for snapshot readers. Returns the
// commit timestamp.
func (m *Manager) Commit(t *Txn, apply func(ts uint64)) uint64 {
	m.commitMu.Lock()
	ts := m.lastCommitted.Load() + 1
	for _, w := range t.writes {
		w.table.stamp(t, w.chain, ts)
	}
	if apply != nil {
		apply(ts)
	}
	m.lastCommitted.Store(ts)
	m.commitMu.Unlock()
	t.commitTS = ts
	m.end(t)
	return ts
}

// Abort releases every uncommitted version the transaction claimed and
// unregisters it.
func (m *Manager) Abort(t *Txn) {
	for _, w := range t.writes {
		w.table.release(t, w.chain)
	}
	t.writes = nil
	m.end(t)
}

// end unregisters a finished transaction.
func (m *Manager) end(t *Txn) {
	m.mu.Lock()
	delete(m.active, t)
	m.mu.Unlock()
}

// version is one entry of a chain, newest first. A nil Row is a delete
// tombstone. ts==0 with a nil owner marks the base pre-image: the row
// the key had in base storage when the chain was created, visible to
// every snapshot older than the chain's committed versions.
type version struct {
	row   []value.Value
	ts    uint64
	owner *Txn
}

// chain is the version history of one primary key.
type chain struct {
	pk       []value.Value
	versions []version // newest first
}

// Table is the version overlay of one engine table: a chain per written
// primary key. All methods are safe for concurrent use.
type Table struct {
	name   string
	mu     sync.Mutex
	chains map[string]*chain
}

// NewTable creates an empty overlay for the named engine table.
func NewTable(name string) *Table {
	return &Table{name: name, chains: make(map[string]*chain)}
}

// Name returns the engine table this overlay belongs to.
func (tb *Table) Name() string { return tb.name }

// Len reports the number of live chains (written keys not yet pruned).
func (tb *Table) Len() int {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return len(tb.chains)
}

// VisibleForWrite resolves pk against the overlay for a writing
// statement of t: the transaction's own uncommitted version if it holds
// the chain head, otherwise the newest committed version regardless of
// snapshot — writers validate uniqueness against current reality, not
// their snapshot. Returns the resolved row (nil for a tombstone) and
// whether a chain exists at all; when none does, base storage is
// authoritative for the key.
func (tb *Table) VisibleForWrite(t *Txn, pk []value.Value) (row []value.Value, chained bool) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	c, ok := tb.chains[value.TupleKey(pk)]
	if !ok {
		return nil, false
	}
	for i := range c.versions {
		v := &c.versions[i]
		if v.owner == t || v.owner == nil {
			return v.row, true
		}
	}
	return nil, true
}

// Claim installs (or rewrites) an uncommitted version of pk owned by t.
// row nil writes a delete tombstone. base is the key's current base-
// storage row — consulted only when the claim creates the chain, where
// it is preserved as the pre-image older snapshots keep reading; pass
// nil when the key has no live base row.
//
// The claim fails with ErrConflict — immediately, first-updater-wins —
// when the chain head is an uncommitted version of another live
// transaction, or a version that committed after t's snapshot.
func (tb *Table) Claim(t *Txn, pk, row, base []value.Value) error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	key := value.TupleKey(pk)
	c, ok := tb.chains[key]
	if !ok {
		c = &chain{pk: append([]value.Value(nil), pk...)}
		if base != nil {
			c.versions = append(c.versions, version{row: base})
		}
		c.versions = append([]version{{row: row, owner: t}}, c.versions...)
		tb.chains[key] = c
		t.writes = append(t.writes, claimed{table: tb, chain: c, fresh: base == nil})
		return nil
	}
	head := &c.versions[0]
	switch {
	case head.owner == t:
		// Re-write by the same transaction: replace in place, the claim
		// is already in the write set.
		head.row = row
		return nil
	case head.owner != nil:
		return fmt.Errorf("%w: key %v is write-locked by a concurrent transaction", ErrConflict, pk)
	case head.ts > t.BeginTS:
		return fmt.Errorf("%w: key %v was modified after this transaction began", ErrConflict, pk)
	}
	c.versions = append([]version{{row: row, owner: t}}, c.versions...)
	t.writes = append(t.writes, claimed{table: tb, chain: c})
	return nil
}

// stamp publishes t's uncommitted version on c at commit timestamp ts.
// Called by Manager.Commit under the commit lock.
func (tb *Table) stamp(t *Txn, c *chain, ts uint64) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if len(c.versions) > 0 && c.versions[0].owner == t {
		c.versions[0].owner = nil
		c.versions[0].ts = ts
	}
}

// release drops t's uncommitted version from c (rollback). A chain left
// with nothing but its base pre-image is deleted — base storage is again
// authoritative for the key.
func (tb *Table) release(t *Txn, c *chain) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if len(c.versions) > 0 && c.versions[0].owner == t {
		c.versions = c.versions[1:]
	}
	if len(c.versions) == 0 || (len(c.versions) == 1 && c.versions[0].ts == 0 && c.versions[0].owner == nil) {
		delete(tb.chains, value.TupleKey(c.pk))
	}
}

// Delta enumerates the chains whose visible version under snapshot s for
// transaction t (nil outside explicit transactions) — the transaction's
// own uncommitted version, else the newest version committed at or before
// s — differs from the version base storage holds after folds up to
// folded: the only keys a base scan answers incorrectly. visible=false
// means the key is absent for this snapshot (tombstone, or created
// entirely after s). The engine builds each statement's view from it, so
// readers never block writers. Chains whose
// visible version IS the current base authority are skipped, so an
// overlay holding nothing but live uncommitted claims (the steady state
// under OLTP load: claims over unchanged base rows) contributes nothing
// and readers keep the plain base scan path.
func (tb *Table) Delta(s, folded uint64, t *Txn, fn func(pk []value.Value, row []value.Value, visible bool)) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for _, c := range tb.chains {
		visIdx, baseIdx := -1, -1
		for i := range c.versions {
			v := &c.versions[i]
			if v.owner != nil {
				if v.owner == t && visIdx < 0 {
					visIdx = i
				}
				continue
			}
			if visIdx < 0 && v.ts <= s {
				visIdx = i
			}
			if baseIdx < 0 && v.ts <= folded {
				baseIdx = i
			}
			if visIdx >= 0 && baseIdx >= 0 {
				break
			}
		}
		if visIdx == baseIdx {
			continue
		}
		var row []value.Value
		if visIdx >= 0 {
			row = c.versions[visIdx].row
		}
		fn(c.pk, row, row != nil)
	}
}

// NetRows reports how many rows the overlay adds to (positive) or
// removes from (negative) the folded base storage's row count, at
// snapshot s with folds applied up to folded: committed-but-unfolded
// inserts count +1, unfolded deletes -1, updates 0. It makes exact row
// counts possible without forcing a fold.
func (tb *Table) NetRows(s, folded uint64) int {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	net := 0
	for _, c := range tb.chains {
		visIdx, baseIdx := -1, -1
		for i := range c.versions {
			v := &c.versions[i]
			if v.owner != nil {
				continue
			}
			if visIdx < 0 && v.ts <= s {
				visIdx = i
			}
			if baseIdx < 0 && v.ts <= folded {
				baseIdx = i
			}
			if visIdx >= 0 && baseIdx >= 0 {
				break
			}
		}
		visPresent := visIdx >= 0 && c.versions[visIdx].row != nil
		basePresent := baseIdx >= 0 && c.versions[baseIdx].row != nil
		if visPresent && !basePresent {
			net++
		} else if !visPresent && basePresent {
			net--
		}
	}
	return net
}

// UncommittedKeys returns the TupleKeys of every chain whose head is an
// uncommitted claim of a live transaction (nil when there are none).
// Bulk ingest consults this before appending to base storage: such keys
// are invisible to the base store's uniqueness check but will surface as
// rows if their owner commits, so a batch must not insert them.
func (tb *Table) UncommittedKeys() map[string]struct{} {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	var keys map[string]struct{}
	for key, c := range tb.chains {
		if len(c.versions) > 0 && c.versions[0].owner != nil {
			if keys == nil {
				keys = make(map[string]struct{})
			}
			keys[key] = struct{}{}
		}
	}
	return keys
}

// Prune drops every chain whose newest committed version is both folded
// into base storage (ts <= folded) and visible to every live snapshot
// (ts <= minActive): base storage then answers the key identically for
// every possible reader, so the chain is dead weight. Chains holding an
// uncommitted claim survive. Returns the number of chains dropped.
func (tb *Table) Prune(folded, minActive uint64) int {
	bound := folded
	if minActive < bound {
		bound = minActive
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	n := 0
	for key, c := range tb.chains {
		if len(c.versions) == 0 {
			delete(tb.chains, key)
			n++
			continue
		}
		head := &c.versions[0]
		if head.owner == nil && head.ts <= bound {
			delete(tb.chains, key)
			n++
		}
	}
	if n > 0 && len(tb.chains) == 0 {
		// A map keeps the buckets of its largest size, and ranging over it
		// costs all of them: after a bulk load every later prune — one per
		// fold, under the engine's write lock — would pay for the load.
		tb.chains = make(map[string]*chain)
	}
	return n
}
