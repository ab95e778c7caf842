package engine

import (
	"fmt"
	"slices"

	"hybridstore/internal/catalog"
	"hybridstore/internal/value"
	"hybridstore/internal/wal"
)

// dmlOp is one write to base storage by primary key: keys to delete, then
// rows to upsert (applyFold). A committed transaction's fold, a COPY batch
// (rows only) and WAL replay all apply one; a migration in flight records
// each in its tail, the rows deep-copied so later in-place mutations of
// store-internal buffers cannot alias the tail.
type dmlOp struct {
	keys [][]value.Value
	rows [][]value.Value
}

// migrationTail buffers the writes applied to a table's live storage while
// a migration builds the replacement storage off to the side, in the order
// they were applied. Appends happen under the database write lock (the
// fold and COPY hold it); the
// migrator reads the slice under the read lock, so no separate mutex is
// needed — a write cannot interleave with a reader holding db.mu.RLock.
type migrationTail struct {
	ops []dmlOp
}

// recordTail buffers a DML op when a migration is in flight. Callers hold
// the database write lock.
func (rt *tableRuntime) recordTail(op dmlOp) {
	if rt.tail == nil {
		return
	}
	if op.rows != nil {
		rows := make([][]value.Value, len(op.rows))
		for i, r := range op.rows {
			cp := make([]value.Value, len(r))
			copy(cp, r)
			rows[i] = cp
		}
		op.rows = rows
	}
	rt.tail.ops = append(rt.tail.ops, op)
}

// replayOps applies buffered DML to the target storage in original order.
// The target starts from the exact source state at the snapshot mark and
// ops are replayed in sequence, so each op executes against the same state
// it originally saw — no idempotency tricks are needed.
func replayOps(st *storage, ops []dmlOp) error {
	for _, op := range ops {
		if err := applyFold(st, op); err != nil {
			return err
		}
	}
	return nil
}

// Migration-pacing knobs: the catch-up loop hands off to the final locked
// drain once the pending tail is small (the remaining replay under the
// write lock is then bounded) or after enough rounds under sustained
// write pressure.
const (
	migrateFinalDrainMax = 1024
	migrateMaxCatchup    = 8
	// layoutBatch is the row count of one Upsert into the target.
	layoutBatch = 4096
)

// Migrating reports whether a background migration is in flight for the
// table.
func (db *Database) Migrating(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rt, err := db.runtime(name)
	return err == nil && rt.tail != nil
}

// MigrateLayout moves a table to a new placement (a plain store, or a
// partitioned layout when spec is set); it is the only way a table
// changes layout. It does not block queries for the duration of the
// move: the target storage is built off to the side from a consistent
// snapshot while reads and writes keep hitting the old storage, DML
// executed meanwhile is buffered in a tail and replayed onto the target,
// and the storage handle is swapped atomically under the write lock
// once the tail has drained.
// The call itself blocks until the migration completes (run it on a
// background goroutine — internal/migrate does); concurrent queries
// observe either the old or the new storage, never a partial state.
//
// Phases and their locking:
//
//  1. install the tail (brief write lock) — from here on every DML is
//     buffered alongside its normal execution;
//  2. snapshot the source (read lock: concurrent reads proceed, writers
//     queue only for the duration of the raw row copy);
//  3. build the target from the snapshot and materialize declared
//     indexes (no lock — this is the dictionary-encoding-heavy phase);
//  4. catch up: repeatedly replay newly buffered ops (tail reads under
//     the read lock, replay unlocked);
//  5. cut over (brief write lock): replay the remaining tail, swap the
//     storage handle, update the catalog.
func (db *Database) MigrateLayout(name string, store catalog.StoreKind, spec *catalog.PartitionSpec) error {
	// Phase 1: resolve the table, build the empty target, install the tail.
	db.mu.Lock()
	rt, err := db.runtime(name)
	if err != nil {
		db.mu.Unlock()
		return err
	}
	if rt.tail != nil {
		db.mu.Unlock()
		return fmt.Errorf("engine: %q already has a migration in flight", name)
	}
	if spec != nil {
		store = catalog.Partitioned
	}
	target, err := newStorage(rt.entry.Schema, store, spec)
	if err != nil {
		db.mu.Unlock()
		return err
	}
	tail := &migrationTail{}
	rt.tail = tail
	db.mu.Unlock()

	abort := func(cause error) error {
		db.mu.Lock()
		if cur, err := db.runtime(name); err == nil && cur.tail == tail {
			cur.tail = nil
		}
		db.mu.Unlock()
		return cause
	}

	// Phase 2: snapshot under the read lock. Writes to base storage need
	// the write lock, so the tail cannot grow while we scan: every op
	// before mark is fully reflected in the snapshot, every op at or after
	// mark is not at all.
	db.mu.RLock()
	mark := len(tail.ops)
	snapshot := rowsOf(rt.store.Scan(nil, nil, nil), rt.entry.Schema.NumColumns())
	indexes := append([]int(nil), rt.entry.Indexes...)
	db.mu.RUnlock()

	// Phase 3: build the target off to the side.
	for batch := range slices.Chunk(snapshot, layoutBatch) {
		if err := target.Upsert(batch); err != nil {
			return abort(fmt.Errorf("engine: migrating %q: %w", name, err))
		}
	}
	snapshot = nil
	for _, c := range indexes {
		target.CreateIndex(c)
	}

	// Phase 4: catch up on buffered writes without blocking new ones.
	applied := mark
	for round := 0; round < migrateMaxCatchup; round++ {
		db.mu.RLock()
		pending := append([]dmlOp(nil), tail.ops[applied:]...)
		db.mu.RUnlock()
		if len(pending) <= migrateFinalDrainMax {
			break
		}
		if err := replayOps(target, pending); err != nil {
			return abort(fmt.Errorf("engine: migrating %q: %w", name, err))
		}
		applied += len(pending)
	}

	// Phase 5: final drain and atomic cutover.
	db.mu.Lock()
	cur, err := db.runtime(name)
	if err != nil || cur.tail != tail {
		// The table was dropped (or the migration superseded) meanwhile.
		if err == nil {
			err = fmt.Errorf("engine: migration of %q superseded", name)
		}
		db.mu.Unlock()
		return err
	}
	if err := replayOps(target, tail.ops[applied:]); err != nil {
		cur.tail = nil
		db.mu.Unlock()
		return fmt.Errorf("engine: migrating %q: %w", name, err)
	}
	// Indexes declared after the off-lock materialization pass.
	for _, c := range cur.entry.Indexes {
		if !slices.Contains(indexes, c) {
			target.CreateIndex(c)
		}
	}
	if err := db.cat.SetPlacement(name, store, spec); err != nil {
		cur.tail = nil
		db.mu.Unlock()
		return err
	}
	cur.store = target
	cur.tail = nil
	mMigrations.Inc()
	// A migration becomes durable only here, as a single layout-change
	// record logged after the swap: a crash at any earlier point leaves
	// no trace of it in the WAL, so recovery replays the buffered DML
	// against the old layout — the in-flight migration aborts cleanly.
	werr := db.logRecord(&wal.Record{Kind: wal.RecSetLayout, Table: name, Store: store, Spec: spec})
	db.mu.Unlock()
	// Refresh statistics against the new layout so planner estimates
	// (and the catalog version plan caches key on) track the cutover;
	// a failure means the table was concurrently dropped, which doesn't
	// undo the completed migration.
	db.CollectStats(name)
	return werr
}
