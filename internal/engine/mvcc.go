package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/trace"
	"hybridstore/internal/txn"
	"hybridstore/internal/value"
	"hybridstore/internal/wal"
)

// This file is the engine side of MVCC snapshot isolation: it routes DML
// through the internal/txn version overlay, publishes commits to the WAL
// as atomic RecTxnCommit records, folds committed versions into base
// storage in the background, and gives every read statement a stable
// snapshot view so analytical scans never block (or are blocked by)
// writers.
//
// Division of labor with internal/txn: the txn package owns timestamps,
// version chains and conflict detection; this file owns everything that
// touches engine state — claim validation against schemas and base
// storage, WAL records, the fold, and the statement-level merged view.
//
// Every table has a primary key (a table declared without one is keyed by
// the hidden schema.RowKey), so every write takes this one path.
//
// Locking: DML statements and commits run under db.mu.RLock (plus the
// txn manager's commit lock), so disjoint-row writers proceed in
// parallel and readers are never excluded by a writer. Only the fold —
// which mutates base storage — and COPY take db.mu.Lock.

// errTxnDone reports use of a transaction after Commit or Rollback.
var errTxnDone = errors.New("engine: transaction has already finished")

// IsConflict reports whether err is a snapshot-isolation write-write
// conflict (first-updater-wins abort). Conflicts are retryable: rerun
// the whole transaction against the newer state.
func IsConflict(err error) bool { return errors.Is(err, txn.ErrConflict) }

// txnCtxKey is the context key WithTxn stores the session transaction
// under.
type txnCtxKey struct{}

// WithTxn tags a context with an open transaction; statements executed
// under it become part of the transaction instead of auto-committing.
// The server pins its session executor this way.
func WithTxn(ctx context.Context, t *Txn) context.Context {
	return context.WithValue(ctx, txnCtxKey{}, t)
}

// TxnFromContext returns the transaction attached by WithTxn (nil when
// absent).
func TxnFromContext(ctx context.Context) *Txn {
	t, _ := ctx.Value(txnCtxKey{}).(*Txn)
	return t
}

// Txn is an explicit multi-statement transaction. Statements run under
// it via ExecContext (or ExecContext on the database with a WithTxn
// context); nothing is visible to other sessions or durable until
// Commit. Any statement error aborts the whole transaction — further
// statements return the abort reason until Rollback acknowledges it.
// A Txn serves one statement at a time; sessions already serialize
// their statements, which is the intended usage.
type Txn struct {
	db *Database

	mu   sync.Mutex
	tx   *txn.Txn
	done bool  // Commit or Rollback called
	err  error // sticky abort reason (statement failure or conflict)
}

// Begin opens a transaction with a snapshot of the currently committed
// state. The context is not consulted.
func (db *Database) Begin(context.Context) (*Txn, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	t := &Txn{db: db, tx: db.txns.Begin()}
	mTxnBegins.Inc()
	mTxnActive.Add(1)
	return t, nil
}

// ExecContext runs one statement inside the transaction.
func (t *Txn) ExecContext(ctx context.Context, q *query.Query) (*Result, error) {
	return t.db.execWithPlan(WithTxn(ctx, t), q, nil)
}

// Exec is ExecContext with a background context.
func (t *Txn) Exec(q *query.Query) (*Result, error) {
	return t.ExecContext(context.Background(), q)
}

// usable returns the sticky abort reason, errTxnDone after Commit or
// Rollback, and nil while the transaction can accept statements.
func (t *Txn) usable() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	if t.done {
		return errTxnDone
	}
	return nil
}

// fail aborts the transaction because a statement failed: every claim is
// released immediately (other writers stop conflicting on them) and the
// reason sticks until Rollback.
func (t *Txn) fail(cause error) {
	t.mu.Lock()
	if t.done || t.err != nil {
		t.mu.Unlock()
		return
	}
	t.err = fmt.Errorf("engine: transaction aborted: %w", cause)
	t.mu.Unlock()
	t.db.txns.Abort(t.tx)
	t.db.finishTxn(false)
}

// CommitTS returns the commit timestamp (0 before a successful Commit).
func (t *Txn) CommitTS() uint64 { return t.tx.CommitTS() }

// Commit publishes the transaction atomically and waits for durability.
// Committing an already-aborted transaction returns the abort reason.
func (t *Txn) Commit(ctx context.Context) error {
	t.mu.Lock()
	if t.err != nil {
		err := t.err
		t.done = true
		t.mu.Unlock()
		return err
	}
	if t.done {
		t.mu.Unlock()
		return errTxnDone
	}
	t.done = true
	t.mu.Unlock()
	return t.db.commitTxn(ctx, t)
}

// Rollback discards the transaction. It is a no-op (and success) on a
// transaction that already aborted or finished, so defer t.Rollback()
// is always safe.
func (t *Txn) Rollback() error {
	t.mu.Lock()
	if t.done || t.err != nil {
		t.done = true
		t.mu.Unlock()
		return nil
	}
	t.done = true
	t.mu.Unlock()
	t.db.txns.Abort(t.tx)
	t.db.finishTxn(false)
	return nil
}

// finishTxn records an explicit transaction's completion in the metrics.
func (db *Database) finishTxn(committed bool) {
	if committed {
		mTxnCommits.Inc()
	} else {
		mTxnAborts.Inc()
	}
	mTxnActive.Add(-1)
}

// commitTxn is the commit path of an explicit transaction: stamp and
// publish under the read lock, wait for WAL durability outside every
// lock, then opportunistically fold.
func (db *Database) commitTxn(ctx context.Context, t *Txn) error {
	db.mu.RLock()
	if db.closed.Load() {
		db.mu.RUnlock()
		db.txns.Abort(t.tx)
		db.finishTxn(false)
		return ErrClosed
	}
	tr := trace.FromContext(ctx)
	sp := tr.Start("commit")
	seq, err := db.publishCommit(t.tx)
	db.mu.RUnlock()
	sp.End()
	db.finishTxn(true)
	if err == nil {
		err = db.waitDurable(tr, seq)
	}
	if err != nil {
		return fmt.Errorf("engine: transaction applied but not durable: %w", err)
	}
	db.foldBehind()
	return nil
}

// waitDurable waits, outside every lock, until the WAL record enqueued as
// seq is on disk (0: nothing was logged), so concurrent writers share one
// fsync and readers are never blocked on disk.
func (db *Database) waitDurable(tr *trace.Trace, seq uint64) error {
	if seq == 0 {
		return nil
	}
	sp := tr.Start("wal_wait")
	start := time.Now()
	err := db.log.WaitDurable(seq)
	mWALWaitSeconds.Observe(time.Since(start).Nanoseconds())
	sp.End()
	return err
}

// publishCommit makes a transaction's writes visible: under the commit
// lock the manager stamps every claimed version with the next timestamp
// while this callback enqueues the atomic WAL commit record and appends
// the fold work item — so commit-timestamp order, WAL order and fold
// order all agree. A transaction with no writes commits vacuously
// without burning a timestamp. Caller holds db.mu.RLock, which excludes
// the fold and checkpoints but not other committers.
func (db *Database) publishCommit(t *txn.Txn) (seq uint64, err error) {
	if t.Writes() == 0 {
		db.txns.Abort(t)
		return 0, nil
	}
	ops := db.collectCommitOps(t)
	db.txns.Commit(t, func(ts uint64) {
		if len(ops) == 0 {
			return // every written table was dropped mid-transaction
		}
		if db.log != nil {
			seq, err = db.log.Enqueue(&wal.Record{Kind: wal.RecTxnCommit, Txn: ops})
		}
		db.pendingMu.Lock()
		db.pending = append(db.pending, pendingCommit{ts: ts, tables: ops})
		db.pendingMu.Unlock()
	})
	return seq, err
}

// collectCommitOps assembles the physical per-table effect of a
// transaction from its write set: for every claimed key the key itself
// (DelPKs, skipped for pure inserts of previously absent keys — bulk
// loads must not pay a delete scan per batch) and, unless the claim is
// a tombstone, the final row image. Caller holds db.mu.RLock.
func (db *Database) collectCommitOps(t *txn.Txn) []wal.TxnTable {
	byTable := make(map[string]*wal.TxnTable)
	t.Pending(func(tb *txn.Table, pk, row []value.Value, fresh bool) {
		name := tb.Name()
		tt := byTable[name]
		if tt == nil {
			rt, err := db.runtime(name)
			if err != nil {
				return // table dropped after the claim; nothing to apply
			}
			tt = &wal.TxnTable{Name: name, Width: rt.entry.Schema.NumColumns(), PKWidth: len(pk)}
			byTable[name] = tt
		}
		if !fresh {
			tt.DelPKs = append(tt.DelPKs, pk)
		}
		if row != nil {
			tt.Rows = append(tt.Rows, row)
		}
	})
	names := make([]string, 0, len(byTable))
	for name := range byTable {
		names = append(names, name)
	}
	sort.Strings(names)
	ops := make([]wal.TxnTable, 0, len(names))
	for _, name := range names {
		ops = append(ops, *byTable[name])
	}
	return ops
}

// pendingCommit is one committed transaction awaiting its fold into base
// storage.
type pendingCommit struct {
	ts     uint64
	tables []wal.TxnTable
}

// foldForceBacklog is the pending-commit depth at which a committer
// stops try-locking and takes the write lock outright: a waiting writer
// gates new read locks, so the fold is admitted even under a constant
// reader stream and the overlay stays bounded. Kept small: every
// unfolded commit pushes concurrent scans onto the merged (overlay-
// aware) path, so a deep backlog taxes every reader, while a forced
// fold of a few commits only stalls for the in-flight readers to drain.
const foldForceBacklog = 16

// foldBehind opportunistically folds pending commits after a commit
// released its locks: free databases fold immediately via TryLock, busy
// ones defer to a later commit, Vacuum or the next checkpoint — unless
// the backlog crossed foldForceBacklog, where the fold blocks.
func (db *Database) foldBehind() {
	db.pendingMu.Lock()
	backlog := len(db.pending)
	db.pendingMu.Unlock()
	if backlog == 0 {
		return
	}
	if backlog < foldForceBacklog {
		if db.mu.TryLock() {
			db.foldLocked()
			db.mu.Unlock()
		}
		return
	}
	db.mu.Lock()
	db.foldLocked()
	db.mu.Unlock()
}

// foldLocked applies every pending committed transaction to base storage
// in commit order, then prunes version chains no possible reader still
// needs (newest committed version both folded and visible to the oldest
// live snapshot). Callers hold db.mu.Lock, which excludes commits (they
// hold the read lock), so the pending list drains without racing new
// appends into the applied prefix.
func (db *Database) foldLocked() {
	db.pendingMu.Lock()
	pend := db.pending
	db.pending = nil
	db.pendingMu.Unlock()
	if len(pend) > 0 {
		defer func(start time.Time) { mTxnFoldSeconds.Observe(time.Since(start).Nanoseconds()) }(time.Now())
	}
	for i, pc := range pend {
		if err := db.applyCommitLocked(&pc); err != nil {
			// The overlay validated these rows at claim time, so this is
			// a base-storage invariant break. Re-queue the unapplied
			// suffix — the chains keep serving correct reads, and the
			// keyed apply can be repeated — and surface via metric.
			mTxnFoldErrors.Inc()
			db.pendingMu.Lock()
			db.pending = append(pend[i:], db.pending...)
			db.pendingMu.Unlock()
			return
		}
		if pc.ts > db.foldedTS {
			db.foldedTS = pc.ts
		}
	}
	minActive := db.txns.MinActiveTS()
	for _, rt := range db.tables {
		rt.ov.Prune(db.foldedTS, minActive)
	}
}

// applyCommitLocked folds one committed transaction into base storage.
func (db *Database) applyCommitLocked(pc *pendingCommit) error {
	for i := range pc.tables {
		tt := &pc.tables[i]
		rt, err := db.runtime(tt.Name)
		if err != nil {
			continue // dropped since the commit
		}
		if err := applyTxnTable(rt, tt); err != nil {
			return err
		}
	}
	return nil
}

// applyTxnTable applies one table's slice of a committed transaction to
// its base storage by primary key: a written key that has a final row
// image is replaced through Upsert (the row store overwrites its slots in
// place), a key left without one is deleted, and no step scans the table.
// Shared by the background fold (under db.mu.Lock) and WAL recovery; both
// record into a migration tail if one is installed, so an in-flight layout
// migration replays folded commits too.
func applyTxnTable(rt *tableRuntime, tt *wal.TxnTable) error {
	op := dmlOp{keys: tt.DelPKs, rows: tt.Rows}
	if len(tt.DelPKs) > 0 && len(tt.Rows) > 0 {
		sch := rt.entry.Schema
		kept := make(map[string]struct{}, len(tt.Rows))
		for _, row := range tt.Rows {
			kept[value.TupleKey(sch.PKValues(row))] = struct{}{}
		}
		op.keys = nil
		for _, pk := range tt.DelPKs {
			if _, ok := kept[value.TupleKey(pk)]; !ok {
				op.keys = append(op.keys, pk)
			}
		}
	}
	mTxnFoldKeys.Add(int64(len(op.keys) + len(op.rows)))
	if err := applyFold(rt.store, op); err != nil {
		return err
	}
	rt.recordTail(op)
	return nil
}

// applyFold deletes op's keys and upserts its row images.
func applyFold(st *storage, op dmlOp) error {
	for _, pk := range op.keys {
		st.DeletePK(pk)
	}
	if len(op.rows) == 0 {
		return nil
	}
	return st.Upsert(op.rows)
}

// Vacuum folds every pending committed transaction into base storage and
// prunes version chains no live snapshot can still need. The migration
// scheduler calls it alongside delta-merge compaction; it is also safe
// to call directly at any time.
func (db *Database) Vacuum() {
	db.mu.Lock()
	db.foldLocked()
	db.mu.Unlock()
}

// TxnStats is a point-in-time summary of transaction activity. Counters
// are process-wide instruments (shared across databases in one process,
// like every hs_ metric).
type TxnStats struct {
	Active    int64
	Begins    int64
	Commits   int64
	Aborts    int64
	Conflicts int64
	FoldKeys  int64 // primary keys folded into base storage
}

// TxnStats reports the transaction counters surfaced in /status and
// the REPL's \stats.
func (db *Database) TxnStats() TxnStats {
	return TxnStats{
		Active:    mTxnActive.Value(),
		Begins:    mTxnBegins.Value(),
		Commits:   mTxnCommits.Value(),
		Aborts:    mTxnAborts.Value(),
		Conflicts: mTxnConflicts.Value(),
		FoldKeys:  mTxnFoldKeys.Value(),
	}
}

// autoCommitRetries bounds the internal first-updater-wins retry loop of
// auto-commit DML: a single statement is its own transaction, so a
// conflict can be retried transparently against the newer state instead
// of surfacing an abort the client would just replay.
const autoCommitRetries = 100

// backoffConflict pauses between internal conflict retries: yields
// first, then sub-millisecond sleeps, so a hot key degrades into short
// waits instead of a spin.
func backoffConflict(attempt int) {
	if attempt < 4 {
		runtime.Gosched()
		return
	}
	d := time.Duration(attempt) * 20 * time.Microsecond
	if d > time.Millisecond {
		d = time.Millisecond
	}
	time.Sleep(d)
}

// execAutoTxnDML runs one auto-commit DML statement as a single-
// statement transaction on the MVCC overlay: claim under the read lock,
// publish, wait for durability, retry internally on conflict. Concurrent
// statements on disjoint rows proceed in parallel; they only share the
// brief commit critical section and the WAL's group commit.
func (db *Database) execAutoTxnDML(ctx context.Context, tr *trace.Trace, q *query.Query) (*Result, error) {
	for attempt := 0; ; attempt++ {
		db.mu.RLock()
		if db.closed.Load() {
			db.mu.RUnlock()
			return nil, ErrClosed
		}
		rt, err := db.runtime(q.Table)
		if err != nil {
			db.mu.RUnlock()
			return nil, err
		}
		sp := tr.Start("apply")
		t := db.txns.Begin()
		res, err := db.applyTxnDML(rt, t, q)
		var seq uint64
		var enqErr error
		if err == nil {
			seq, enqErr = db.publishCommit(t)
		} else {
			db.txns.Abort(t)
		}
		db.mu.RUnlock()
		sp.End()
		if err != nil {
			if IsConflict(err) {
				mTxnConflicts.Inc()
				if attempt < autoCommitRetries && ctx.Err() == nil {
					backoffConflict(attempt)
					continue
				}
			}
			return nil, err
		}
		if enqErr == nil {
			enqErr = db.waitDurable(tr, seq)
		}
		if enqErr != nil {
			return nil, fmt.Errorf("engine: %s applied but not durable: %w", q.Kind, enqErr)
		}
		sp.AddRowsOut(int64(res.Affected))
		db.foldBehind()
		return res, nil
	}
}

// execTxnDML runs one DML statement inside an explicit transaction: the
// statement claims its rows and returns — nothing reaches base storage
// or the WAL until Commit. Any error (conflict or plain failure) aborts
// the whole transaction, releasing every claim; the abort reason sticks
// until Rollback.
func (db *Database) execTxnDML(tr *trace.Trace, etx *Txn, q *query.Query) (*Result, error) {
	if err := etx.usable(); err != nil {
		return nil, err
	}
	db.mu.RLock()
	if db.closed.Load() {
		db.mu.RUnlock()
		return nil, ErrClosed
	}
	rt, err := db.runtime(q.Table)
	var res *Result
	if err == nil {
		sp := tr.Start("apply")
		res, err = db.applyTxnDML(rt, etx.tx, q)
		sp.End()
	}
	db.mu.RUnlock()
	if err != nil {
		if IsConflict(err) {
			mTxnConflicts.Inc()
		}
		etx.fail(err)
		return nil, err
	}
	return res, nil
}

// applyTxnDML runs one DML statement as claims on rt's overlay for
// transaction t. Matching for UPDATE/DELETE happens at t's snapshot;
// primary-key uniqueness (INSERT, key-moving UPDATE) is checked against
// current reality — the overlay's newest committed state, else base
// storage — mirroring the stores' own checks. Conflicts surface wrapping
// txn.ErrConflict. Caller holds db.mu.RLock, so base storage is stable
// (folds and COPY hold the write lock).
func (db *Database) applyTxnDML(rt *tableRuntime, t *txn.Txn, q *query.Query) (*Result, error) {
	sch := rt.entry.Schema
	switch q.Kind {
	case query.Insert:
		return txnInsert(rt, sch, t, q)
	case query.Update:
		return db.txnUpdate(rt, sch, t, q)
	case query.Delete:
		return db.txnDelete(rt, sch, t, q)
	}
	return nil, fmt.Errorf("engine: bad DML kind %v", q.Kind)
}

func txnInsert(rt *tableRuntime, sch *schema.Table, t *txn.Txn, q *query.Query) (*Result, error) {
	coerced, err := rt.coerceRows(q.Rows)
	if err != nil {
		return nil, err
	}
	batch := make(map[string]struct{}, len(q.Rows))
	for _, cr := range coerced {
		if err := sch.ValidateRow(cr); err != nil {
			return nil, err
		}
		pk := sch.PKValues(cr)
		key := value.TupleKey(pk)
		if _, dup := batch[key]; dup {
			return nil, fmt.Errorf("engine: duplicate primary key %v within insert batch in table %q", pk, sch.Name)
		}
		batch[key] = struct{}{}
	}
	for _, cr := range coerced {
		pk := sch.PKValues(cr)
		cur, chained := rt.ov.VisibleForWrite(t, pk)
		if (chained && cur != nil) || (!chained && rt.store.HasPK(pk)) {
			return nil, fmt.Errorf("engine: duplicate primary key %v in table %q", pk, sch.Name)
		}
		// When no chain exists the key has no live base row either (the
		// HasPK check above), so the new chain carries no pre-image.
		if err := rt.ov.Claim(t, pk, cr, nil); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(coerced)}, nil
}

func (db *Database) txnUpdate(rt *tableRuntime, sch *schema.Table, t *txn.Txn, q *query.Query) (*Result, error) {
	// Validate assignments up front, as the stores do.
	if err := sch.ValidateSet(q.Set); err != nil {
		return nil, err
	}
	olds := db.matchForWrite(rt, t, q.Pred)
	if len(olds) == 0 {
		return &Result{}, nil
	}
	pkChanged := sch.AssignsKey(q.Set)
	news := make([][]value.Value, len(olds))
	for i, old := range olds {
		nr := make([]value.Value, len(old))
		copy(nr, old)
		for c, v := range q.Set {
			nr[c] = v
		}
		news[i] = nr
	}
	if pkChanged {
		// Key-moving updates pre-validate their targets against current
		// reality; a target occupied by any live row — including one this
		// statement also moves — is rejected, like the stores do.
		targets := make(map[string]struct{}, len(news))
		for i, nr := range news {
			npk := sch.PKValues(nr)
			nkey := value.TupleKey(npk)
			if _, dup := targets[nkey]; dup {
				return nil, fmt.Errorf("engine: update would assign duplicate primary key %v to multiple rows in %q", npk, sch.Name)
			}
			targets[nkey] = struct{}{}
			if nkey == value.TupleKey(sch.PKValues(olds[i])) {
				continue
			}
			cur, chained := rt.ov.VisibleForWrite(t, npk)
			if (chained && cur != nil) || (!chained && rt.store.HasPK(npk)) {
				return nil, fmt.Errorf("engine: update would duplicate primary key %v in table %q", npk, sch.Name)
			}
		}
	}
	for i, old := range olds {
		opk := sch.PKValues(old)
		if pkChanged {
			npk := sch.PKValues(news[i])
			if value.TupleKey(opk) != value.TupleKey(npk) {
				// Key move: tombstone the old key, claim the new one.
				if err := rt.ov.Claim(t, opk, nil, old); err != nil {
					return nil, err
				}
				if err := rt.ov.Claim(t, npk, news[i], nil); err != nil {
					return nil, err
				}
				continue
			}
		}
		if err := rt.ov.Claim(t, opk, news[i], old); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(olds)}, nil
}

func (db *Database) txnDelete(rt *tableRuntime, sch *schema.Table, t *txn.Txn, q *query.Query) (*Result, error) {
	olds := db.matchForWrite(rt, t, q.Pred)
	for _, old := range olds {
		if err := rt.ov.Claim(t, sch.PKValues(old), nil, old); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(olds)}, nil
}

// matchForWrite collects (copies of) the rows matching pred at t's
// snapshot, merged across base storage and the overlay. A matched row
// that came from base IS the key's base row — chains created from it use
// it as the pre-image older snapshots keep reading. Caller holds
// db.mu.RLock.
func (db *Database) matchForWrite(rt *tableRuntime, t *txn.Txn, pred expr.Predicate) [][]value.Value {
	view := db.tableView(rt, t.BeginTS, t)
	return rowsOf(mergedScan(rt, view, pred, nil, nil), rt.entry.Schema.NumColumns())
}

// stmtSnap carries one read statement's snapshot: the timestamp it reads
// at and the explicit transaction it runs in (nil outside one, so only
// committed versions are visible).
type stmtSnap struct {
	ts uint64
	tx *txn.Txn
}

// overlayView is one statement's materialized view of a table's version
// overlay: base rows whose primary key appears in masked are superseded
// (the overlay owns those keys), and rows lists every full-width row the
// overlay contributes at the statement's snapshot. masked maps a key to
// the index in rows of the image the overlay shows in the base row's
// place, -1 when it shows none (the key is deleted at the snapshot). The
// view is built once per statement under the read lock and is immune to
// concurrent claims and commits: they only ever add versions newer than
// the snapshot.
type overlayView struct {
	masked map[string]int
	rows   [][]value.Value
}

// tableView builds the statement-level view of rt's overlay. nil means
// the overlay contributes nothing and base storage alone IS the snapshot
// — the common case every vectorized/parallel fast path keys off.
// Caller holds db.mu.RLock (the fold, which moves overlay contents into
// base, holds the write lock, so base+overlay stay consistent for the
// whole statement).
func (db *Database) tableView(rt *tableRuntime, ts uint64, tx *txn.Txn) *overlayView {
	if rt.ov.Len() == 0 {
		return nil
	}
	v := &overlayView{masked: make(map[string]int)}
	// Only chains whose visible version diverges from the folded base
	// state reach the view, so an overlay holding nothing but live claims
	// yields nil and reads keep the fast path.
	rt.ov.Delta(ts, db.foldedTS, tx, func(pk, row []value.Value, visible bool) {
		at := -1
		if visible {
			at = len(v.rows)
			v.rows = append(v.rows, row)
		}
		if rt.store.HasPK(pk) {
			v.masked[value.TupleKey(pk)] = at
		}
	})
	if len(v.masked) == 0 && len(v.rows) == 0 {
		return nil
	}
	return v
}

// mergedScan is the block scan of rt's base storage merged with a
// statement's overlay view. With a nil view it is the base scan on ex.
// Otherwise its blocks run in order on one worker, transforming the base
// scan's: in each block a superseded base row gives its place to the image
// the overlay shows for its key — an updated row stays where the scan order
// (physical or index) puts it, whether or not its commit has been folded
// yet — and the overlay's remaining visible rows follow in one more block,
// all through the same predicate. The columns are then widened with the
// primary key (overlay images carry full width); colVals[j] is still
// column cols[j] for every j < len(cols).
func mergedScan(rt *tableRuntime, view *overlayView, pred expr.Predicate, cols []int, ex *exec.Ctx) exec.Blocks {
	if view == nil {
		return rt.store.Scan(pred, cols, ex)
	}
	sch := rt.entry.Schema
	cols = unionCols(orAll(cols, sch.NumColumns()), sch.PrimaryKey)
	pkbuf, pkPos := make([]value.Value, len(sch.PrimaryKey)), make([]int, len(sch.PrimaryKey))
	for i, c := range sch.PrimaryKey {
		pkPos[i] = slices.Index(cols, c)
	}
	placed := make([]bool, len(view.rows))  // images already shown in their base row's place
	out := make([][]value.Value, len(cols)) // a block rebuilt from its first superseded row on
	put := func(img []value.Value) {
		if pred == nil || pred.Matches(img) {
			for j, c := range cols {
				out[j] = append(out[j], img[c])
			}
		}
	}
	base := rt.store.Scan(pred, cols, ex.Serial())
	return exec.Blocks{N: base.N + 1, Ctx: base.Ctx, Done: base.Done, Block: func(w, i int) [][]value.Value {
		for j := range out {
			out[j] = out[j][:0]
		}
		if i == base.N {
			for i, img := range view.rows {
				if !placed[i] {
					put(img)
				}
			}
			return nonEmpty(out)
		}
		colVals := base.Block(w, i)
		if len(colVals) == 0 {
			return nil
		}
		rebuilt := false
		for k := range colVals[0] {
			for i, p := range pkPos {
				pkbuf[i] = colVals[p][k]
			}
			at, masked := view.masked[value.TupleKey(pkbuf)]
			if masked && !rebuilt {
				rebuilt = true
				for j := range out {
					out[j] = append(out[j], colVals[j][:k]...)
				}
			}
			switch {
			case rebuilt && !masked:
				for j := range out {
					out[j] = append(out[j], colVals[j][k])
				}
			case masked && at >= 0 && !placed[at]:
				placed[at] = true
				put(view.rows[at])
			}
		}
		if !rebuilt {
			return colVals
		}
		return nonEmpty(out)
	}}
}

// nonEmpty returns colVals, or nil when it holds no row.
func nonEmpty(colVals [][]value.Value) [][]value.Value {
	if len(colVals[0]) == 0 {
		return nil
	}
	return colVals
}

// rowsOf copies out every row of serial blocks whose first width columns
// are the table's, in block order.
func rowsOf(b exec.Blocks, width int) (rows [][]value.Value) {
	eachRow(b, allCols(width), width, func(row []value.Value) { rows = append(rows, slices.Clone(row)) })
	return rows
}

// eachRow hands fn, in block order, every row of serial blocks of columns
// cols as a row of table positions, width wide — column cols[j] at
// position cols[j], the others left as the last row had them — in one
// reused row.
func eachRow(b exec.Blocks, cols []int, width int, fn func(row []value.Value)) {
	row := make([]value.Value, width)
	b.Each(func(_, _ int, colVals [][]value.Value) bool {
		for k := range colVals[0] {
			for j, c := range cols {
				row[c] = colVals[j][k]
			}
			fn(row)
		}
		return true
	})
}
