// Package engine implements the hybrid-store database engine: tables
// placed in a row store, a column store, or partitioned across both, with
// a uniform execution layer for selections, aggregations, joins and DML.
// Partitioned tables are rewritten transparently (unions and partial-
// aggregate merges across horizontal partitions, primary-key joins across
// vertical partitions) based on the catalog's partitioning annotations,
// mirroring the query-rewrite mechanism of the paper's §4.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/exec"
	"hybridstore/internal/metrics"
	"hybridstore/internal/plan"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/trace"
	"hybridstore/internal/txn"
	"hybridstore/internal/value"
	"hybridstore/internal/wal"
)

// Observer is the workload monitor as the engine sees it: every executed
// statement flows in once it has succeeded, and every dropped table, so a
// table created later under its name inherits nothing observed of it.
type Observer interface {
	Observe(q *query.Query)
	Dropped(table string)
}

// ErrClosed is returned by Exec/ExecContext (and wrapped into durability
// errors) once Close has been called. The network server relies on it to
// drain sessions racing a shutdown cleanly.
var ErrClosed = errors.New("engine: database is closed")

// sessionKey is the context key WithSession stores the session label
// under.
type sessionKey struct{}

// WithSession tags a context with a session/client label; the slow-query
// log attributes the statements executed under it to that session.
func WithSession(ctx context.Context, session string) context.Context {
	return context.WithValue(ctx, sessionKey{}, session)
}

// SessionFromContext returns the session label attached by WithSession
// (empty when absent).
func SessionFromContext(ctx context.Context) string {
	s, _ := ctx.Value(sessionKey{}).(string)
	return s
}

// Result is the outcome of one executed query.
type Result struct {
	Cols     []string
	Rows     [][]value.Value
	Affected int
	Duration time.Duration
}

// tableRuntime pairs a catalog entry with its physical storage. While a
// background migration is in flight, tail buffers every DML applied to
// store so the migrator can replay it onto the new storage before the
// atomic swap.
type tableRuntime struct {
	entry *catalog.TableEntry
	store *storage
	tail  *migrationTail

	// ov is the table's MVCC version overlay. It is created with the table
	// and survives layout migrations — chains reference primary keys,
	// never physical row positions.
	ov *txn.Table

	// rowKey is the last hidden row key (schema.RowKey) handed out; Open
	// restarts it at the largest one the table holds.
	rowKey atomic.Int64
}

// Database is a hybrid-store database instance. New creates a purely
// in-memory database; Open creates a durable one backed by a write-ahead
// log and snapshot checkpoints in a data directory.
type Database struct {
	mu     sync.RWMutex
	cat    *catalog.Catalog
	tables map[string]*tableRuntime
	// obs is read once per statement, outside db.mu: behind a pending fold
	// writer every extra read-lock acquisition queues again.
	obs atomic.Pointer[Observer]
	// ingested counts the rows every COPY batch has applied.
	ingested atomic.Int64

	// pool is the worker pool analytical reads draw morsel helpers
	// from. It defaults to the shared process-wide pool; the network
	// server replaces it with the pool it also admits statements on, so
	// admission plus intra-query parallelism stay bounded together.
	pool *exec.Pool

	// Durability state; nil/empty for in-memory databases. log is set
	// once by Open before the database is shared and never reassigned.
	dir string
	log *wal.Log

	// closed flips once in Close, before the final checkpoint takes the
	// write lock: statements that acquire a lock afterwards observe it
	// and fail with ErrClosed instead of mutating a checkpointed (or
	// log-less) database.
	closed atomic.Bool

	// slow holds the attached slow-query log (boxed so a nil log is
	// still an atomic swap); see SetSlowQueryLog.
	slow atomic.Pointer[slowLogBox]

	// txns issues MVCC timestamps and tracks live transactions; commits
	// publish to the version overlays under the read lock, and pending
	// lists the committed transactions not yet folded into base storage
	// (applied in commit order under the write lock; see mvcc.go).
	// foldedTS is the newest folded commit timestamp (write-lock
	// guarded).
	txns      *txn.Manager
	pendingMu sync.Mutex
	pending   []pendingCommit
	foldedTS  uint64
}

// defaultPlanModel caches the analytic default cost model the planner
// prices alternatives with, as every advisor does.
var defaultPlanModel = sync.OnceValue(costmodel.DefaultModel)

// New creates an empty database.
func New() *Database {
	db := &Database{
		cat:    catalog.New(),
		tables: make(map[string]*tableRuntime),
		pool:   exec.Default(),
		txns:   txn.NewManager(),
	}
	// Like the server's gauges, the freshest database of the process owns them.
	metrics.Default().GaugeFunc("hs_rowstore_arena_bytes",
		"physical size of the row-store arenas: value slots, NULL bitmaps and string heaps, tombstoned windows included",
		func() int64 { return int64(db.Footprint().RowArena) })
	metrics.Default().GaugeFunc("hs_colstore_resident_bytes",
		"physical size of the column-store fragments by capacity: dictionaries, code vectors, NULL and zone arrays, deltas",
		func() int64 { return int64(db.Footprint().ColResident) })
	metrics.Default().GaugeFunc("hs_colstore_payload_bytes",
		"logical size of the column-store fragments: dictionary values and code vectors, what MemoryBytes reports",
		func() int64 { return int64(db.Footprint().ColPayload) })
	metrics.Default().GaugeFunc("hs_index_bytes",
		"size of every PK and secondary index of both stores: 8 bytes per hash-table slot",
		func() int64 { return int64(db.Footprint().Index) })
	return db
}

// Footprint is the memory of every table's storage, logical and physical.
func (db *Database) Footprint() Footprint {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var f Footprint
	for _, rt := range db.tables {
		rt.store.footprint(&f)
	}
	return f
}

// SetPool replaces the worker pool reads fan out on (nil forces serial
// execution). The server calls it before serving so session admission and
// query parallelism share one bounded pool; it must not be called while
// statements are executing.
func (db *Database) SetPool(p *exec.Pool) { db.pool = p }

// Pool returns the database's worker pool (nil when serial).
func (db *Database) Pool() *exec.Pool { return db.pool }

// execCtx derives one statement's execution context: the database pool,
// the context-backed cancellation hook (none for a context that can never
// be cancelled), and the statement trace (nil for untraced statements —
// every trace consumer is nil-safe).
func (db *Database) execCtx(ctx context.Context) *exec.Ctx {
	ex := &exec.Ctx{Pool: db.pool, Trace: trace.FromContext(ctx)}
	if ctx.Done() != nil {
		ex.Stop = func() bool { return ctx.Err() != nil }
	}
	return ex
}

// Catalog exposes the system catalog.
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// SetObserver attaches the workload observer (nil detaches).
func (db *Database) SetObserver(obs Observer) {
	if obs == nil {
		db.obs.Store(nil)
		return
	}
	db.obs.Store(&obs)
}

func (db *Database) observer() Observer {
	if p := db.obs.Load(); p != nil {
		return *p
	}
	return nil
}

func tableKey(name string) string { return strings.ToLower(name) }

// CreateTable registers a new table in the given store.
func (db *Database) CreateTable(sch *schema.Table, store catalog.StoreKind) error {
	return db.CreateTableWithLayout(sch, store, nil)
}

// CreateTableWithLayout registers a new table with an explicit
// partitioning layout.
func (db *Database) CreateTableWithLayout(sch *schema.Table, store catalog.StoreKind, spec *catalog.PartitionSpec) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.createTableLocked(sch, store, spec); err != nil {
		return err
	}
	return db.logRecord(&wal.Record{
		Kind: wal.RecCreateTable, Table: sch.Name,
		Schema: sch, Store: store, Spec: spec,
	})
}

// createTableLocked is the un-logged core of CreateTableWithLayout;
// callers hold the write lock.
func (db *Database) createTableLocked(sch *schema.Table, store catalog.StoreKind, spec *catalog.PartitionSpec) error {
	k := tableKey(sch.Name)
	if _, dup := db.tables[k]; dup {
		return fmt.Errorf("engine: table %q already exists", sch.Name)
	}
	if spec != nil {
		store = catalog.Partitioned
	}
	st, err := newStorage(sch, store, spec)
	if err != nil {
		return err
	}
	entry := &catalog.TableEntry{Schema: sch, Store: store, Partitioning: spec}
	if err := db.cat.Add(entry); err != nil {
		return err
	}
	db.tables[k] = &tableRuntime{entry: entry, store: st, ov: txn.NewTable(sch.Name)}
	return nil
}

// DropTable removes a table.
func (db *Database) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.dropTableLocked(name); err != nil {
		return err
	}
	return db.logRecord(&wal.Record{Kind: wal.RecDropTable, Table: name})
}

// dropTableLocked is the un-logged core of DropTable.
func (db *Database) dropTableLocked(name string) error {
	k := tableKey(name)
	if _, ok := db.tables[k]; !ok {
		return fmt.Errorf("engine: unknown table %q", name)
	}
	delete(db.tables, k)
	db.cat.Remove(name)
	if obs := db.observer(); obs != nil {
		obs.Dropped(name)
	}
	return nil
}

// runtime resolves a table; callers hold the lock.
func (db *Database) runtime(name string) (*tableRuntime, error) {
	rt, ok := db.tables[tableKey(name)]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return rt, nil
}

// Rows returns a table's live row count.
func (db *Database) Rows(name string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rt, err := db.runtime(name)
	if err != nil {
		return 0, err
	}
	// Committed-but-unfolded overlay versions are part of the table's
	// current state even though base storage hasn't absorbed them yet.
	return rt.store.Rows() + rt.ov.NetRows(db.txns.ReadTS(), db.foldedTS), nil
}

// ErrIndexNotMaterialized reports that an index declaration could not be
// materialized under the table's current layout (column stores rely on
// their sorted dictionaries instead). The declaration is still recorded
// in the catalog — it materializes when the table (re)gains row-store
// storage — but callers and the advisor cost model can now distinguish
// this from an actual secondary index instead of a silent no-op.
var ErrIndexNotMaterialized = fmt.Errorf("engine: index not materialized under current layout")

// CreateIndex declares a secondary index on a column; it is materialized
// wherever the table's current layout has row-store storage and recorded
// in the catalog so the cost model sees it (f_selectivity depends on index
// availability for the row store). When the current layout cannot
// materialize the index the declaration is still recorded, but the call
// returns an error wrapping ErrIndexNotMaterialized.
func (db *Database) CreateIndex(name string, col int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	err := db.createIndexLocked(name, col)
	if err != nil && !errors.Is(err, ErrIndexNotMaterialized) {
		return err
	}
	// The declaration was recorded (even when not materialized), so it
	// must be logged: on recovery the catalog must show it again.
	if lerr := db.logRecord(&wal.Record{Kind: wal.RecCreateIndex, Table: name, Col: col}); lerr != nil {
		return lerr
	}
	return err
}

// createIndexLocked is the un-logged core of CreateIndex.
func (db *Database) createIndexLocked(name string, col int) error {
	rt, err := db.runtime(name)
	if err != nil {
		return err
	}
	if col < 0 || col >= rt.entry.Schema.NumColumns() {
		return fmt.Errorf("engine: index column %d out of range for %q", col, name)
	}
	supported := rt.store.CreateIndex(col)
	// The declaration is recorded through the catalog so the append
	// synchronizes with concurrent catalog snapshot readers.
	db.cat.AddIndex(name, col)
	if !supported {
		return fmt.Errorf("%w: column %d of %q", ErrIndexNotMaterialized, col, name)
	}
	return nil
}

// Compact brings a table's storage to its read-optimized steady state
// (column-store delta merged, row-store tombstones reclaimed). Bulk
// loaders call it so measurements start from a merged state instead of an
// arbitrary delta fill.
func (db *Database) Compact(name string) error {
	db.mu.Lock()
	rt, err := db.runtime(name)
	if err != nil {
		db.mu.Unlock()
		return err
	}
	// Fold pending commits first: compaction should see (and merge) the
	// committed reality, and the fold doubles as the version-chain GC
	// hook of the compaction scheduler.
	db.foldLocked()
	rt.store.Compact()
	db.mu.Unlock()
	// Refresh catalog statistics to match the compacted state — read off
	// the dictionaries the merge just built where a column store holds
	// the column — so planner estimates don't drift; this bumps the
	// catalog version, invalidating cached plans. Under its own read lock;
	// a failure (the table was concurrently dropped) doesn't undo the merge.
	db.CollectStats(name)
	return nil
}

// DeltaRows reports how many rows sit in the table's write-optimized
// delta fragments; the migration scheduler triggers Compact when this
// crosses its threshold.
func (db *Database) DeltaRows(name string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rt, err := db.runtime(name)
	if err != nil {
		return 0, err
	}
	return rt.store.DeltaRows(), nil
}

// CollectStats refreshes the catalog statistics of a table from its data.
func (db *Database) CollectStats(name string) (*catalog.TableStats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rt, err := db.runtime(name)
	if err != nil {
		return nil, err
	}
	sc := catalog.NewStatsCollector(rt.entry.Schema.ColTypes())
	rt.store.collectStats(sc)
	st := sc.Finish()
	db.cat.SetStats(name, st)
	return st, nil
}

// MemoryBytes returns the estimated payload size of a table.
func (db *Database) MemoryBytes(name string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rt, err := db.runtime(name)
	if err != nil {
		return 0, err
	}
	var f Footprint
	rt.store.footprint(&f)
	return f.RowPayload + f.ColPayload, nil
}

// Exec executes one query, measuring its runtime and notifying the
// observer. DML runs through the MVCC overlay under the read lock; reads
// take the read lock with a snapshot timestamp, so neither blocks the
// other.
func (db *Database) Exec(q *query.Query) (*Result, error) {
	return db.ExecContext(context.Background(), q)
}

// ExecContext is Exec with a statement context: cancelling (or timing
// out) ctx aborts an in-flight read at the next batch boundary — scans
// and aggregates poll the context roughly every 1024 rows — and the
// statement returns ctx.Err(). DML is not interrupted once applied (a
// half-applied statement could not be rolled back), but the context is
// checked before the statement starts. A session label attached via
// WithSession labels the statement in the slow-query log.
func (db *Database) ExecContext(ctx context.Context, q *query.Query) (*Result, error) {
	return db.execWithPlan(ctx, q, nil)
}

// execWithPlan is the statement entry point. Reads execute through the
// plan IR: a supplied plan (the server's plan cache) is used when its
// catalog version still matches, otherwise the statement is (re)planned
// under the read lock.
func (db *Database) execWithPlan(ctx context.Context, q *query.Query, planned *plan.Plan) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// An armed slow-query log traces every statement so slow ones carry
	// their per-stage breakdown; EXPLAIN ANALYZE arrives with a trace
	// already in ctx and keeps it.
	tr := trace.FromContext(ctx)
	sl := db.SlowQueryLogHandle()
	if tr == nil && sl.Threshold() > 0 {
		tr = trace.New()
		ctx = trace.WithTrace(ctx, tr)
	}
	var (
		res *Result
		err error
	)
	isDML := false
	start := time.Now()
	etx := TxnFromContext(ctx)
	switch q.Kind {
	case query.Insert, query.Update, query.Delete:
		isDML = true
		// Routing: statements of an explicit transaction claim versions
		// on the MVCC overlay; auto-commit statements run as
		// single-statement transactions (read lock only, disjoint writers
		// in parallel).
		if etx != nil {
			res, err = db.execTxnDML(tr, etx, q)
		} else {
			res, err = db.execAutoTxnDML(ctx, tr, q)
		}
	default:
		notifyScanStarted(ctx, q.Table)
		if etx != nil {
			if err := etx.usable(); err != nil {
				return nil, err
			}
		}
		db.mu.RLock()
		if db.closed.Load() {
			db.mu.RUnlock()
			return nil, ErrClosed
		}
		// The statement's snapshot: its transaction's begin timestamp
		// (plus its own uncommitted writes), or the newest committed
		// state for auto-commit reads. The fold holds the write lock, so
		// base+overlay cannot shift underneath this read lock.
		snap := stmtSnap{ts: db.txns.ReadTS()}
		if etx != nil {
			snap = stmtSnap{ts: etx.tx.BeginTS, tx: etx.tx}
		}
		// A cached plan is honored only while the catalog version it
		// was built against is current; DDL, migrations, index changes
		// and statistics refreshes all move the version and force a
		// replan (still under this read lock, so the check is stable).
		p := planned
		if p == nil || p.CatalogVersion != db.cat.Version() {
			p, err = db.planReadLocked(q)
		}
		if err == nil {
			sp := tr.Start(readStage(q))
			res, err = db.execPlan(ctx, q, p, snap)
			if err == nil {
				sp.AddRowsOut(int64(len(res.Rows)))
			}
			sp.End()
		}
		db.mu.RUnlock()
	}
	if err != nil {
		return nil, err
	}
	res.Duration = time.Since(start)
	kindCounter(q.Kind).Inc()
	if isDML {
		mDMLSeconds.Observe(res.Duration.Nanoseconds())
	} else {
		mReadSeconds.Observe(res.Duration.Nanoseconds())
	}
	if obs := db.observer(); obs != nil {
		obs.Observe(q)
	}
	sl.observe(SessionFromContext(ctx), q, res.Duration, resultRows(res), tr)
	return res, nil
}

// readStage names the trace span of a read statement.
func readStage(q *query.Query) string {
	switch {
	case q.Join != nil:
		return "join"
	case q.Kind == query.Aggregate:
		return "aggregate"
	default:
		return "scan"
	}
}

// resultRows is the row count reported to the slow-query log: result
// rows for reads, affected rows for DML.
func resultRows(res *Result) int {
	if len(res.Rows) > 0 {
		return len(res.Rows)
	}
	return res.Affected
}

// enqueueDML hands a DML record to the WAL while the caller holds the
// write lock (so WAL order equals apply order) and returns the sequence
// number to wait on; 0 means the database is in-memory.
func (db *Database) enqueueDML(rec *wal.Record) (uint64, error) {
	if db.log == nil {
		return 0, nil
	}
	return db.log.Enqueue(rec)
}

// logRecord appends a record and waits for durability; used by the DDL
// paths, which hold the write lock for the (rare) sync.
func (db *Database) logRecord(rec *wal.Record) error {
	if db.log == nil {
		return nil
	}
	return db.log.Append(rec)
}

// coerceRows converts a statement's rows of the declared columns to the
// column types (the lenient conversion of the SQL front end) and gives
// each row of a table keyed by the hidden row key the next key; the stores
// validate what they are handed. A key drawn by a statement that fails or
// rolls back is not handed out again.
func (rt *tableRuntime) coerceRows(rows [][]value.Value) ([][]value.Value, error) {
	sch := rt.entry.Schema
	hidden := sch.Visible()
	out := make([][]value.Value, len(rows))
	for i, row := range rows {
		cr, err := sch.CoerceRow(row)
		if err != nil {
			return nil, err
		}
		if hidden < len(cr) {
			cr[hidden] = value.NewBigint(rt.rowKey.Add(1))
		}
		out[i] = cr
	}
	return out, nil
}
