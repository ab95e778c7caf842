// Streaming bulk ingest: CopyRows appends one client batch to a table
// as a single WAL record — one group-commit fsync amortized over the
// whole frame instead of one per statement — while keeping exactly the
// durability and atomicity contract of single-statement INSERTs: the
// batch is checked whole before it is upserted, and after a crash
// recovery replays either the whole batch or none of it.
package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hybridstore/internal/metrics"
	"hybridstore/internal/query"
	"hybridstore/internal/value"
	"hybridstore/internal/wal"
)

// ErrUnsupported is the sentinel wrapped by statements the engine
// genuinely cannot execute (as opposed to statements that failed). The
// wire layer maps it to its own error code so drivers can distinguish
// "never retry this" from a plain SQL error.
var ErrUnsupported = errors.New("engine: unsupported operation")

// IsUnsupported reports whether err marks a genuinely unsupported
// statement (see ErrUnsupported).
func IsUnsupported(err error) bool { return errors.Is(err, ErrUnsupported) }

// Bulk-ingest instruments. Batch granularity, not row granularity: the
// whole point of the path is that per-row costs collapse into per-batch
// ones.
var (
	mIngestBatches = metrics.Default().Counter("hs_ingest_batches_total",
		"bulk-ingest (COPY) batches applied")
	mIngestRows = metrics.Default().Counter("hs_ingest_rows_total",
		"rows applied through bulk ingest (COPY)")
	mIngestBatchRows = metrics.Default().Histogram("hs_ingest_batch_rows",
		"rows per bulk-ingest batch", "rows")
	mIngestSeconds = metrics.Default().Histogram("hs_ingest_batch_seconds",
		"bulk-ingest batch latency including the durability wait", "seconds")
)

// CopyRows appends one bulk-ingest batch to a table. The batch is
// atomic: every row is validated and its key checked against the table
// and the rest of the batch before one Upsert applies it, one WAL record
// covers the whole batch (so crash recovery can never surface a partial
// batch), and a single group-commit fsync — shared with concurrent
// writers — makes it durable before the call returns. The workload
// monitor sees the batch as one INSERT of its rows.
//
// COPY is an auto-commit operation; inside an explicit transaction it
// fails with ErrUnsupported (buffering a bulk load in a version overlay
// would defeat the point of the fast path). Rows whose primary key is
// claimed by a live uncommitted transaction are rejected like any other
// duplicate: such keys are invisible to base storage's uniqueness check
// but would collide if their owner commits.
func (db *Database) CopyRows(ctx context.Context, table string, rows [][]value.Value) (*Result, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if TxnFromContext(ctx) != nil {
		return nil, fmt.Errorf("%w: COPY inside an explicit transaction", ErrUnsupported)
	}
	if len(rows) == 0 {
		return &Result{}, nil
	}
	start := time.Now()
	db.mu.Lock()
	if db.closed.Load() {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	rt, err := db.runtime(table)
	if err != nil {
		db.mu.Unlock()
		return nil, err
	}
	// Fold first: with every committed version in base storage, the
	// store's primary-key check covers all committed reality and the
	// overlay only holds uncommitted claims.
	db.foldLocked()
	sch := rt.entry.Schema
	coerced, err := rt.coerceRows(rows)
	if err == nil {
		taken := rt.store.HasPK
		if claimed := rt.ov.UncommittedKeys(); len(claimed) > 0 {
			taken = func(key []value.Value) bool {
				_, hit := claimed[value.TupleKey(key)]
				return hit || rt.store.HasPK(key)
			}
		}
		err = sch.ValidateInsert(coerced, taken)
	}
	op := dmlOp{rows: coerced}
	if err == nil {
		err = applyFold(rt.store, op)
	}
	if err != nil {
		db.mu.Unlock()
		return nil, err
	}
	rt.recordTail(op)
	seq, err := db.enqueueDML(&wal.Record{
		Kind: wal.RecCopy, Table: table,
		Width: sch.NumColumns(), Rows: coerced,
	})
	db.mu.Unlock()
	// Group commit: the record was enqueued in apply order under the
	// write lock, so concurrent batches share one fsync.
	if err == nil {
		err = db.waitDurable(nil, seq)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: copy applied but not durable: %w", err)
	}
	d := time.Since(start)
	mIngestBatches.Inc()
	mIngestRows.Add(int64(len(coerced)))
	mIngestBatchRows.Observe(int64(len(coerced)))
	mIngestSeconds.Observe(d.Nanoseconds())
	db.ingested.Add(int64(len(coerced)))
	if obs := db.observer(); obs != nil {
		obs.Observe(&query.Query{Kind: query.Insert, Table: table, Rows: rows})
	}
	return &Result{Affected: len(coerced), Duration: d}, nil
}

// IngestedRows returns the rows COPY has applied to this database so
// far. Diff two readings to get an ingest rate.
func (db *Database) IngestedRows() int64 { return db.ingested.Load() }
