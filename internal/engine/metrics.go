package engine

import (
	"hybridstore/internal/metrics"
	"hybridstore/internal/query"
)

// Engine-level instruments in the process-wide registry. Statement
// metrics are recorded once per ExecContext (never per row), so the
// cost is two atomic adds per statement; the WAL-wait histogram
// isolates the group-commit share of DML latency from apply time.
var (
	mReadSeconds = metrics.Default().Histogram("hs_engine_read_seconds",
		"read statement (select/aggregate/join) latency", "seconds")
	mDMLSeconds = metrics.Default().Histogram("hs_engine_dml_seconds",
		"DML statement latency including the durability wait", "seconds")
	mWALWaitSeconds = metrics.Default().Histogram("hs_engine_wal_wait_seconds",
		"time DML statements spend waiting on WAL group commit", "seconds")
	mCheckpointSeconds = metrics.Default().Histogram("hs_engine_checkpoint_seconds",
		"snapshot checkpoint duration", "seconds")
	mPlanningSeconds = metrics.Default().Histogram("hs_planning_seconds",
		"query planning latency (plan IR construction and costing)", "seconds")

	mSelects = metrics.Default().Counter("hs_engine_select_total",
		"SELECT statements executed")
	mAggregates = metrics.Default().Counter("hs_engine_aggregate_total",
		"aggregate statements executed")
	mInserts = metrics.Default().Counter("hs_engine_insert_total",
		"INSERT statements executed")
	mUpdates = metrics.Default().Counter("hs_engine_update_total",
		"UPDATE statements executed")
	mDeletes = metrics.Default().Counter("hs_engine_delete_total",
		"DELETE statements executed")

	mMigrations = metrics.Default().Counter("hs_engine_migrations_total",
		"completed online layout migrations")
	mCheckpoints = metrics.Default().Counter("hs_engine_checkpoints_total",
		"completed snapshot checkpoints")

	// Transaction instruments. begin/commit/abort/active count explicit
	// (BEGIN…COMMIT) transactions; conflicts additionally counts the
	// first-updater-wins aborts auto-commit statements retry through
	// internally, so it is the contention signal even without explicit
	// transactions.
	mTxnBegins = metrics.Default().Counter("hs_txn_begin_total",
		"explicit transactions begun")
	mTxnCommits = metrics.Default().Counter("hs_txn_commit_total",
		"explicit transactions committed")
	mTxnAborts = metrics.Default().Counter("hs_txn_abort_total",
		"explicit transactions aborted (rollback, statement failure or conflict)")
	mTxnConflicts = metrics.Default().Counter("hs_txn_conflict_total",
		"snapshot-isolation write-write conflicts detected (including internal auto-commit retries)")
	mTxnFoldErrors = metrics.Default().Counter("hs_txn_fold_errors_total",
		"commit folds re-queued after a base-storage error")
	mTxnFoldSeconds = metrics.Default().Histogram("hs_txn_fold_seconds",
		"time one fold of pending commits into base storage holds the write lock", "seconds")
	mTxnFoldKeys = metrics.Default().Counter("hs_txn_fold_keys_total",
		"primary keys folded into base storage (deleted or upserted through the PK index)")
	mTxnActive = metrics.Default().Gauge("hs_txn_active",
		"explicit transactions currently open")

	mJoinDense = metrics.Default().Counter("hs_join_dense_total",
		"aggregate joins probed through the column store's dense grouped-aggregation kernel (star-join shape)")
	mJoinGeneric = metrics.Default().Counter("hs_join_generic_total",
		"joins probed through the hash table (every other shape)")

	mVerticalJoinMiss = metrics.Default().Counter("hs_vertical_join_miss_total",
		"rows of a vertically split table whose key was missing from the other partition during a PK join (partition inconsistency; 0 when healthy)")
)

func kindCounter(k query.Kind) *metrics.Counter {
	switch k {
	case query.Aggregate:
		return mAggregates
	case query.Select:
		return mSelects
	case query.Insert:
		return mInserts
	case query.Update:
		return mUpdates
	default:
		return mDeletes
	}
}
