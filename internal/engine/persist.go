// Durability: snapshot checkpoints plus write-ahead logging. A durable
// database directory holds two files:
//
//   - snapshot — the catalog and every table's live rows, one row section
//     per table streamed from the table's scan whatever its layout,
//     stamped with the WAL sequence number the snapshot covers;
//   - wal.log — the ordered log of every DDL/DML statement (and every
//     completed migration swap) acknowledged since that snapshot.
//
// Open loads the snapshot, replays the WAL tail through applyFold, the
// write every commit and migration uses, then folds the tail into a fresh
// snapshot and truncates the log. Checkpoints write snapshot.tmp,
// fsync, rename, fsync the directory, and only then truncate the WAL;
// because frames carry sequence numbers and the snapshot records its
// cut, a crash between the rename and the truncate cannot double-apply
// the stale tail.
package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hybridstore/internal/catalog"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
	"hybridstore/internal/wal"
)

const (
	snapshotFile  = "snapshot"
	walFile       = "wal.log"
	snapshotMagic = "HSSNAP"
	// snapshotVersion 3 stores each table as one row section of its scan.
	// Versions 1 and 2 wrote each layout's own sections; they still load
	// (legacyRows).
	snapshotVersion = 3
)

// Options tunes a durable database.
type Options struct {
	// GroupCommit caps the WAL records merged into one fsync batch
	// (0 = wal.DefaultMaxBatch). It is the insert-throughput knob:
	// concurrent writers share one fsync per batch.
	GroupCommit int
	// NoSync skips fsyncs on WAL flushes. Only for tests and bulk loads
	// that checkpoint afterwards; a crash can lose acknowledged writes.
	NoSync bool
}

// Open loads (or initializes) a durable database in dir: the latest
// snapshot is restored, the WAL tail is replayed on top of it, any
// migration that was in flight at the crash is absent (its swap was
// never logged, so the tables come back in their pre-migration layout
// with all replayed DML applied), the replayed tail is folded into a
// fresh checkpoint, and statistics are collected for the planner. Every
// subsequent DDL/DML statement is logged and group-committed before it is
// acknowledged.
func Open(dir string) (*Database, error) { return OpenOptions(dir, Options{}) }

// OpenOptions is Open with explicit tuning.
func OpenOptions(dir string, opts Options) (*Database, error) {
	if dir == "" {
		return nil, fmt.Errorf("engine: empty data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: create data directory: %w", err)
	}
	db := New()
	db.dir = dir

	// 1. Latest snapshot, if any.
	startSeq := uint64(1)
	snapPath := filepath.Join(dir, snapshotFile)
	if data, err := os.ReadFile(snapPath); err == nil {
		s, lerr := db.loadSnapshot(data)
		if lerr != nil {
			return nil, fmt.Errorf("engine: load snapshot %s: %w", snapPath, lerr)
		}
		startSeq = s
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	// 2. Replay the WAL tail. Frames below startSeq are already folded
	// into the snapshot (a crash can leave them behind when it lands
	// between the snapshot rename and the log truncate) and are skipped.
	walPath := filepath.Join(dir, walFile)
	info, err := wal.Recover(walPath, func(seq uint64, rec *wal.Record) error {
		if seq < startSeq {
			return nil
		}
		return db.applyRecord(rec)
	})
	if err != nil {
		return nil, fmt.Errorf("engine: replay %s: %w", walPath, err)
	}

	// 3. Open the log for appending, truncating any torn tail.
	nextSeq := startSeq
	if info.MaxSeq+1 > nextSeq {
		nextSeq = info.MaxSeq + 1
	}
	log, err := wal.Open(walPath, nextSeq, info.ValidLen, wal.Options{
		MaxBatch: opts.GroupCommit, NoSync: opts.NoSync,
	})
	if err != nil {
		return nil, err
	}
	db.log = log

	// 4. Fold a non-empty tail into a fresh snapshot so the next open
	// starts from the snapshot alone.
	if info.Records > 0 {
		if err := db.Checkpoint(); err != nil {
			log.Close()
			return nil, err
		}
	}

	// 5. Publish statistics: the planner prices a recovered table from
	// its data, not from default selectivities. A table keyed by the
	// hidden row key resumes handing keys out past the largest it holds.
	for _, name := range db.cat.Names() {
		st, err := db.CollectStats(name)
		if err != nil {
			log.Close()
			return nil, err
		}
		rt, _ := db.runtime(name)
		if sch := rt.entry.Schema; sch.Visible() < sch.NumColumns() {
			if _, hi, ok := st.MinMax(sch.Visible()); ok {
				rt.rowKey.Store(hi.Int())
			}
		}
	}
	return db, nil
}

// applyRecord replays one WAL record during recovery. DML goes through
// applyFold, the write a commit's fold and a migration's tail use; DDL
// goes through the un-logged cores of the public methods, a layout
// change through MigrateLayout (db.log is still nil: nothing is
// re-logged). The caller is the only goroutine touching the database.
func (db *Database) applyRecord(rec *wal.Record) error {
	switch rec.Kind {
	case wal.RecCreateTable:
		return db.createTableLocked(rec.Schema, rec.Store, rec.Spec)
	case wal.RecDropTable:
		return db.dropTableLocked(rec.Table)
	case wal.RecCreateIndex:
		err := db.createIndexLocked(rec.Table, rec.Col)
		if errors.Is(err, ErrIndexNotMaterialized) {
			// The declaration is recorded; it materializes when the
			// table regains row storage, exactly as it did originally.
			return nil
		}
		return err
	case wal.RecSetLayout:
		return db.MigrateLayout(rec.Table, rec.Store, rec.Spec)
	case wal.RecInsert, wal.RecCopy:
		// A COPY batch replays exactly like an insert of its rows; the
		// record boundary is the atomicity unit — a torn tail dropped the
		// whole frame, so recovery never sees a partial batch.
		rt, err := db.runtime(rec.Table)
		if err != nil {
			return err
		}
		rows := rec.Rows
		if rec.Width < rt.entry.Schema.NumColumns() {
			// Logged before every table had a key: rows of the declared
			// columns of a keyless table take fresh hidden keys, as the
			// statement's rows would now.
			if rows, err = rt.coerceRows(rows); err != nil {
				return err
			}
		}
		return applyFold(rt.store, dmlOp{rows: rows})
	case wal.RecTxnCommit:
		// One committed transaction's atomic effect. Log order equals
		// commit order, so the physical delete-then-insert images replay
		// to exactly the folded state; a transaction whose commit record
		// never became durable contributes nothing (rolled back). Tables
		// dropped later in the log no longer exist when their drop record
		// precedes this one's fold on the live side — tolerate them.
		for i := range rec.Txn {
			tt := &rec.Txn[i]
			rt, err := db.runtime(tt.Name)
			if err != nil {
				continue
			}
			if err := applyTxnTable(rt, tt); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("engine: unknown WAL record kind %v", rec.Kind)
	}
}

// Checkpoint serializes the catalog and every table's storage to the
// snapshot file and truncates the WAL. Durable databases call it
// explicitly (or via Close); recovery calls it to fold a replayed tail.
func (db *Database) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpointLocked()
}

func (db *Database) checkpointLocked() error {
	if db.log == nil {
		return fmt.Errorf("engine: database is not durable (create it with engine.Open)")
	}
	cpStart := time.Now()
	defer func() {
		mCheckpointSeconds.Observe(time.Since(cpStart).Nanoseconds())
		mCheckpoints.Inc()
	}()
	// Fold every pending committed transaction first: the snapshot
	// serializes base storage only, and the WAL reset below discards the
	// commit records. We hold the write lock, so no commit is in flight
	// (commits run under the read lock) — after the fold, base storage
	// IS the committed state. Uncommitted claims live only in version
	// chains and are correctly absent from the snapshot.
	db.foldLocked()
	// Everything acknowledged must be on disk in the log before the
	// snapshot claims to supersede it.
	if err := db.log.Sync(); err != nil {
		return err
	}
	tmp := filepath.Join(db.dir, snapshotFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	// Encode and flush one section at a time: peak memory is bounded by
	// the largest table's payload, not the whole database.
	enc := wal.NewEncoder()
	flush := func() error {
		_, werr := f.Write(enc.Bytes())
		enc.Reset()
		return werr
	}
	names := make([]string, 0, len(db.tables))
	for k := range db.tables {
		names = append(names, k)
	}
	sort.Strings(names)
	enc.String(snapshotMagic)
	enc.Uvarint(snapshotVersion)
	enc.Uvarint(db.log.NextSeq())
	enc.Uvarint(uint64(len(names)))
	writeErr := flush()
	for _, k := range names {
		if writeErr != nil {
			break
		}
		rt := db.tables[k]
		e := rt.entry
		enc.Schema(e.Schema)
		enc.Byte(byte(e.Store))
		enc.Spec(e.Partitioning)
		enc.Ints(e.Indexes)
		if writeErr = encodeRows(enc, rt); writeErr == nil {
			writeErr = flush()
		}
	}
	if writeErr != nil {
		f.Close()
		return fmt.Errorf("engine: checkpoint write: %w", writeErr)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("engine: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("engine: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(db.dir, snapshotFile)); err != nil {
		return fmt.Errorf("engine: checkpoint rename: %w", err)
	}
	if err := syncDir(db.dir); err != nil {
		return fmt.Errorf("engine: checkpoint dir sync: %w", err)
	}
	// Safe only now: the renamed snapshot covers every logged record.
	return db.log.Reset()
}

// Close marks the database closed — statements arriving afterwards fail
// with ErrClosed — then checkpoints a durable database and closes its
// WAL. The final checkpoint takes the write lock, so every statement
// admitted before the close completes (and, for DML, reaches the log)
// before the snapshot is cut; this is what lets the network server drain
// racing sessions cleanly. Closing an in-memory database only sets the
// flag.
func (db *Database) Close() error {
	db.closed.Store(true)
	if db.log == nil {
		return nil
	}
	cpErr := db.Checkpoint()
	clErr := db.log.Close()
	if cpErr != nil {
		return cpErr
	}
	return clErr
}

// Crash closes the WAL file WITHOUT checkpointing or flushing, leaving
// the data directory exactly as a process kill would: the snapshot of
// the last checkpoint plus the log of everything acknowledged since —
// enqueued-but-unacknowledged records are dropped, not quietly made
// durable. It exists for crash-recovery tests and fault-injection
// drills; production code wants Close.
func (db *Database) Crash() error {
	if db.log == nil {
		return nil
	}
	return db.log.Abort()
}

// encodeRows writes a table's live rows as one count-prefixed row section,
// streamed from its scan. A scan that disagrees with Rows fails the
// checkpoint rather than write a section the count misframes.
func encodeRows(enc *wal.Encoder, rt *tableRuntime) error {
	want, width, n := rt.store.Rows(), rt.entry.Schema.NumColumns(), 0
	enc.Uvarint(uint64(want))
	eachRow(rt.store.Scan(nil, nil, nil), allCols(width), width, func(row []value.Value) {
		enc.Row(row)
		n++
	})
	if n != want {
		return fmt.Errorf("table %q scanned %d rows of %d", rt.entry.Schema.Name, n, want)
	}
	return nil
}

// loadSnapshot restores database state from snapshot bytes and returns
// the WAL sequence number the snapshot covers up to. Each table's rows are
// written with one Upsert and then compacted, so a recovered table starts
// read-optimized.
func (db *Database) loadSnapshot(data []byte) (uint64, error) {
	dec := wal.NewDecoder(data)
	if magic := dec.String(); magic != snapshotMagic {
		return 0, fmt.Errorf("engine: bad snapshot magic %q", magic)
	}
	version := dec.Uvarint()
	if dec.Err() == nil && (version < 1 || version > snapshotVersion) {
		return 0, fmt.Errorf("engine: unsupported snapshot version %d", version)
	}
	startSeq := dec.Uvarint()
	n := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return 0, err
	}
	for i := uint64(0); i < n; i++ {
		sch := dec.Schema()
		store := catalog.StoreKind(dec.Byte())
		spec := dec.Spec()
		indexes := dec.Ints()
		if err := dec.Err(); err != nil {
			return 0, err
		}
		if err := db.createTableLocked(sch, store, spec); err != nil {
			return 0, err
		}
		rt, err := db.runtime(sch.Name)
		if err != nil {
			return 0, err
		}
		var rows [][]value.Value
		if version == snapshotVersion {
			rows = dec.Rows(sch.NumColumns())
		} else {
			rows, err = legacyRows(dec, rt, store, spec, version)
		}
		if err == nil {
			err = dec.Err()
		}
		if err == nil {
			err = rt.store.Upsert(rows)
		}
		if err == nil && rt.store.Rows() != len(rows) {
			err = fmt.Errorf("%d rows under %d keys", len(rows), rt.store.Rows())
		}
		if err != nil {
			return 0, fmt.Errorf("engine: restore table %q: %w", sch.Name, err)
		}
		rt.store.Compact()
		for _, c := range indexes {
			if c < 0 || c >= sch.NumColumns() {
				return 0, fmt.Errorf("engine: restore table %q: index on column %d", sch.Name, c)
			}
			rt.store.CreateIndex(c)
			db.cat.AddIndex(sch.Name, c)
		}
	}
	return startSeq, dec.Err()
}

// legacyRows reads a table's rows from a version-1 or version-2 snapshot.
// Both wrote each layout's own row sections: one for a row store, main
// then delta for a column store, the hot side then the cold side for a
// horizontal split, and for a vertical split its row partition's section
// then its column partition's two, joined back here by key. A version-1
// table declared without a primary key holds its declared columns only
// (version 1 could not split it vertically); its rows take the hidden
// keys 1..n, and the key counter resumes after them.
func legacyRows(dec *wal.Decoder, rt *tableRuntime, store catalog.StoreKind, spec *catalog.PartitionSpec, version uint64) ([][]value.Value, error) {
	sch := rt.entry.Schema
	width := sch.NumColumns()
	keyless := version == 1 && sch.Visible() < width
	if keyless {
		width = sch.Visible()
	}
	section := func(kind catalog.StoreKind) [][]value.Value {
		if kind == catalog.ColumnStore {
			return append(dec.Rows(width), dec.Rows(width)...)
		}
		return dec.Rows(width)
	}
	var rows [][]value.Value
	switch {
	case spec == nil:
		rows = section(store)
	case spec.Horizontal != nil:
		rows = section(spec.Horizontal.HotStore)
		if spec.Vertical == nil {
			rows = append(rows, section(spec.Horizontal.ColdStore)...)
		}
	}
	if spec != nil && spec.Vertical != nil {
		if keyless {
			return nil, fmt.Errorf("version-1 snapshot holds a vertical split of a table without a primary key")
		}
		split, err := joinPartitions(dec, sch, spec.Vertical)
		if err != nil {
			return nil, err
		}
		rows = append(rows, split...)
	}
	if keyless {
		for i, row := range rows {
			rows[i] = append(row, value.NewBigint(int64(i+1)))
		}
		rt.rowKey.Store(int64(len(rows)))
	}
	return rows, dec.Err()
}

// joinPartitions reads a legacy vertical split, its row partition's
// section and then its column partition's main and delta, and joins them
// into full rows by key: the partitions may hold their rows in different
// orders, but each must hold every key once.
func joinPartitions(dec *wal.Decoder, sch *schema.Table, vs *catalog.VerticalSpec) ([][]value.Value, error) {
	rowPart := dec.Rows(len(vs.RowCols))
	colPart := append(dec.Rows(len(vs.ColCols)), dec.Rows(len(vs.ColCols))...)
	if err := dec.Err(); err != nil {
		return nil, err
	}
	rows, at := make([][]value.Value, len(rowPart)), make(map[string]int, len(rowPart))
	for i, r := range rowPart {
		rows[i] = make([]value.Value, sch.NumColumns())
		for j, c := range vs.RowCols {
			rows[i][c] = r[j]
		}
		at[value.TupleKey(sch.PKValues(rows[i]))] = i
	}
	scratch := make([]value.Value, sch.NumColumns())
	for _, r := range colPart {
		for j, c := range vs.ColCols {
			scratch[c] = r[j]
		}
		key := value.TupleKey(sch.PKValues(scratch))
		i, ok := at[key]
		if !ok {
			return nil, fmt.Errorf("the column partition holds key %v the row partition does not", sch.PKValues(scratch))
		}
		delete(at, key)
		for j, c := range vs.ColCols {
			rows[i][c] = r[j]
		}
	}
	if len(at) > 0 {
		return nil, fmt.Errorf("%d keys of the row partition are missing from the column partition", len(at))
	}
	return rows, nil
}

// syncDir fsyncs a directory so a just-renamed file inside it survives
// a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
