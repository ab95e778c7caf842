package engine

import (
	"hybridstore/internal/agg"
	"hybridstore/internal/colstore"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/rowstore"
	"hybridstore/internal/value"
)

// storage is the uniform interface the engine executes against. All
// implementations speak in table column positions, so unpartitioned
// tables, vertically split tables and horizontally split tables are
// interchangeable — the transparency the paper requires of store-aware
// partitioning ("the query rewriting must be realized automatically and
// transparently to the user", §4). Every read is one block scan, and every
// write names rows by primary key through DeletePK and Upsert: a committed
// transaction's fold, a COPY batch the engine has checked for duplicate
// keys, a migration's copy, WAL replay and a snapshot load all go through
// them. A snapshot is the table's scan, so no layout has an encoding of its
// own.
type storage interface {
	Rows() int
	// Scan returns the live rows matching pred as numbered blocks (see
	// exec.Blocks): block(w, i) decodes block i's rows into worker w's
	// buffers, colVals[j][k] being column cols[j] of the block's k-th row
	// (nil or empty cols = every column, in table order), and the blocks
	// are numbered in the order a serial scan visits them. They run on the
	// returned context — ex, or ex without its pool where the layout is
	// too small for helpers or must visit its blocks in order — whose Stop
	// hook is polled between blocks; a stopped scan's output must be
	// discarded, and a nil ex runs serially.
	Scan(pred expr.Predicate, cols []int, ex *exec.Ctx) exec.Blocks
	// Aggregate computes grouped aggregates over rows matching pred. ex
	// carries the statement's execution context: its Stop hook (derived
	// from the statement context) is polled at batch boundaries —
	// roughly every 1024 rows — and a true return abandons the
	// aggregation, whose partial result must then be discarded; its Pool
	// lets the stores fan the scan out across morsel workers. A nil ex
	// (or nil ex.Pool) runs serially without cancellation.
	Aggregate(specs []agg.Spec, groupBy []int, pred expr.Predicate, ex *exec.Ctx) *agg.Result
	// CreateIndex adds a secondary hash index (internal/pkindex, the table
	// every PK index is) where the underlying store keeps them — row
	// stores; otherwise it is a no-op. Callers that need to distinguish
	// must consult SupportsIndex first.
	CreateIndex(col int)
	// SupportsIndex reports whether CreateIndex(col) would materialize a
	// secondary index under the current layout. Column stores answer
	// false: their sorted dictionaries are the implicit index the paper
	// describes for value predicates, and their PK index serves keyed
	// reads and writes. Partitioned layouts answer true when at least one
	// partition holding the column is row-oriented.
	SupportsIndex(col int) bool
	// Compact brings the storage to its read-optimized steady state:
	// column stores merge their delta, row stores reclaim tombstones.
	Compact()
	// DeltaRows reports the rows sitting in write-optimized delta
	// fragments (column stores); the migration scheduler triggers
	// Compact when it crosses a threshold.
	DeltaRows() int
	// footprint adds what is under this storage to f.
	footprint(f *Footprint)
	// HasPK reports whether a live row with the given primary-key values
	// (in table PK order) exists. The engine checks transactional writes
	// and COPY batches against it.
	HasPK(key []value.Value) bool
	// DeletePK removes the live row with the given primary key, reporting
	// whether there was one, and Upsert stores full-width rows under their
	// primary keys, replacing the row a key already has. Both resolve the
	// key through the store's PK index, so a write costs the rows it names,
	// not the table. Upsert validates the whole batch against the schema
	// before it changes anything; it does not reject a key the table holds.
	DeletePK(key []value.Value) bool
	Upsert(rows [][]value.Value) error
}

// Footprint is the memory under a storage: the logical payload of its row
// and column stores (their MemoryBytes) beside its physical size.
type Footprint struct {
	RowPayload  int
	RowArena    int // row-store arenas: value slots, NULL bitmaps, string heaps
	ColPayload  int
	ColResident int // column-store fragments, by capacity (colstore.ResidentBytes)
	Index       int // every PK and secondary index of both stores, by capacity
}

func (f *Footprint) addRow(t *rowstore.Table) {
	f.RowPayload += t.MemoryBytes()
	f.RowArena += t.ArenaBytes()
	f.Index += t.IndexBytes()
}

func (f *Footprint) addCol(t *colstore.Table) {
	f.ColPayload += t.MemoryBytes()
	f.ColResident += t.ResidentBytes()
	f.Index += t.IndexBytes()
}

// rowStorage adapts rowstore.Table to the storage interface.
type rowStorage struct {
	t *rowstore.Table
}

func (s *rowStorage) Rows() int { return s.t.Rows() }

func (s *rowStorage) Scan(pred expr.Predicate, cols []int, ex *exec.Ctx) exec.Blocks {
	return s.t.Blocks(pred, cols, ex)
}

func (s *rowStorage) Aggregate(specs []agg.Spec, groupBy []int, pred expr.Predicate, ex *exec.Ctx) *agg.Result {
	return foldScan(s.t.Schema().ColTypes(), specs, groupBy, func(cols []int) exec.Blocks { return s.Scan(pred, cols, ex) })
}

// foldBlocks is how many consecutive scan blocks share one partial of a
// generic hash fold (agg.Result.Fold) — 1 024 row-store slots, 4 096
// column-store rows — so merging a partial costs little beside its scan.
const foldBlocks = 4

// foldScan aggregates, through the generic hash fold, the block scan that
// scan returns for the columns the aggregates name, whose table columns
// have the given types.
func foldScan(types []value.Type, specs []agg.Spec, groupBy []int, scan func(cols []int) exec.Blocks) *agg.Result {
	res := agg.NewResult(specs, groupBy)
	res.SetOutputTypes(types)
	res.Fold(foldBlocks, scan)
	return res
}

func (s *rowStorage) CreateIndex(col int) { s.t.CreateIndex(col) }

func (s *rowStorage) SupportsIndex(col int) bool { return true }

func (s *rowStorage) DeltaRows() int { return 0 }

func (s *rowStorage) Compact() { s.t.Compact() }

func (s *rowStorage) footprint(f *Footprint) { f.addRow(s.t) }

func (s *rowStorage) HasPK(key []value.Value) bool { return s.t.HasPK(key) }

func (s *rowStorage) DeletePK(key []value.Value) bool { return s.t.DeletePK(key) }

func (s *rowStorage) Upsert(rows [][]value.Value) error { return s.t.Upsert(rows) }

// orAll returns cols, or every column of a width-column table when cols
// is nil or empty.
func orAll(cols []int, width int) []int {
	if len(cols) == 0 {
		return allCols(width)
	}
	return cols
}

// colStorage adapts colstore.Table to the storage interface.
type colStorage struct {
	t *colstore.Table
}

func (s *colStorage) Rows() int { return s.t.Rows() }

func (s *colStorage) Scan(pred expr.Predicate, cols []int, ex *exec.Ctx) exec.Blocks {
	return s.t.Blocks(pred, orAll(cols, s.t.Schema().NumColumns()), ex)
}

func (s *colStorage) Aggregate(specs []agg.Spec, groupBy []int, pred expr.Predicate, ex *exec.Ctx) *agg.Result {
	return s.t.AggregateExec(specs, groupBy, pred, ex)
}

// CreateIndex is a no-op: the column store's sorted dictionaries already
// provide the implicit index the paper describes, and a predicate naming
// the whole key goes through its PK index. SupportsIndex lets callers
// detect this instead of assuming an index was materialized.
func (s *colStorage) CreateIndex(col int) {}

func (s *colStorage) SupportsIndex(col int) bool { return false }

func (s *colStorage) DeltaRows() int { return s.t.DeltaRows() }

func (s *colStorage) Compact() { s.t.Merge() }

func (s *colStorage) footprint(f *Footprint) { f.addCol(s.t) }

func (s *colStorage) HasPK(key []value.Value) bool { return s.t.HasPK(key) }

func (s *colStorage) DeletePK(key []value.Value) bool { return s.t.DeletePK(key) }

func (s *colStorage) Upsert(rows [][]value.Value) error { return s.t.Upsert(rows) }
