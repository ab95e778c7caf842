package engine

import (
	"fmt"
	"slices"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/colstore"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/rowstore"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// storage is a table's physical storage: a list of parts, each one row or
// column store holding some of the table's rows and columns. It speaks in
// table column positions whatever its parts hold, so unpartitioned tables,
// vertically split tables and horizontally split tables are interchangeable
// — the transparency the paper requires of store-aware partitioning ("the
// query rewriting must be realized automatically and transparently to the
// user", §4). The catalog's PartitionSpec is the only description of a
// layout, and newStorage builds the parts from it.
//
// A hot/cold split (paper Figure 2) puts rows with SplitCol >= SplitVal —
// current and newly arriving tuples — on the hot side and the historic
// ones on the cold side; a table without one has a single side. A side is
// one full-width part, or a vertical split's row part and column part,
// which both hold the primary key (Figure 3). Every read is one block scan
// routed to the parts it touches: sides are pruned by the range the
// predicate imposes on the split column, and on each side the one part
// that holds every column the statement names answers, else the side's
// parts are joined on the primary key (pkJoin). Every write names rows by
// primary key through DeletePK and Upsert: a committed transaction's fold,
// a COPY batch the engine has checked for duplicate keys, a migration's
// copy, WAL replay and a snapshot load all go through them. A snapshot is
// the table's scan, so no layout has an encoding of its own.
type storage struct {
	sch   *schema.Table
	split *catalog.HorizontalSpec // nil: the table has one side
	parts []part                  // the hot side's, parts[:cut], then the other side's
	cut   int
}

// part is one store holding the rows of one side of a table: all of the
// table's columns, or a vertical split's share of them.
type part struct {
	keyed                 // the store, rs or cs, for keyed reads and writes
	rs    *rowstore.Table // one of rs and cs is set, for the kernels of its store
	cs    *colstore.Table
	cols  []int       // the table columns it holds, in its own order; nil: every column
	fwd   map[int]int // table column -> its position in the part; nil with cols
}

// keyed is what the row and column stores share: a live row count and
// reads and writes by primary key.
type keyed interface {
	Rows() int
	HasPK(key []value.Value) bool
	DeletePK(key []value.Value) bool
	Upsert(rows [][]value.Value) error
}

// newStorage builds the parts of a table placed in store, or laid out as
// spec says: a hot/cold split's hot side is one full-width part, and its
// cold side — the whole table without a split — one full-width part or a
// vertical split's row part and column part.
func newStorage(sch *schema.Table, store catalog.StoreKind, spec *catalog.PartitionSpec) (*storage, error) {
	if err := spec.Validate(sch); err != nil {
		return nil, err
	}
	st := &storage{sch: sch}
	if spec != nil && spec.Horizontal != nil {
		st.split, st.cut = spec.Horizontal, 1
		if err := st.add(spec.Horizontal.HotStore, nil); err != nil {
			return nil, err
		}
		store = spec.Horizontal.ColdStore
	}
	var err error
	if spec != nil && spec.Vertical != nil {
		if err = st.add(catalog.RowStore, spec.Vertical.RowCols); err == nil {
			err = st.add(catalog.ColumnStore, spec.Vertical.ColCols)
		}
	} else {
		err = st.add(store, nil)
	}
	return st, err
}

// add appends a part of the given store holding table columns cols (nil:
// every column).
func (st *storage) add(store catalog.StoreKind, cols []int) error {
	sch, p := st.sch, part{cols: cols}
	if cols != nil {
		var err error
		if sch, err = st.sch.Project(fmt.Sprintf("%s$%v", st.sch.Name, store), cols); err != nil {
			return err
		}
		p.fwd = make(map[int]int, len(cols))
		for i, c := range cols {
			p.fwd[c] = i
		}
	}
	switch store {
	case catalog.RowStore:
		p.rs = rowstore.New(sch)
		p.keyed = p.rs
	case catalog.ColumnStore:
		p.cs = colstore.New(sch)
		p.keyed = p.cs
	default:
		return fmt.Errorf("engine: invalid leaf store %v", store)
	}
	st.parts = append(st.parts, p)
	return nil
}

// sides returns the parts holding the rows a predicate can touch: the hot
// side's, then the other side's — a table without a split has only the
// latter — leaving out a side the predicate's range on the split column
// lies wholly beside.
func (st *storage) sides(pred expr.Predicate) (hot, cold []part) {
	hot, cold = st.parts[:st.cut], st.parts[st.cut:]
	if st.split == nil {
		return
	}
	if rg, ok := expr.RangeOn(pred, st.split.SplitCol); ok {
		if rg.Hi != nil && value.Compare(*rg.Hi, st.split.SplitVal) < 0 {
			hot = nil
		}
		if rg.Lo != nil && value.Compare(*rg.Lo, st.split.SplitVal) >= 0 {
			cold = nil
		}
	}
	return
}

// cover returns the part of a side that holds every column pred and cols
// name — the row part first — or nil when none does and a statement must
// join the side's parts on the primary key.
func cover(side []part, pred expr.Predicate, cols []int) *part {
	if len(side) == 1 {
		return &side[0]
	}
	need := append(expr.ColumnSet(pred), cols...)
	for i := range side {
		if p := &side[i]; !slices.ContainsFunc(need, func(c int) bool { _, ok := p.local(c); return !ok }) {
			return p
		}
	}
	return nil
}

// local returns the part's position of table column c, false when the
// part does not hold it.
func (p *part) local(c int) (int, bool) {
	if p.fwd == nil {
		return c, true
	}
	l, ok := p.fwd[c]
	return l, ok
}

// Rows returns the table's live row count: every part of a side holds
// the side's rows.
func (st *storage) Rows() int {
	n := st.parts[st.cut].Rows()
	if st.cut > 0 {
		n += st.parts[0].Rows()
	}
	return n
}

// Scan returns the live rows matching pred as numbered blocks (see
// exec.Blocks) of columns cols (nil or empty: every column, in table
// order), in the order a serial scan visits them: the hot side's, then the
// cold side's. They run on the returned context — ex, or ex without its
// pool where a part is too small for helpers or must visit its blocks in
// order — whose Stop hook is polled between blocks; a stopped scan's
// output must be discarded, and a nil ex runs serially.
func (st *storage) Scan(pred expr.Predicate, cols []int, ex *exec.Ctx) exec.Blocks {
	switch hot, cold := st.sides(pred); {
	case len(hot) > 0 && len(cold) > 0:
		return concatBlocks(st.scanSide(hot, pred, cols, ex), st.scanSide(cold, pred, cols, ex))
	case len(hot) > 0:
		return st.scanSide(hot, pred, cols, ex)
	case len(cold) > 0:
		return st.scanSide(cold, pred, cols, ex)
	}
	return exec.Blocks{Ctx: ex}
}

// scanSide is one side's block scan: of the part that holds the columns,
// else of the side's parts joined on the primary key.
func (st *storage) scanSide(side []part, pred expr.Predicate, cols []int, ex *exec.Ctx) exec.Blocks {
	if len(side) > 1 {
		cols = orAll(cols, st.sch.NumColumns())
	}
	if p := cover(side, pred, cols); p != nil {
		return p.scan(pred, cols, ex)
	}
	return st.pkJoin(side).scanJoined(pred, cols, ex)
}

// scan is the part's block scan of table columns cols under pred, both
// naming only columns it holds; a full-width part passes them through.
func (p *part) scan(pred expr.Predicate, cols []int, ex *exec.Ctx) exec.Blocks {
	if p.fwd != nil {
		pred, _ = expr.Remap(pred, p.fwd)
		cols = remapCols(cols, p.fwd)
	}
	if p.rs != nil {
		return p.rs.Blocks(pred, cols, ex)
	}
	return p.cs.Blocks(pred, orAll(cols, p.cs.Schema().NumColumns()), ex)
}

// orAll returns cols, or every column of a width-column table when cols
// is nil or empty.
func orAll(cols []int, width int) []int {
	if len(cols) == 0 {
		return allCols(width)
	}
	return cols
}

// concatBlocks returns a's blocks, then b's, on the narrower context of the
// two: one without a pool when either has none.
func concatBlocks(a, b exec.Blocks) exec.Blocks {
	ctx := a.Ctx
	if b.Ctx == nil || b.Ctx.Pool == nil {
		ctx = b.Ctx
	}
	return exec.Blocks{N: a.N + b.N, Ctx: ctx,
		Block: func(w, i int) [][]value.Value {
			if i < a.N {
				return a.Block(w, i)
			}
			return b.Block(w, i-a.N)
		},
		Done: func() {
			a.Release()
			b.Release()
		}}
}

// Aggregate computes grouped aggregates over the rows matching pred on ex,
// whose Stop hook is polled roughly every 1024 rows (a stopped
// aggregate's partial result must be discarded) and whose pool the stores
// fan their scans out on; a nil ex runs serially. The two sides of a
// hot/cold split are the two morsels of one loop on ex, concurrent when the
// pool has a slot to spare — the side done first frees its slot for the
// other's loop — and their partial aggregates merge, the paper's "union of
// both partitions".
func (st *storage) Aggregate(specs []agg.Spec, groupBy []int, pred expr.Predicate, ex *exec.Ctx) *agg.Result {
	hot, cold := st.sides(pred)
	switch {
	case len(cold) == 0 && len(hot) > 0:
		return st.aggregateSide(hot, specs, groupBy, pred, ex)
	case len(hot) == 0 && len(cold) > 0:
		return st.aggregateSide(cold, specs, groupBy, pred, ex)
	}
	// Both sides — an empty range on the split column leaves both too.
	sides, res := [2][]part{st.parts[st.cut:], st.parts[:st.cut]}, [2]*agg.Result{}
	ex.Morsels(2, func(_, m int) bool {
		res[m] = st.aggregateSide(sides[m], specs, groupBy, pred, ex)
		return true
	})
	if res[0] == nil { // stopped before the cold side ran: the caller discards the result
		return agg.NewResult(specs, groupBy)
	}
	res[0].Merge(res[1])
	return res[0]
}

// aggregateSide aggregates one side: on the column store's kernel
// (AggregateExec) when a column part holds every column named — the common
// case after the advisor's vertical split, keyfigures and group-bys in the
// column part — through the generic hash fold over the side's scan when a
// row part does, else as a spanning aggregate joining the side's parts on
// the primary key.
func (st *storage) aggregateSide(side []part, specs []agg.Spec, groupBy []int, pred expr.Predicate, ex *exec.Ctx) *agg.Result {
	p := &side[0]
	if len(side) > 1 {
		cols := slices.Clone(groupBy)
		for _, s := range specs {
			if s.Col >= 0 {
				cols = append(cols, s.Col)
			}
		}
		if p = cover(side, pred, cols); p == nil {
			return st.pkJoin(side).aggregateSpanning(specs, groupBy, pred, ex)
		}
	}
	if p.cs == nil {
		return foldScan(st.sch.ColTypes(), specs, groupBy, func(cols []int) exec.Blocks { return st.scanSide(side, pred, cols, ex) })
	}
	if p.fwd != nil {
		specs = slices.Clone(specs)
		for i, s := range specs {
			if s.Col >= 0 {
				specs[i].Col = p.fwd[s.Col]
			}
		}
		pred, _ = expr.Remap(pred, p.fwd)
		groupBy = remapCols(groupBy, p.fwd)
	}
	return p.cs.AggregateExec(specs, groupBy, pred, ex)
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

// column returns the column store of a table that is one full-width
// column part, nil for any other.
func (st *storage) column() *colstore.Table {
	if len(st.parts) > 1 {
		return nil
	}
	return st.parts[0].cs
}

// HasPK reports whether a live row carries the given primary-key values
// (in table PK order, which a part's projection preserves); a side's first
// part answers for the side. The engine checks transactional writes and
// COPY batches against it.
func (st *storage) HasPK(key []value.Value) bool {
	return st.cut > 0 && st.parts[0].HasPK(key) || st.parts[st.cut].HasPK(key)
}

// DeletePK removes the live row with the given primary key from the parts
// of the side that holds it — the hot side first; a key lives on one side
// only — reporting whether there was one. Each part resolves the key
// through its PK index, so a write costs the rows it names, not the table.
func (st *storage) DeletePK(key []value.Value) bool {
	for _, side := range [2][]part{st.parts[:st.cut], st.parts[st.cut:]} {
		found := false
		for _, p := range side {
			found = p.DeletePK(key) || found
		}
		if found {
			return true
		}
	}
	return false
}

// Upsert stores full-width rows under their primary keys, replacing the row
// a key already has; it does not reject a key the table holds. A row goes
// to the parts of the side its split value selects, and its key leaves the
// other side's parts, where its previous image may live. A full-width part
// replaces a row in place; a vertical split's parts drop the key and append
// the row's share, so they keep holding their rows in the same order (the
// guess rowstore.ResolvePK starts from). A table of more than one part
// validates the whole batch before any part changes; a single store
// validates it itself.
func (st *storage) Upsert(rows [][]value.Value) error {
	if len(st.parts) == 1 {
		return st.parts[0].Upsert(rows)
	}
	if err := st.sch.ValidateRows(rows); err != nil {
		return err
	}
	var hot, cold [][]value.Value
	for _, row := range rows {
		in, key := st.hot(row), st.sch.PKValues(row)
		for i, p := range st.parts {
			if in != (i < st.cut) || p.fwd != nil {
				p.DeletePK(key)
			}
		}
		if in {
			hot = append(hot, row)
		} else {
			cold = append(cold, row)
		}
	}
	for i, p := range st.parts {
		mine := cold
		if i < st.cut {
			mine = hot
		}
		if len(mine) == 0 {
			continue
		}
		if p.fwd != nil {
			mine = projectRows(mine, p.cols)
		}
		if err := p.Upsert(mine); err != nil {
			return err
		}
	}
	return nil
}

// hot reports whether a row belongs on the hot side of the table's split.
func (st *storage) hot(row []value.Value) bool {
	if st.split == nil {
		return false
	}
	v := row[st.split.SplitCol]
	return !v.IsNull() && value.Compare(v, st.split.SplitVal) >= 0
}

// CreateIndex adds a secondary hash index (internal/pkindex, the table
// every PK index is) on table column col to every row part that holds it,
// reporting whether one did. Column parts add none: their sorted
// dictionaries are the implicit index the paper describes for value
// predicates, and their PK index serves keyed reads and writes.
func (st *storage) CreateIndex(col int) bool {
	made := false
	for _, p := range st.parts {
		if c, ok := p.local(col); ok && p.rs != nil {
			p.rs.CreateIndex(c)
			made = true
		}
	}
	return made
}

// Compact brings every part to its read-optimized steady state: column
// parts merge their delta, row parts reclaim tombstones.
func (st *storage) Compact() {
	for _, p := range st.parts {
		if p.rs != nil {
			p.rs.Compact()
		} else {
			p.cs.Merge()
		}
	}
}

// DeltaRows reports the rows sitting in the column parts' write-optimized
// delta fragments; the migration scheduler triggers Compact when it
// crosses a threshold.
func (st *storage) DeltaRows() (n int) {
	for _, p := range st.parts {
		if p.cs != nil {
			n += p.cs.DeltaRows()
		}
	}
	return n
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

// footprint adds what is under the parts to f.
func (st *storage) footprint(f *Footprint) {
	for _, p := range st.parts {
		if p.rs != nil {
			f.RowPayload += p.rs.MemoryBytes()
			f.RowArena += p.rs.ArenaBytes()
			f.Index += p.rs.IndexBytes()
		} else {
			f.ColPayload += p.cs.MemoryBytes()
			f.ColResident += p.cs.ResidentBytes()
			f.Index += p.cs.IndexBytes()
		}
	}
}

// collectStats feeds sc the table's statistics, the hot side's on a
// collector of its own that merges last.
func (st *storage) collectStats(sc *catalog.StatsCollector) {
	var hot *catalog.StatsCollector
	if st.cut > 0 {
		hot = sc.Part()
	}
	st.sideStats(sc, st.parts[st.cut:])
	if hot != nil {
		st.sideStats(hot, st.parts[:st.cut])
		sc.Merge(hot)
	}
}

// sideStats feeds sc one side's statistics. The columns a column part
// holds are read off its dictionaries with one counting pass over the code
// vectors (colstore.ValueRuns: no row materialized, distinct counts exact
// at any cardinality); every other column comes from one scan of the side,
// which its row part answers.
func (st *storage) sideStats(sc *catalog.StatsCollector, side []part) {
	fed := make([]bool, st.sch.NumColumns())
	for _, p := range side {
		for c := range fed {
			if l, ok := p.local(c); ok && p.cs != nil && !fed[c] {
				p.cs.ValueRuns(l, func(v value.Value, rows int) { sc.AddRun(c, v, rows) })
				fed[c] = true
			}
		}
	}
	var scan []int
	for c, ok := range fed {
		if !ok {
			scan = append(scan, c)
		}
	}
	if len(scan) > 0 {
		eachRow(st.scanSide(side, nil, scan, nil), scan, len(fed), sc.Add)
	}
}
