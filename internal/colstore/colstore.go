// Package colstore implements the column-oriented store of the hybrid
// engine. Each column is dictionary-encoded in two fragments, following the
// read-optimized/write-optimized split of in-memory column stores such as
// the SAP HANA column engine the paper targets:
//
//   - the main fragment has a sorted dictionary and a fixed-width
//     bit-packed code vector. Sorted dictionaries give order-preserving
//     code comparisons, so range predicates become integer range checks —
//     the "implicit index" the paper's cost model assumes for the column
//     store's f_selectivity;
//   - the delta fragment has an unsorted, append-friendly dictionary and a
//     plain code slice, absorbing inserts in O(1) per value.
//
// Both dictionaries keep their values typed and exactly sized
// (compress.Dict, compress.UDict): nothing in a column is per row except
// its codes and NULL flags. When the delta grows past a threshold it is
// merged into the main fragment — the two dictionaries merge into a new
// sorted one with a translation table, and the code vectors are re-encoded
// through it, O(rows + distinct·log distinct_delta) — an amortized cost
// that grows with table size, reproducing the insert-cost asymmetry between
// the stores that the paper's BaseInsertCosts·f_#rows captures. A write
// goes by primary key: DeletePK tombstones the key's row and Upsert
// appends the new image to the delta, reconstructing nothing in place.
package colstore

import (
	"sync"
	"time"

	"hybridstore/internal/bitset"
	"hybridstore/internal/compress"
	"hybridstore/internal/pkindex"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// mergeThreshold is the delta-to-total row fraction that triggers an
// automatic merge on insert.
const mergeThreshold = 0.10

// minMergeRows avoids merging tiny tables on every insert.
const minMergeRows = 4096

// column holds one attribute's two fragments.
type column struct {
	typ value.Type

	mainDict  *compress.Dict
	mainCodes compress.CodeVector
	mainNulls []bool     // nil when no NULLs present in main
	mainZones []codeZone // per-blockRows code min/max summaries

	deltaDict  *compress.UDict
	deltaCodes []uint32
	deltaNulls []bool // nil when no NULLs present in delta
}

// value at global row id rid (main rows first, then delta rows).
func (c *column) valueAt(rid, mainRows int) value.Value {
	if rid < mainRows {
		if c.mainNulls != nil && c.mainNulls[rid] {
			return value.Null(c.typ)
		}
		return c.mainDict.Value(c.mainCodes.Get(rid))
	}
	d := rid - mainRows
	if c.deltaNulls != nil && c.deltaNulls[d] {
		return value.Null(c.typ)
	}
	return c.deltaDict.Value(c.deltaCodes[d])
}

func (c *column) appendDelta(v value.Value) {
	if v.IsNull() {
		if c.deltaNulls == nil {
			c.deltaNulls = make([]bool, len(c.deltaCodes))
		}
		c.deltaCodes = append(c.deltaCodes, 0)
		c.deltaNulls = append(c.deltaNulls, true)
		return
	}
	code := c.deltaDict.GetOrAdd(v)
	c.deltaCodes = append(c.deltaCodes, code)
	if c.deltaNulls != nil {
		c.deltaNulls = append(c.deltaNulls, false)
	}
}

// Table is a column-store table. Like the row store it is not safe for
// concurrent mutation.
type Table struct {
	sch  *schema.Table
	cols []column

	mainRows  int
	deltaRows int
	liveSet   bitset.Bits // one bit per row slot; 0 = tombstoned
	live      int

	pkIndex *pkindex.Index // hash(PK) -> row id

	// AutoMerge merges once the delta passes mergeThreshold of the rows;
	// set it to false to manage merges manually (benchmarks and tests).
	AutoMerge bool

	// Pooled scan scratches: the engine allows concurrent readers (and
	// re-entrant scans from batch callbacks), so every scan-shaped
	// operation checks a private scratch out of this free list instead
	// of sharing per-table buffers.
	scratchMu   sync.Mutex
	scratchPool []*scanScratch
}

// New creates an empty column-store table for the schema.
func New(sch *schema.Table) *Table {
	t := &Table{
		sch:       sch,
		cols:      make([]column, sch.NumColumns()),
		AutoMerge: true,
	}
	for i := range t.cols {
		t.cols[i] = column{
			typ:       sch.Columns[i].Type,
			mainDict:  compress.NewDict(sch.Columns[i].Type, nil),
			mainCodes: compress.Pack(nil, 0),
			deltaDict: compress.NewUDict(sch.Columns[i].Type),
		}
	}
	t.pkIndex = &pkindex.Index{}
	return t
}

// Schema returns the table schema.
func (t *Table) Schema() *schema.Table { return t.sch }

// Rows returns the number of live rows.
func (t *Table) Rows() int { return t.live }

// totalRows returns live+tombstoned row slots.
func (t *Table) totalRows() int { return t.mainRows + t.deltaRows }

// DeltaRows returns the current size of the write-optimized delta fragment.
func (t *Table) DeltaRows() int { return t.deltaRows }

// Get reconstructs the full tuple at global row id rid. This is the tuple
// reconstruction the paper charges column-store point queries for
// (f_#selectedColumns).
func (t *Table) Get(rid int) []value.Value {
	row := make([]value.Value, len(t.cols))
	for i := range t.cols {
		row[i] = t.cols[i].valueAt(rid, t.mainRows)
	}
	return row
}

// materialize fills dst's entries for the requested columns only.
func (t *Table) materialize(rid int, cols []int, dst []value.Value) {
	for _, c := range cols {
		dst[c] = t.cols[c].valueAt(rid, t.mainRows)
	}
}

func (t *Table) pkEqualAt(rid int, key []value.Value) bool {
	for i, k := range t.sch.PrimaryKey {
		if !value.Equal(t.cols[k].valueAt(rid, t.mainRows), key[i]) {
			return false
		}
	}
	return true
}

// LookupPK returns the global row id holding the given primary key.
func (t *Table) LookupPK(key []value.Value) (int, bool) {
	if len(key) != len(t.sch.PrimaryKey) {
		return 0, false
	}
	rid, ok := t.pkIndex.Lookup(value.HashRow(key), func(rid int32) bool { return t.pkEqualAt(int(rid), key) })
	return int(rid), ok
}

// HasPK reports whether a live row holds the primary key.
func (t *Table) HasPK(key []value.Value) bool {
	_, ok := t.LookupPK(key)
	return ok
}

// Insert appends rows to the delta fragment, checking schema validity and
// primary-key uniqueness, and triggers a merge when the delta outgrows the
// threshold. The whole batch is validated (including duplicates within
// the batch) before anything is appended, so a failing INSERT is atomic.
func (t *Table) Insert(rows [][]value.Value) error {
	if err := t.sch.ValidateInsert(rows, t.HasPK); err != nil {
		return err
	}
	for _, row := range rows {
		t.appendRow(row)
	}
	t.autoMerge()
	return nil
}

// autoMerge merges once the delta has outgrown the threshold.
func (t *Table) autoMerge() {
	if t.AutoMerge && t.totalRows() > minMergeRows &&
		float64(t.deltaRows) > mergeThreshold*float64(t.totalRows()) {
		t.Merge()
	}
}

// DeletePK tombstones the row with the given primary key, if the table
// holds one. The row is found through the PK index, not by a scan of the
// key column's code vector.
func (t *Table) DeletePK(key []value.Value) bool {
	rid, ok := t.LookupPK(key)
	if ok {
		t.tombstone(rid, value.HashRow(key))
	}
	return ok
}

// tombstone clears row rid's live bit and takes it out of the PK index,
// which holds it under hash h. Space is reclaimed at the next merge.
func (t *Table) tombstone(rid int, h uint64) {
	t.pkIndex.Remove(h, int32(rid))
	t.liveSet.Clear(rid)
	t.live--
}

// Upsert stores each row under its primary key: the row the table holds
// for the key, if any, is tombstoned and the new image appended to the
// delta — a committed transaction's final row images, applied at the cost
// of the rows written. The batch is validated before anything changes.
func (t *Table) Upsert(rows [][]value.Value) error {
	if err := t.sch.ValidateRows(rows); err != nil {
		return err
	}
	for _, row := range rows {
		t.DeletePK(t.sch.PKValues(row))
		t.appendRow(row)
	}
	t.autoMerge()
	return nil
}

// appendRow appends a validated, uniqueness-checked row to the delta.
func (t *Table) appendRow(row []value.Value) {
	rid := int32(t.totalRows())
	for i := range t.cols {
		t.cols[i].appendDelta(row[i])
	}
	t.deltaRows++
	t.liveSet = bitset.Grow(t.liveSet, int(rid)+1)
	t.liveSet.Set(int(rid))
	t.live++
	t.pkIndex.Add(value.HashRow(t.sch.PKValues(row)), rid)
}

// Merge folds the delta fragment into the main fragment and compacts away
// tombstones: per column, the main and delta dictionaries merge into a new
// sorted dictionary of the values live rows hold (compress.Merge) and the
// live rows' codes are translated into it and re-encoded — no value is
// boxed, probed or searched per row. It is the expensive, amortized part
// of column-store inserts.
func (t *Table) Merge() {
	if t.deltaRows == 0 && t.live == t.totalRows() {
		return // nothing to merge or compact
	}
	start := time.Now()
	for i := range t.cols {
		t.mergeColumn(&t.cols[i]) // reads the row layout, which changes below
	}
	t.mainRows = t.live
	t.deltaRows = 0
	t.liveSet = bitset.New(t.mainRows)
	t.liveSet.FillOnes(t.mainRows)
	t.rebuildPKIndex()
	mMergeRows.Add(int64(t.mainRows))
	mMergeSeconds.Observe(time.Since(start).Nanoseconds())
}

// rebuildPKIndex indexes a freshly merged table: key values are hashed once
// per dictionary entry, the rows' value.HashRow folded from them by code.
func (t *Table) rebuildPKIndex() {
	hashes := make([]uint64, t.mainRows)
	for rid := range hashes {
		hashes[rid] = value.HashSeed
	}
	codes := make([]uint32, t.mainRows)
	for _, k := range t.sch.PrimaryKey {
		c := &t.cols[k]
		null := c.mainDict.Len()
		byCode := make([]uint64, null+1)
		for code := 0; code < null; code++ {
			byCode[code] = c.mainDict.Value(uint32(code)).Hash()
		}
		byCode[null] = value.Null(c.typ).Hash()
		c.mainCodes.UnpackBlock(0, codes)
		for rid, code := range codes {
			if c.mainNulls != nil && c.mainNulls[rid] {
				code = uint32(null)
			}
			hashes[rid] = value.HashStep(hashes[rid], byCode[code])
		}
	}
	t.pkIndex = pkindex.Build(hashes)
}

// mergeColumn rebuilds column c's main fragment over the live rows and
// empties its delta.
func (t *Table) mergeColumn(c *column) {
	codes := make([]uint32, 0, t.live)
	refs := t.liveCodes(c, func(batch []uint32) { codes = append(codes, batch...) })
	null := len(refs) - 1
	dict, to := compress.Merge(c.mainDict, c.deltaDict, refs[:null])
	var nulls []bool
	if refs[null] > 0 {
		nulls = make([]bool, len(codes))
		for i, code := range codes {
			nulls[i] = int(code) == null
		}
	}
	to = append(to, 0) // a NULL's code
	for i, code := range codes {
		codes[i] = to[code]
	}
	c.mainDict = dict
	// Encode picks the smallest coding per column — bit-packed, run-length
	// or frame-of-reference — at merge time, when the value distribution
	// is known.
	c.mainCodes = compress.Encode(codes, dict.Len())
	c.mainNulls = nulls
	c.mainZones = buildZones(codes, nulls)
	c.deltaDict = compress.NewUDict(c.typ)
	c.deltaCodes = nil
	c.deltaNulls = nil
}

// liveCodes counts the live rows under each of column c's codes (see
// CodeSpace). fn, if not nil, sees the rows' codes in row order, a batch at
// a time, and must not retain the batch.
func (t *Table) liveCodes(c *column, fn func(codes []uint32)) (refs []int) {
	refs = make([]int, c.mainDict.Len()+c.deltaDict.Len()+1)
	block, dst := make([]uint32, blockRows), make([]uint32, blockRows)
	bw, _ := t.walkBatches(nil, nil)
	for b := range t.NumBlocks() {
		rids, b0, nm, mainN := bw.block(0, b)
		codes := dst[:len(rids)]
		t.gatherCodes(c, rids, b0, nm, mainN, block, codes)
		for _, code := range codes {
			refs[code]++
		}
		if fn != nil && len(codes) > 0 {
			fn(codes)
		}
	}
	return refs
}

// payloadBytes is the compressed payload of the column: dictionary values
// plus code vectors, the delta's codes at 4 bytes each.
func (c *column) payloadBytes() int {
	return c.mainDict.Bytes() + c.mainCodes.SizeBytes() + c.deltaDict.Bytes() + 4*len(c.deltaCodes)
}

// CompressionRate returns the achieved dictionary-compression rate of
// column col (1 - compressed/uncompressed; see compress.Rate).
func (t *Table) CompressionRate(col int) float64 {
	if t.live == 0 {
		return 0
	}
	uncompressed := 0
	t.ValueRuns(col, func(v value.Value, rows int) { uncompressed += rows * v.Bytes() })
	return compress.Rate(uncompressed, t.cols[col].payloadBytes())
}

// MemoryBytes estimates the compressed payload size of the table.
func (t *Table) MemoryBytes() int {
	total := 0
	for i := range t.cols {
		total += t.cols[i].payloadBytes()
	}
	return total
}

// ResidentBytes is what the fragments occupy in memory, by capacity:
// dictionaries, code vectors, NULL and zone arrays, the delta fragment and
// the live bitmap — the physical size of what MemoryBytes reports. The PK
// index is IndexBytes.
func (t *Table) ResidentBytes() int {
	total := 8 * cap(t.liveSet)
	for i := range t.cols {
		c := &t.cols[i]
		total += c.mainDict.ResidentBytes() + c.mainCodes.SizeBytes() + cap(c.mainNulls) + 12*cap(c.mainZones) +
			c.deltaDict.ResidentBytes() + 4*cap(c.deltaCodes) + cap(c.deltaNulls)
	}
	return total
}

// IndexBytes is the size of the PK index: 8 bytes a slot.
func (t *Table) IndexBytes() int { return t.pkIndex.Bytes() }

// ValueRuns calls fn once for every distinct value the live rows of column
// col hold, NULL included, with the number of rows holding it: the column's
// dictionaries read against one counting pass over its code vectors, no row
// materialized. The main dictionary's values come first, ascending, then
// those only the delta holds, then NULL.
func (t *Table) ValueRuns(col int, fn func(v value.Value, rows int)) {
	c := &t.cols[col]
	refs := t.liveCodes(c, nil)
	mainLen := c.mainDict.Len()
	for d := 0; d < c.deltaDict.Len(); d++ {
		if n := refs[mainLen+d]; n > 0 {
			// A value both dictionaries hold is one run, the main code's.
			if code, ok := c.mainDict.Code(c.deltaDict.Value(uint32(d))); ok {
				refs[code] += n
				refs[mainLen+d] = 0
			}
		}
	}
	for code, n := range refs {
		if n > 0 {
			fn(t.CodeValue(col, uint32(code)), n)
		}
	}
}
