// Package rowstore implements the row-oriented store of the hybrid engine.
// Tuples are stored contiguously in a flat arena of fixed-width 8-byte
// slots (row i occupies the width-sized window starting at i*width), so
// retrieving or updating a complete tuple touches one contiguous memory
// region — the access pattern that makes row stores efficient for OLTP
// point queries, inserts and updates (paper §2). Full-column scans, by
// contrast, stride across the arena and touch every attribute of every
// tuple, which is what makes the row store comparatively slow for
// analytical aggregation.
//
// The arena holds no pointers: a row's window starts with its NULL bitmap
// (next to the leading attributes, which most accesses read with it);
// INTEGER, BIGINT and DATE slots carry the int64, DOUBLE slots the
// IEEE-754 bits, VARCHAR slots an index into the table's string heap. A stored row costs 8 bytes per attribute and the garbage
// collector never looks at it; value.Value is boxed only at the edge, into
// a scratch row per scan.
package rowstore

import (
	"math"

	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/pkindex"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// Table is a row-store table. It is not safe for concurrent mutation; the
// engine serializes DML per table.
type Table struct {
	sch      *schema.Table
	types    []value.Type
	all      []int // every column: the nil projection
	varchars []int // the VARCHAR columns
	stride   int   // attributes per row
	nw       int   // NULL bitmap words per row
	width    int   // slots per row: nw bitmap words, then stride values

	slots []uint64 // row i at slots[i*width : (i+1)*width]; base(i) is its first value
	blank []uint64 // a row of NULLs, the state a slot window is appended in
	valid []bool   // deletion markers
	live  int

	// The string heap. Entries released by an overwritten or deleted
	// VARCHAR are handed out again before the heap grows.
	strs     []string
	strFree  []uint32
	strBytes int

	pkIndex   *pkindex.Index // hash(PK) -> row id
	pkOrdered *orderedPK     // ordered index for single-column PKs
	secondary map[int]*pkindex.Index
}

// New creates an empty row-store table for the schema. A hash index on the
// primary key is always maintained (it backs uniqueness checks and point
// queries), and an ordered one besides when the key is one column.
func New(sch *schema.Table) *Table {
	n := sch.NumColumns()
	t := &Table{
		sch:       sch,
		types:     sch.ColTypes(),
		all:       make([]int, n),
		stride:    n,
		nw:        (n + 63) / 64,
		width:     n + (n+63)/64,
		pkIndex:   &pkindex.Index{},
		secondary: make(map[int]*pkindex.Index),
	}
	t.blank = make([]uint64, t.width)
	for c := range t.all {
		t.all[c] = c
		t.blank[c>>6] |= 1 << (uint(c) & 63)
		if t.types[c] == value.Varchar {
			t.varchars = append(t.varchars, c)
		}
	}
	if len(sch.PrimaryKey) == 1 {
		t.pkOrdered = &orderedPK{}
	}
	return t
}

// Schema returns the table schema.
func (t *Table) Schema() *schema.Table { return t.sch }

// Rows returns the number of live rows.
func (t *Table) Rows() int { return t.live }

// base returns the arena index of row rid's first value slot.
func (t *Table) base(rid int) int { return rid*t.width + t.nw }

// isNull reports whether attribute col of the row at base is NULL.
func (t *Table) isNull(base, col int) bool {
	return t.slots[base-t.nw+col>>6]>>(uint(col)&63)&1 != 0
}

// box boxes the slot of an attribute of column col.
func (t *Table) box(col int, null bool, slot uint64) value.Value {
	typ := t.types[col]
	switch {
	case null:
		return value.Null(typ)
	case typ == value.Varchar:
		return value.NewVarchar(t.strs[slot])
	}
	return value.FromBits(typ, slot)
}

// cell boxes attribute col of the row at base.
func (t *Table) cell(base, col int) value.Value {
	return t.box(col, t.isNull(base, col), t.slots[base+col])
}

// Value returns attribute col of the row at physical id rid.
func (t *Table) Value(rid, col int) value.Value { return t.cell(t.base(rid), col) }

// Read boxes the given attributes of row rid into dst, which is indexed by
// column; the other positions are left alone.
func (t *Table) Read(rid int, cols []int, dst []value.Value) {
	win := t.slots[rid*t.width : (rid+1)*t.width]
	vals := win[t.nw:]
	for _, c := range cols {
		dst[c] = t.box(c, win[c>>6]>>(uint(c)&63)&1 != 0, vals[c])
	}
}

// set stores v as attribute col of the row at base. The VARCHAR it
// replaces goes back to the string heap.
func (t *Table) set(base, col int, v value.Value) {
	w, bit := base-t.nw+col>>6, uint64(1)<<(uint(col)&63)
	varchar := t.types[col] == value.Varchar
	if varchar && t.slots[w]&bit == 0 {
		i := t.slots[base+col]
		t.strBytes -= len(t.strs[i])
		t.strs[i] = ""
		t.strFree = append(t.strFree, uint32(i))
	}
	if v.IsNull() {
		t.slots[w] |= bit
		t.slots[base+col] = 0
		return
	}
	t.slots[w] &^= bit
	if !varchar {
		t.slots[base+col] = v.Bits()
		return
	}
	s := v.Varchar()
	t.strBytes += len(s)
	if n := len(t.strFree); n > 0 {
		i := t.strFree[n-1]
		t.strFree = t.strFree[:n-1]
		t.strs[i] = s
		t.slots[base+col] = uint64(i)
		return
	}
	t.strs = append(t.strs, s)
	t.slots[base+col] = uint64(len(t.strs) - 1)
}

// pkHash computes the hash of the stored PK values of row rid.
func (t *Table) pkHash(rid int32) uint64 {
	var buf [4]value.Value
	key := buf[:0]
	for _, k := range t.sch.PrimaryKey {
		key = append(key, t.Value(int(rid), k))
	}
	return value.HashRow(key)
}

// pkEqual reports whether the row at rid has the given PK values,
// comparing the slots without boxing them.
func (t *Table) pkEqual(rid int, key []value.Value) bool {
	base := t.base(rid)
	for i, k := range t.sch.PrimaryKey {
		v := key[i]
		if v.Type() != t.types[k] || v.IsNull() != t.isNull(base, k) {
			return false
		}
		switch s := t.slots[base+k]; {
		case v.IsNull():
		case t.types[k] == value.Varchar:
			if t.strs[s] != v.Varchar() {
				return false
			}
		case s != v.Bits():
			return false
		}
	}
	return true
}

// LookupPK returns the physical row id for a primary-key value, if present.
func (t *Table) LookupPK(key []value.Value) (int, bool) {
	if len(key) != len(t.sch.PrimaryKey) {
		return 0, false
	}
	rid, ok := t.pkIndex.Lookup(value.HashRow(key), func(rid int32) bool { return t.pkEqual(int(rid), key) })
	return int(rid), ok
}

// HasPK reports whether a live row holds the primary key.
func (t *Table) HasPK(key []value.Value) bool {
	_, ok := t.LookupPK(key)
	return ok
}

// ResolvePK sets slots[k] to the slot of the live row with key k (key(i, k)
// is its key column i) or -1, counting the keys the positional guess
// resolved and those missing. The guess is slot start, then the slot after
// the previous key's: a table filled in the keys' order resolves them by
// one compare each. words, if set, holds each key's payload (Value.Bits)
// for a one-column NOT NULL, non-VARCHAR key, compared without boxing. A
// key the guess misses is looked up in the PK index.
func (t *Table) ResolvePK(words []uint64, key func(i, k int) value.Value, start int, slots []int32) (guessed, missed int) {
	buf := make([]value.Value, len(t.sch.PrimaryKey))
	for k := range slots {
		ok := start >= 0 && start < len(t.valid) && t.valid[start]
		if words != nil {
			ok = ok && t.slots[t.base(start)+t.sch.PrimaryKey[0]] == words[k]
		}
		if !ok || words == nil { // box the key, for the compare or the index
			for i := range buf {
				buf[i] = key(i, k)
			}
			ok = ok && t.pkEqual(start, buf)
		}
		if ok {
			guessed++
		} else if rid, found := t.LookupPK(buf); found {
			start = rid
		} else {
			slots[k] = -1
			missed++
			continue
		}
		slots[k] = int32(start)
		start++
	}
	return guessed, missed
}

// Floats gathers attribute col of the rows at slots (-1: none) into vals as
// Value.Float widens it, setting null[k] for a NULL.
func (t *Table) Floats(col int, slots []int32, vals []float64, null []bool) {
	for k, s := range slots {
		switch base := t.base(int(s)); {
		case s < 0:
		case t.isNull(base, col):
			null[k] = true
		case t.types[col] == value.Double:
			vals[k] = math.Float64frombits(t.slots[base+col])
		case t.types[col] == value.Varchar:
			vals[k] = 0
		default:
			vals[k] = float64(int64(t.slots[base+col]))
		}
	}
}

// Insert appends rows to the table. Each row is validated against the
// schema and, if the table has a primary key, checked for uniqueness — the
// growing-table verification cost the paper models with f_#rows for insert
// queries. The whole batch is validated (including duplicates within the
// batch) before anything is appended, so a failing INSERT is atomic: a
// durable engine that logs only acknowledged statements can replay to
// exactly the same state.
func (t *Table) Insert(rows [][]value.Value) error {
	if err := t.sch.ValidateInsert(rows, t.HasPK); err != nil {
		return err
	}
	for _, row := range rows {
		t.appendRow(row)
	}
	return nil
}

// appendRow stores a validated, uniqueness-checked row in a fresh slot
// window and enters it into every index.
func (t *Table) appendRow(row []value.Value) {
	rid := int32(len(t.valid))
	t.slots = append(t.slots, t.blank...)
	base := t.base(int(rid))
	for c, v := range row {
		t.set(base, c, v)
	}
	t.valid = append(t.valid, true)
	t.live++
	t.indexPK(rid)
	for col, idx := range t.secondary {
		idx.Add(t.cell(base, col).Hash(), rid)
	}
}

// Upsert stores each row under its primary key: a key the table holds
// keeps its slot window and is overwritten in place, any other row is
// appended. It is how a committed transaction's final row images reach the
// table, at the cost of the rows written. The batch is validated before
// anything changes.
func (t *Table) Upsert(rows [][]value.Value) error {
	if err := t.sch.ValidateRows(rows); err != nil {
		return err
	}
	key := make([]value.Value, len(t.sch.PrimaryKey))
	for _, row := range rows {
		for i, k := range t.sch.PrimaryKey {
			key[i] = row[k]
		}
		rid, ok := t.LookupPK(key)
		if !ok {
			t.appendRow(row)
			continue
		}
		base := t.base(rid)
		for c, v := range row {
			if idx, ok := t.secondary[c]; ok {
				if old := t.cell(base, c); !value.Equal(old, v) {
					idx.Remove(old.Hash(), int32(rid))
					idx.Add(v.Hash(), int32(rid))
				}
			}
			t.set(base, c, v)
		}
	}
	return nil
}

// CreateIndex builds a secondary hash index on column col, enabling
// index-assisted equality selections (the paper's f_selectivity for the
// row store is linear only "if an index is available").
func (t *Table) CreateIndex(col int) {
	if _, ok := t.secondary[col]; ok {
		return
	}
	idx := &pkindex.Index{}
	for rid, ok := range t.valid {
		if ok {
			idx.Add(t.Value(rid, col).Hash(), int32(rid))
		}
	}
	t.secondary[col] = idx
}

// candidateRows returns a restricted candidate row set for the predicate
// when an index applies, appended to buf: the caller owns it. ok is false
// when no index serves the predicate and the caller must scan everything.
func (t *Table) candidateRows(pred expr.Predicate, buf []int32) ([]int32, bool) {
	if pred == nil {
		return nil, false
	}
	// PK point lookup through the hash index.
	if key, ok := expr.PKEquality(pred, t.sch.PrimaryKey); ok {
		return t.pkIndex.Append(buf, value.HashRow(key)), true
	}
	// Secondary index equality.
	for _, c := range expr.Conjuncts(pred) {
		cmp, ok := c.(*expr.Comparison)
		if !ok || cmp.Op != expr.Eq {
			continue
		}
		if idx, ok := t.secondary[cmp.Col]; ok {
			return idx.Append(buf, cmp.Val.Hash()), true
		}
	}
	// PK range through the ordered index (the row-store B-tree analogue).
	if rg, ok := t.pkRange(pred); ok {
		return append(buf, t.pkOrdered.rangeRids(t, rg.Lo, rg.Hi)...), true
	}
	return nil, false
}

// Scan calls fn for each live row matching pred, in matching's order,
// until fn returns false. The row handed to fn is one scratch row per
// scan; fn must not retain or mutate it.
func (t *Table) Scan(pred expr.Predicate, fn func(rid int, row []value.Value) bool) {
	row := make([]value.Value, t.stride)
	for _, rid := range t.matching(pred) {
		if t.Read(int(rid), t.all, row); !fn(int(rid), row) {
			return
		}
	}
}

// matching returns the ids of the live rows matching pred: in physical
// order or, when an index serves pred (PK and secondary-index equality, PK
// ranges), in the index's.
func (t *Table) matching(pred expr.Predicate) (rids []int32) {
	cand, indexed := t.candidateRows(pred, nil)
	n := len(t.valid)
	if indexed {
		n = len(cand)
	}
	predCols, row := expr.ColumnSet(pred), make([]value.Value, t.stride)
	for i := 0; i < n; i++ {
		rid := i
		if indexed {
			rid = int(cand[i])
		}
		if t.valid[rid] && (pred == nil || t.matches(rid, pred, predCols, row)) {
			rids = append(rids, int32(rid))
		}
	}
	return rids
}

// matches evaluates a non-nil pred on row rid, boxing the predicate's
// columns into the scratch row.
func (t *Table) matches(rid int, pred expr.Predicate, predCols []int, row []value.Value) bool {
	t.Read(rid, predCols, row)
	return pred.Matches(row)
}

// blockRows is the arena slots (or index candidates) one scan block covers:
// few enough that a block's decoded columns stay in the first-level cache
// while its consumer reads them.
const blockRows = 256

// Blocks returns the live rows matching pred as numbered blocks of columns
// cols (nil = every column; see exec.Blocks): ranges of blockRows arena
// slots in physical order or, when an index serves pred, runs of blockRows
// of its candidate ids in the index's order. Only the columns pred and cols
// name are boxed, into buffers no larger than a block's candidates. The
// table must not change while the blocks run.
func (t *Table) Blocks(pred expr.Predicate, cols []int, ex *exec.Ctx) exec.Blocks {
	if len(cols) == 0 {
		cols = t.all
	}
	cand, indexed := t.candidateRows(pred, nil)
	n := len(t.valid)
	if indexed {
		n = len(cand)
	}
	predCols := expr.ColumnSet(pred)
	workers := make([]blockWorker, ex.Workers(math.MaxInt))
	return exec.Blocks{N: (n + blockRows - 1) / blockRows, Ctx: ex, Block: func(w, i int) [][]value.Value {
		lo, hi := i*blockRows, min(n, (i+1)*blockRows)
		bw := &workers[w]
		if bw.row == nil && len(predCols) > 0 {
			bw.row = make([]value.Value, predCols[len(predCols)-1]+1) // ColumnSet is sorted
		}
		ids := bw.ids[:0]
		if indexed {
			ids = cand[lo:lo] // the block's matching candidates, kept in place
		}
		for j := lo; j < hi; j++ {
			rid := j
			if indexed {
				rid = int(cand[j])
			}
			if t.valid[rid] && (pred == nil || t.matches(rid, pred, predCols, bw.row)) {
				ids = append(ids, int32(rid))
			}
		}
		if bw.ids = ids; len(ids) == 0 {
			return nil
		}
		n, m := len(ids), len(cols) // column j at flat[j*n:(j+1)*n]
		if len(bw.flat) < n*m {
			bw.flat, bw.cols = make([]value.Value, n*m), make([][]value.Value, m)
		}
		for k, rid := range ids {
			win := t.slots[int(rid)*t.width : (int(rid)+1)*t.width]
			vals := win[t.nw:]
			for j, c := range cols {
				bw.flat[j*n+k] = t.box(c, win[c>>6]>>(uint(c)&63)&1 != 0, vals[c])
			}
		}
		for j := range bw.cols {
			bw.cols[j] = bw.flat[j*n : (j+1)*n : (j+1)*n]
		}
		return bw.cols
	}}
}

// blockWorker is one worker's buffers of a block scan: the ids of the
// block's matching rows, a scratch row for the predicate and the decoded
// columns, boxed row by row.
type blockWorker struct {
	ids  []int32
	row  []value.Value
	flat []value.Value
	cols [][]value.Value
}

// Update assigns set values to all live rows matching pred and returns the
// number of rows changed. Updates are in place; indexes on changed columns
// (including the PK index) are maintained.
func (t *Table) Update(pred expr.Predicate, set map[int]value.Value) (int, error) {
	if err := t.sch.ValidateSet(set); err != nil {
		return 0, err
	}
	touched := t.matching(pred)
	// An update that changes the primary key must not create duplicates:
	// every new key is validated — against the pre-statement table state and
	// against the other new keys of the same statement — before anything
	// changes, so a violating UPDATE fails atomically instead of corrupting
	// the PK index.
	pkChanged := t.sch.AssignsKey(set)
	if pkChanged {
		keys := make([][]value.Value, len(touched))
		row := make([]value.Value, t.stride)
		for i, rid := range touched {
			t.Read(int(rid), t.sch.PrimaryKey, row)
			keys[i] = t.sch.PKValues(row)
		}
		if err := t.sch.ValidateKeyUpdate(set, keys, t.HasPK); err != nil {
			return 0, err
		}
	}
	for _, rid := range touched {
		base := t.base(int(rid))
		if pkChanged {
			t.unindexPK(rid)
		}
		for col, v := range set {
			if idx, ok := t.secondary[col]; ok {
				idx.Remove(t.cell(base, col).Hash(), rid)
				idx.Add(v.Hash(), rid)
			}
			t.set(base, col, v)
		}
		if pkChanged {
			t.indexPK(rid)
		}
	}
	return len(touched), nil
}

// indexPK enters row rid into the primary-key indexes under the key it
// stores; unindexPK takes it out again.
func (t *Table) indexPK(rid int32) {
	t.pkIndex.Add(t.pkHash(rid), rid)
	if t.pkOrdered != nil {
		t.pkOrdered.insert(t, rid)
	}
}

func (t *Table) unindexPK(rid int32) {
	t.pkIndex.Remove(t.pkHash(rid), rid)
	if t.pkOrdered != nil {
		t.pkOrdered.remove(t, rid)
	}
}

// DeletePK removes the row with the given primary key, if the table holds
// one, at the cost of that row.
func (t *Table) DeletePK(key []value.Value) bool {
	rid, ok := t.LookupPK(key)
	if ok {
		t.drop(int32(rid))
		t.reclaim()
	}
	return ok
}

// drop tombstones row rid: it leaves every index and its strings go back
// to the heap; the slot window stays until the arena is compacted.
func (t *Table) drop(rid int32) {
	base := t.base(int(rid))
	t.unindexPK(rid)
	for col, idx := range t.secondary {
		idx.Remove(t.cell(base, col).Hash(), rid)
	}
	for _, c := range t.varchars {
		t.set(base, c, value.Null(value.Varchar))
	}
	t.valid[rid] = false
	t.live--
}

// reclaimMinDead is the number of tombstoned slots below which the arena
// is never rewritten on its own: so few windows are not worth renumbering
// every index for.
const reclaimMinDead = 1024

// reclaim compacts the arena once more than a fifth of its windows are
// tombstones, so it never holds more than ~1.25 windows per live row and
// the rewrite costs a constant per deleted row.
func (t *Table) reclaim() {
	if dead := len(t.valid) - t.live; dead > reclaimMinDead && 4*dead > t.live {
		t.Compact()
	}
}

// Compact rewrites the arena and the string heap without the tombstoned
// windows and released strings and renumbers the rows in every index.
// Returns the number of slot windows reclaimed.
func (t *Table) Compact() int {
	reclaimed := len(t.valid) - t.live
	if reclaimed == 0 {
		return 0
	}
	remap := make([]int32, len(t.valid))
	slots := make([]uint64, 0, t.live*t.width)
	strs := make([]string, 0, len(t.strs)-len(t.strFree))
	for rid, ok := range t.valid {
		if !ok {
			continue
		}
		remap[rid] = int32(len(slots) / t.width)
		base, nbase := t.base(rid), len(slots)+t.nw
		slots = append(slots, t.slots[rid*t.width:(rid+1)*t.width]...)
		for _, c := range t.varchars {
			if !t.isNull(base, c) {
				slots[nbase+c] = uint64(len(strs))
				strs = append(strs, t.strs[t.slots[base+c]])
			}
		}
	}
	t.slots, t.strs, t.strFree = slots, strs, nil
	t.valid = make([]bool, t.live)
	for i := range t.valid {
		t.valid[i] = true
	}
	// Tombstoned rows left the indexes when they were dropped, so every
	// indexed id has a new number and no key needs rehashing or sorting.
	for _, idx := range t.secondary {
		idx.Renumber(remap)
	}
	t.pkIndex.Renumber(remap)
	if t.pkOrdered != nil {
		for i, rid := range t.pkOrdered.rids {
			t.pkOrdered.rids[i] = remap[rid]
		}
	}
	return reclaimed
}

// MemoryBytes estimates the logical payload size (values only,
// uncompressed): what the tuples would occupy at their declared widths.
func (t *Table) MemoryBytes() int {
	perRow := 0
	for _, typ := range t.types {
		if typ != value.Varchar {
			perRow += value.Null(typ).Bytes()
		}
	}
	// The heap holds exactly the strings of the live rows.
	return t.live*perRow + t.strBytes
}

// ArenaBytes is the physical size of the tuples: value slots and NULL
// bitmaps of every slot window, live or tombstoned, plus the string heap.
func (t *Table) ArenaBytes() int {
	return 8*len(t.slots) + 16*len(t.strs) + t.strBytes
}

// IndexBytes is the size of the table's indexes: the PK and secondary hash
// tables at 8 bytes a slot and the ordered PK index at 4 bytes a row id.
func (t *Table) IndexBytes() int {
	n := t.pkIndex.Bytes()
	for _, idx := range t.secondary {
		n += idx.Bytes()
	}
	if t.pkOrdered != nil {
		n += 4 * cap(t.pkOrdered.rids)
	}
	return n
}
