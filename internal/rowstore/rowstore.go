// Package rowstore implements the row-oriented store of the hybrid engine.
// Tuples are stored contiguously in a flat value arena (row i occupies the
// stride-sized window starting at i*stride), so retrieving or updating a
// complete tuple touches one contiguous memory region — the access pattern
// that makes row stores efficient for OLTP point queries, inserts and
// updates (paper §2). Full-column scans, by contrast, stride across the
// arena and touch every attribute of every tuple, which is what makes the
// row store comparatively slow for analytical aggregation.
package rowstore

import (
	"fmt"

	"hybridstore/internal/agg"
	"hybridstore/internal/expr"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// Table is a row-store table. It is not safe for concurrent mutation; the
// engine serializes DML per table.
type Table struct {
	sch    *schema.Table
	stride int

	data  []value.Value // flat arena; row i at data[i*stride : (i+1)*stride]
	valid []bool        // deletion markers
	live  int

	pkIndex   map[uint64][]int32 // hash(PK) -> candidate row ids
	pkOrdered *orderedPK         // ordered index for single-column PKs
	secondary map[int]map[uint64][]int32
}

// New creates an empty row-store table for the schema. A hash index on the
// primary key is always maintained (it backs uniqueness checks and point
// queries).
func New(sch *schema.Table) *Table {
	t := &Table{
		sch:       sch,
		stride:    sch.NumColumns(),
		secondary: make(map[int]map[uint64][]int32),
	}
	if len(sch.PrimaryKey) > 0 {
		t.pkIndex = make(map[uint64][]int32)
		if len(sch.PrimaryKey) == 1 {
			t.pkOrdered = &orderedPK{}
		}
	}
	return t
}

// Load builds a table from snapshotted rows, rebuilding the arena and
// all primary-key index structures. Tombstones are not part of a
// snapshot, so the loaded table starts compacted.
func Load(sch *schema.Table, rows [][]value.Value) (*Table, error) {
	t := New(sch)
	if err := t.Insert(rows); err != nil {
		return nil, fmt.Errorf("rowstore: load: %w", err)
	}
	return t, nil
}

// Schema returns the table schema.
func (t *Table) Schema() *schema.Table { return t.sch }

// Rows returns the number of live rows.
func (t *Table) Rows() int { return t.live }

// capacityRows returns the number of row slots including deleted ones.
func (t *Table) capacityRows() int { return len(t.valid) }

// Row returns the live row at physical id rid as a view into the arena.
// Callers must not mutate it.
func (t *Table) Row(rid int) []value.Value {
	return t.data[rid*t.stride : (rid+1)*t.stride]
}

// Valid reports whether the row slot rid holds a live row.
func (t *Table) Valid(rid int) bool { return t.valid[rid] }

// pkHash computes the hash of the PK values of a row.
func (t *Table) pkHash(row []value.Value) uint64 {
	return value.HashRow(t.sch.PKValues(row))
}

// pkEqual reports whether the row at rid has the given PK values.
func (t *Table) pkEqual(rid int, key []value.Value) bool {
	row := t.Row(rid)
	for i, k := range t.sch.PrimaryKey {
		if !value.Equal(row[k], key[i]) {
			return false
		}
	}
	return true
}

// LookupPK returns the physical row id for a primary-key value, if present.
func (t *Table) LookupPK(key []value.Value) (int, bool) {
	if t.pkIndex == nil || len(key) != len(t.sch.PrimaryKey) {
		return 0, false
	}
	h := value.HashRow(key)
	for _, rid := range t.pkIndex[h] {
		if t.valid[rid] && t.pkEqual(int(rid), key) {
			return int(rid), true
		}
	}
	return 0, false
}

// LookupPKNear is LookupPK with a guess: when slot hint holds the key the
// hash probe is skipped. Rows that arrive together land in consecutive
// slots, so a caller resolving keys in arrival order guesses the slot
// after its last hit.
func (t *Table) LookupPKNear(key []value.Value, hint int) (int, bool) {
	if hint >= 0 && hint < len(t.valid) && t.valid[hint] && len(key) == len(t.sch.PrimaryKey) && t.pkEqual(hint, key) {
		return hint, true
	}
	return t.LookupPK(key)
}

// Insert appends rows to the table. Each row is validated against the
// schema and, if the table has a primary key, checked for uniqueness — the
// growing-table verification cost the paper models with f_#rows for insert
// queries. The whole batch is validated (including duplicates within the
// batch) before anything is appended, so a failing INSERT is atomic: a
// durable engine that logs only acknowledged statements can replay to
// exactly the same state.
func (t *Table) Insert(rows [][]value.Value) error {
	var batchKeys map[string]struct{}
	for _, row := range rows {
		if err := t.sch.ValidateRow(row); err != nil {
			return err
		}
		if t.pkIndex != nil {
			key := t.sch.PKValues(row)
			if _, dup := t.LookupPK(key); dup {
				return fmt.Errorf("rowstore: duplicate primary key %v in table %q", key, t.sch.Name)
			}
			if batchKeys == nil {
				batchKeys = make(map[string]struct{}, len(rows))
			}
			ks := value.TupleKey(key)
			if _, dup := batchKeys[ks]; dup {
				return fmt.Errorf("rowstore: duplicate primary key %v within insert batch in table %q", key, t.sch.Name)
			}
			batchKeys[ks] = struct{}{}
		}
	}
	for _, row := range rows {
		rid := int32(t.capacityRows())
		t.data = append(t.data, row...)
		t.valid = append(t.valid, true)
		t.live++
		if t.pkIndex != nil {
			h := t.pkHash(row)
			t.pkIndex[h] = append(t.pkIndex[h], rid)
		}
		if t.pkOrdered != nil {
			t.pkOrdered.insert(t, rid)
		}
		for col, idx := range t.secondary {
			h := row[col].Hash()
			idx[h] = append(idx[h], rid)
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
	idx := make(map[uint64][]int32)
	for rid := 0; rid < t.capacityRows(); rid++ {
		if !t.valid[rid] {
			continue
		}
		h := t.Row(rid)[col].Hash()
		idx[h] = append(idx[h], int32(rid))
	}
	t.secondary[col] = idx
}

// HasIndex reports whether column col has a secondary index (or is the
// sole PK column, which the PK index covers).
func (t *Table) HasIndex(col int) bool {
	if _, ok := t.secondary[col]; ok {
		return true
	}
	return len(t.sch.PrimaryKey) == 1 && t.sch.PrimaryKey[0] == col && t.pkIndex != nil
}

// candidateRows returns a restricted candidate row set for the predicate
// when an index applies. ok is false when no index serves the predicate
// and the caller must scan everything.
func (t *Table) candidateRows(pred expr.Predicate) ([]int32, bool) {
	if pred == nil {
		return nil, false
	}
	// PK point lookup through the hash index.
	if key, ok := expr.PKEquality(pred, t.sch.PrimaryKey); ok && t.pkIndex != nil {
		return t.pkIndex[value.HashRow(key)], true
	}
	// Secondary index equality.
	for _, c := range expr.Conjuncts(pred) {
		cmp, ok := c.(*expr.Comparison)
		if !ok || cmp.Op != expr.Eq {
			continue
		}
		if idx, ok := t.secondary[cmp.Col]; ok {
			return idx[cmp.Val.Hash()], true
		}
	}
	// PK range through the ordered index (the row-store B-tree analogue).
	if rg, ok := t.pkRange(pred); ok {
		return t.pkOrdered.rangeRids(t, rg.Lo, rg.Hi), true
	}
	return nil, false
}

// Scan calls fn for each live row matching pred, in physical order, until
// fn returns false. The row slice is a view into the arena; fn must not
// retain or mutate it. Index-assisted candidate restriction is applied for
// PK and secondary-index equality predicates.
func (t *Table) Scan(pred expr.Predicate, fn func(rid int, row []value.Value) bool) {
	if cand, ok := t.candidateRows(pred); ok {
		for _, rid := range cand {
			if !t.valid[rid] {
				continue
			}
			row := t.Row(int(rid))
			if pred != nil && !pred.Matches(row) {
				continue
			}
			if !fn(int(rid), row) {
				return
			}
		}
		return
	}
	for rid := 0; rid < t.capacityRows(); rid++ {
		if !t.valid[rid] {
			continue
		}
		row := t.Row(rid)
		if pred != nil && !pred.Matches(row) {
			continue
		}
		if !fn(rid, row) {
			return
		}
	}
}

// Aggregate computes the given aggregates over rows matching pred, grouped
// by the groupBy columns. The row store has no columnar fast path: every
// matching tuple is visited in full, which is exactly the access pattern
// the paper's Figure 1 illustrates for aggregation on a row store.
func (t *Table) Aggregate(specs []agg.Spec, groupBy []int, pred expr.Predicate) *agg.Result {
	return t.AggregateStop(specs, groupBy, pred, nil)
}

// aggregateBatchRows is how many rows AggregateStop accumulates between
// stop checks — the row store's "batch boundary" for cancellation.
const aggregateBatchRows = 1024

// AggregateStop is Aggregate with a cooperative cancellation hook: stop
// (when non-nil) is polled every aggregateBatchRows visited rows, and a
// true return abandons the aggregation, yielding a partial result the
// caller must discard.
func (t *Table) AggregateStop(specs []agg.Spec, groupBy []int, pred expr.Predicate, stop func() bool) *agg.Result {
	res := agg.NewResult(specs, groupBy)
	res.SetOutputTypes(t.sch.ColTypes())
	visited := 0
	t.Scan(pred, func(rid int, row []value.Value) bool {
		if stop != nil {
			visited++
			if visited%aggregateBatchRows == 0 && stop() {
				return false
			}
		}
		res.AddRow(row)
		return true
	})
	return res
}

// Update assigns set values to all live rows matching pred and returns the
// number of rows changed. Updates are in place; indexes on changed columns
// (including the PK index) are maintained.
func (t *Table) Update(pred expr.Predicate, set map[int]value.Value) (int, error) {
	for col, v := range set {
		if col < 0 || col >= t.stride {
			return 0, fmt.Errorf("rowstore: update column %d out of range in %q", col, t.sch.Name)
		}
		c := t.sch.Columns[col]
		if v.IsNull() && !c.Nullable {
			return 0, fmt.Errorf("rowstore: column %q is NOT NULL", c.Name)
		}
		if !v.IsNull() && v.Type() != c.Type {
			return 0, fmt.Errorf("rowstore: column %q expects %s, got %s", c.Name, c.Type, v.Type())
		}
	}
	pkChanged := false
	for _, k := range t.sch.PrimaryKey {
		if _, ok := set[k]; ok {
			pkChanged = true
		}
	}
	var touched []int32
	t.Scan(pred, func(rid int, row []value.Value) bool {
		touched = append(touched, int32(rid))
		return true
	})
	// An update that changes the primary key must not create duplicates:
	// validate every new key — against the pre-statement table state and
	// against the other new keys of the same statement — before mutating
	// anything, so a violating UPDATE fails atomically instead of
	// corrupting pkIndex.
	if pkChanged && t.pkIndex != nil {
		newKeys := make(map[string]struct{}, len(touched))
		for _, rid := range touched {
			row := t.Row(int(rid))
			key := make([]value.Value, len(t.sch.PrimaryKey))
			for i, k := range t.sch.PrimaryKey {
				if v, ok := set[k]; ok {
					key[i] = v
				} else {
					key[i] = row[k]
				}
			}
			ks := value.TupleKey(key)
			if _, dup := newKeys[ks]; dup {
				return 0, fmt.Errorf("rowstore: update would assign duplicate primary key %v to multiple rows in %q", key, t.sch.Name)
			}
			newKeys[ks] = struct{}{}
			if orid, ok := t.LookupPK(key); ok && int32(orid) != rid {
				return 0, fmt.Errorf("rowstore: update would duplicate primary key %v in table %q", key, t.sch.Name)
			}
		}
	}
	for _, rid := range touched {
		row := t.Row(int(rid))
		if pkChanged && t.pkIndex != nil {
			oldH := t.pkHash(row)
			removeRid(t.pkIndex, oldH, rid)
			if t.pkOrdered != nil {
				t.pkOrdered.remove(t, rid)
			}
		}
		for col, v := range set {
			if idx, ok := t.secondary[col]; ok {
				removeRid(idx, row[col].Hash(), rid)
				idx[v.Hash()] = append(idx[v.Hash()], rid)
			}
			row[col] = v
		}
		if pkChanged && t.pkIndex != nil {
			newH := t.pkHash(row)
			t.pkIndex[newH] = append(t.pkIndex[newH], rid)
			if t.pkOrdered != nil {
				t.pkOrdered.insert(t, rid)
			}
		}
	}
	return len(touched), nil
}

// Delete removes all live rows matching pred and returns the count. Slots
// are tombstoned; physical space is reclaimed only by Compact.
func (t *Table) Delete(pred expr.Predicate) int {
	var touched []int32
	t.Scan(pred, func(rid int, row []value.Value) bool {
		touched = append(touched, int32(rid))
		return true
	})
	for _, rid := range touched {
		row := t.Row(int(rid))
		if t.pkIndex != nil {
			removeRid(t.pkIndex, t.pkHash(row), rid)
			if t.pkOrdered != nil {
				t.pkOrdered.remove(t, rid)
			}
		}
		for col, idx := range t.secondary {
			removeRid(idx, row[col].Hash(), rid)
		}
		t.valid[rid] = false
		t.live--
	}
	return len(touched)
}

// Compact rewrites the arena dropping tombstoned rows and rebuilds all
// indexes. Returns the number of slots reclaimed.
func (t *Table) Compact() int {
	reclaimed := t.capacityRows() - t.live
	if reclaimed == 0 {
		return 0
	}
	data := make([]value.Value, 0, t.live*t.stride)
	for rid := 0; rid < t.capacityRows(); rid++ {
		if t.valid[rid] {
			data = append(data, t.Row(rid)...)
		}
	}
	t.data = data
	t.valid = make([]bool, t.live)
	for i := range t.valid {
		t.valid[i] = true
	}
	if t.pkIndex != nil {
		t.pkIndex = make(map[uint64][]int32)
		for rid := 0; rid < t.live; rid++ {
			h := t.pkHash(t.Row(rid))
			t.pkIndex[h] = append(t.pkIndex[h], int32(rid))
		}
		if t.pkOrdered != nil {
			t.pkOrdered = &orderedPK{}
			for rid := 0; rid < t.live; rid++ {
				t.pkOrdered.insert(t, int32(rid))
			}
		}
	}
	for col := range t.secondary {
		t.secondary[col] = nil
		delete(t.secondary, col)
		t.CreateIndex(col)
	}
	return reclaimed
}

// MemoryBytes estimates the arena payload size (values only, uncompressed).
func (t *Table) MemoryBytes() int {
	total := 0
	for rid := 0; rid < t.capacityRows(); rid++ {
		if !t.valid[rid] {
			continue
		}
		for _, v := range t.Row(rid) {
			total += v.Bytes()
		}
	}
	return total
}

func removeRid(idx map[uint64][]int32, h uint64, rid int32) {
	lst := idx[h]
	for i, r := range lst {
		if r == rid {
			lst[i] = lst[len(lst)-1]
			idx[h] = lst[:len(lst)-1]
			return
		}
	}
}
