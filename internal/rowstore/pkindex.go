package rowstore

import (
	"sort"

	"hybridstore/internal/expr"
	"hybridstore/internal/value"
)

// orderedPK is an order-preserving index over a single-column numeric
// primary key: row ids sorted by key value. It backs range predicates on
// the primary key — the row-store analogue of a B-tree on the PK, which
// is what makes selective range updates cheap in a row store. Keys are
// compared through value.Compare, so Integer, Bigint, Double and Date
// keys all work.
type orderedPK struct {
	rids []int32 // sorted by key
}

// keyAt returns the PK value of a row id.
func (t *Table) keyAt(rid int32) value.Value {
	return t.Value(int(rid), t.sch.PrimaryKey[0])
}

// orderedPKUsable reports whether the table maintains an ordered PK index.
func (t *Table) orderedPKUsable() bool {
	return t.pkOrdered != nil && len(t.sch.PrimaryKey) == 1
}

// insertOrdered adds a freshly inserted row id. The common case — keys
// arriving in increasing order — is O(1); out-of-order keys fall back to
// binary-search insertion.
func (o *orderedPK) insert(t *Table, rid int32) {
	n := len(o.rids)
	if n == 0 || value.Compare(t.keyAt(o.rids[n-1]), t.keyAt(rid)) <= 0 {
		o.rids = append(o.rids, rid)
		return
	}
	key := t.keyAt(rid)
	i := sort.Search(n, func(i int) bool {
		return value.Compare(t.keyAt(o.rids[i]), key) >= 0
	})
	o.rids = append(o.rids, 0)
	copy(o.rids[i+1:], o.rids[i:])
	o.rids[i] = rid
}

// remove drops a row id (identified by its current key).
func (o *orderedPK) remove(t *Table, rid int32) {
	key := t.keyAt(rid)
	n := len(o.rids)
	i := sort.Search(n, func(i int) bool {
		return value.Compare(t.keyAt(o.rids[i]), key) >= 0
	})
	for ; i < n; i++ {
		if o.rids[i] == rid {
			copy(o.rids[i:], o.rids[i+1:])
			o.rids = o.rids[:n-1]
			return
		}
		if value.Compare(t.keyAt(o.rids[i]), key) != 0 {
			return // not found (defensive)
		}
	}
}

// rangeRids returns the row ids whose keys fall into [lo, hi]; nil bounds
// are unbounded.
func (o *orderedPK) rangeRids(t *Table, lo, hi *value.Value) []int32 {
	n := len(o.rids)
	start := 0
	if lo != nil {
		start = sort.Search(n, func(i int) bool {
			return value.Compare(t.keyAt(o.rids[i]), *lo) >= 0
		})
	}
	end := n
	if hi != nil {
		end = sort.Search(n, func(i int) bool {
			return value.Compare(t.keyAt(o.rids[i]), *hi) > 0
		})
	}
	if start >= end {
		return nil
	}
	return o.rids[start:end]
}

// pkRange extracts a usable PK range from a predicate: the predicate must
// constrain the single PK column with at least one bound.
func (t *Table) pkRange(pred expr.Predicate) (expr.Range, bool) {
	if !t.orderedPKUsable() || pred == nil {
		return expr.Range{}, false
	}
	rg, ok := expr.RangeOn(pred, t.sch.PrimaryKey[0])
	if !ok || (rg.Lo == nil && rg.Hi == nil) {
		return expr.Range{}, false
	}
	return rg, true
}
