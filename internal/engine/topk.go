package engine

import (
	"sort"

	"hybridstore/internal/query"
	"hybridstore/internal/value"
)

// topKAcc selects the k smallest rows under the lexicographic order
// (ORDER BY keys, arrival sequence) in one pass with O(k) memory — the
// exact prefix a stable sort followed by LIMIT k would produce, so the
// planned TopK operator is differentially indistinguishable from
// Sort+Limit. It is a bounded binary max-heap ordered by "worseness":
// the root is the worst retained row and is evicted first.
//
// Arrival sequences make the result schedule-independent: the retained
// set is a pure function of the (row, key, seq) multiset, so parallel
// scans can accumulate into per-worker heaps (with seqs derived from
// block/row position) and merge in any order.
type topKAcc struct {
	k     int
	order []query.Order
	rows  [][]value.Value
	keys  []value.Value // entry i's order keys at [i*len(order), (i+1)*len(order))
	seqs  []int64
	cand  []value.Value // scratch for the caller's next candidate key
}

func newTopK(k int, order []query.Order) *topKAcc {
	return &topKAcc{
		k:     k,
		order: order,
		rows:  make([][]value.Value, 0, k),
		keys:  make([]value.Value, 0, k*len(order)),
		seqs:  make([]int64, 0, k),
		cand:  make([]value.Value, len(order)),
	}
}

func (t *topKAcc) key(i int) []value.Value {
	n := len(t.order)
	return t.keys[i*n : (i+1)*n]
}

// worse reports whether entry i sorts strictly after entry j (and is
// therefore dropped first).
func (t *topKAcc) worse(i, j int) bool {
	if c := compareKeys(t.key(i), t.key(j), t.order); c != 0 {
		return c > 0
	}
	return t.seqs[i] > t.seqs[j]
}

// Admits reports whether a row with the given order keys and arrival
// sequence would be retained: there is room, or it is strictly better
// than the current worst. Scans ask before they build the row, so the
// rows that never make it — almost all of them — cost no allocation.
func (t *topKAcc) Admits(key []value.Value, seq int64) bool {
	if len(t.rows) < t.k {
		return true
	}
	if c := compareKeys(t.key(0), key, t.order); c != 0 {
		return c > 0
	}
	return t.seqs[0] > seq
}

// Add offers one row; key is copied, row must not be reused by the caller.
func (t *topKAcc) Add(row, key []value.Value, seq int64) {
	if !t.Admits(key, seq) {
		return
	}
	if len(t.rows) < t.k {
		t.rows = append(t.rows, row)
		t.keys = append(t.keys, key[:len(t.order)]...)
		t.seqs = append(t.seqs, seq)
		t.up(len(t.rows) - 1)
		return
	}
	t.rows[0], t.seqs[0] = row, seq
	copy(t.key(0), key)
	t.down(0)
}

func (t *topKAcc) swap(i, j int) {
	t.rows[i], t.rows[j] = t.rows[j], t.rows[i]
	t.seqs[i], t.seqs[j] = t.seqs[j], t.seqs[i]
	for x, ki, kj := 0, t.key(i), t.key(j); x < len(ki); x++ {
		ki[x], kj[x] = kj[x], ki[x]
	}
}

func (t *topKAcc) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.worse(i, p) {
			break
		}
		t.swap(i, p)
		i = p
	}
}

func (t *topKAcc) down(i int) {
	n := len(t.rows)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && t.worse(l, worst) {
			worst = l
		}
		if r < n && t.worse(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		t.swap(i, worst)
		i = worst
	}
}

// Merge folds another accumulator's retained rows into this one.
func (t *topKAcc) Merge(o *topKAcc) {
	for i := range o.rows {
		t.Add(o.rows[i], o.key(i), o.seqs[i])
	}
}

// Finish returns the retained rows in ascending (key, seq) order. The
// accumulator must not be used afterwards.
func (t *topKAcc) Finish() [][]value.Value {
	idx := make([]int, len(t.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return t.worse(idx[b], idx[a]) })
	out := make([][]value.Value, len(idx))
	for i, j := range idx {
		out[i] = t.rows[j]
	}
	return out
}
