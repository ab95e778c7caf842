package engine

import (
	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// horizontalStorage splits a table into a hot partition (rows with
// SplitCol >= SplitVal — current and newly arriving tuples, typically in
// the row store for fast inserts and updates) and a cold partition
// (historic tuples, typically in the column store for fast analysis). New
// rows are routed by the split predicate; queries run against the relevant
// partitions and aggregation results are merged — the paper's "union of
// both partitions" (Figure 2).
type horizontalStorage struct {
	sch  *schema.Table
	spec *catalog.HorizontalSpec

	hot  storage
	cold storage
}

func newHorizontalStorage(sch *schema.Table, spec *catalog.HorizontalSpec, hot, cold storage) *horizontalStorage {
	return &horizontalStorage{sch: sch, spec: spec, hot: hot, cold: cold}
}

func (h *horizontalStorage) Rows() int { return h.hot.Rows() + h.cold.Rows() }

// isHot routes a row by the split column.
func (h *horizontalStorage) isHot(row []value.Value) bool {
	v := row[h.spec.SplitCol]
	if v.IsNull() {
		return false
	}
	return value.Compare(v, h.spec.SplitVal) >= 0
}

// split routes rows by the split column.
func (h *horizontalStorage) split(rows [][]value.Value) (hotRows, coldRows [][]value.Value) {
	for _, row := range rows {
		if h.isHot(row) {
			hotRows = append(hotRows, row)
		} else {
			coldRows = append(coldRows, row)
		}
	}
	return hotRows, coldRows
}

// HasPK reports whether either partition holds a live row with the
// given primary-key values.
func (h *horizontalStorage) HasPK(key []value.Value) bool {
	return h.hot.HasPK(key) || h.cold.HasPK(key)
}

// DeletePK removes the key's row from whichever partition holds it.
func (h *horizontalStorage) DeletePK(key []value.Value) bool {
	return h.hot.DeletePK(key) || h.cold.DeletePK(key)
}

// Upsert stores each row in the partition its split value selects; the key
// leaves the other partition, where its previous image may live. The batch
// is validated before either partition changes.
func (h *horizontalStorage) Upsert(rows [][]value.Value) error {
	if err := h.sch.ValidateRows(rows); err != nil {
		return err
	}
	hotRows, coldRows := h.split(rows)
	for _, row := range hotRows {
		h.cold.DeletePK(h.sch.PKValues(row))
	}
	for _, row := range coldRows {
		h.hot.DeletePK(h.sch.PKValues(row))
	}
	if len(hotRows) > 0 {
		if err := h.hot.Upsert(hotRows); err != nil {
			return err
		}
	}
	if len(coldRows) > 0 {
		return h.cold.Upsert(coldRows)
	}
	return nil
}

// sides returns the partitions a predicate can touch, pruning by the
// range the predicate imposes on the split column.
func (h *horizontalStorage) sides(pred expr.Predicate) (useHot, useCold bool) {
	useHot, useCold = true, true
	rg, ok := expr.RangeOn(pred, h.spec.SplitCol)
	if !ok {
		return
	}
	if rg.Hi != nil && value.Compare(*rg.Hi, h.spec.SplitVal) < 0 {
		useHot = false
	}
	if rg.Lo != nil && value.Compare(*rg.Lo, h.spec.SplitVal) >= 0 {
		useCold = false
	}
	return
}

// Scan returns the hot partition's blocks, then the cold one's.
func (h *horizontalStorage) Scan(pred expr.Predicate, cols []int, ex *exec.Ctx) exec.Blocks {
	switch useHot, useCold := h.sides(pred); {
	case useHot && useCold:
		return concatBlocks(h.hot.Scan(pred, cols, ex), h.cold.Scan(pred, cols, ex))
	case useHot:
		return h.hot.Scan(pred, cols, ex)
	case useCold:
		return h.cold.Scan(pred, cols, ex)
	}
	return exec.Blocks{Ctx: ex}
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

// Aggregate merges the partial aggregates of the relevant partitions, the
// paper's "union of both partitions". Both sides' aggregates are the two
// morsels of one loop on ex, concurrent when the pool has a slot to spare;
// the side that finishes first frees its slot for the other's loop.
func (h *horizontalStorage) Aggregate(specs []agg.Spec, groupBy []int, pred expr.Predicate, ex *exec.Ctx) *agg.Result {
	useHot, useCold := h.sides(pred)
	switch {
	case useHot && !useCold:
		return h.hot.Aggregate(specs, groupBy, pred, ex)
	case useCold && !useHot:
		return h.cold.Aggregate(specs, groupBy, pred, ex)
	}
	sides, res := [2]storage{h.cold, h.hot}, [2]*agg.Result{}
	ex.Morsels(2, func(_, m int) bool {
		res[m] = sides[m].Aggregate(specs, groupBy, pred, ex)
		return true
	})
	if res[0] == nil { // stopped before the cold side ran: the caller discards the result
		return agg.NewResult(specs, groupBy)
	}
	res[0].Merge(res[1])
	return res[0]
}

func (h *horizontalStorage) CreateIndex(col int) {
	h.hot.CreateIndex(col)
	h.cold.CreateIndex(col)
}

func (h *horizontalStorage) SupportsIndex(col int) bool {
	return h.hot.SupportsIndex(col) || h.cold.SupportsIndex(col)
}

func (h *horizontalStorage) DeltaRows() int {
	return h.hot.DeltaRows() + h.cold.DeltaRows()
}

func (h *horizontalStorage) Compact() {
	h.hot.Compact()
	h.cold.Compact()
}

func (h *horizontalStorage) footprint(f *Footprint) {
	h.hot.footprint(f)
	h.cold.footprint(f)
}
