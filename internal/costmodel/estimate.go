package costmodel

import (
	"strings"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
)

// TableInfo carries the data characteristics of one table (or virtual
// partition) into an estimate. Stats may be nil, in which case default
// selectivities apply.
type TableInfo struct {
	Schema      *schema.Table
	Rows        int
	Compression float64
	Stats       expr.ColumnStats
	HasIndex    func(col int) bool
}

// InfoSource resolves table names to their current characteristics.
type InfoSource func(table string) (TableInfo, bool)

// Placement assigns a store to every table (keys lower-cased).
type Placement map[string]catalog.StoreKind

// StoreOf looks up a table's store, defaulting to the row store.
func (p Placement) StoreOf(table string) catalog.StoreKind {
	if s, ok := p[strings.ToLower(table)]; ok {
		return s
	}
	return catalog.RowStore
}

// Clone copies the placement.
func (p Placement) Clone() Placement {
	out := make(Placement, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// EstimateQuery predicts the runtime of one query in nanoseconds under the
// given placement.
func (m *Model) EstimateQuery(q *query.Query, info InfoSource, place Placement) float64 {
	ti, ok := info(q.Table)
	if !ok {
		return 0
	}
	store := place.StoreOf(q.Table)
	switch q.Kind {
	case query.Aggregate:
		if q.Join != nil {
			return m.estimateJoin(q, ti, info, place)
		}
		return m.estimateAggregate(q, ti, store)
	case query.Select:
		if q.Join != nil {
			return m.estimateJoin(q, ti, info, place)
		}
		return m.estimateSelect(q, ti, store)
	case query.Insert:
		return m.estimateInsert(q, ti, store)
	case query.Update:
		return m.estimateUpdate(q, ti, store)
	case query.Delete:
		return m.estimateDelete(q, ti, store)
	default:
		return 0
	}
}

// EstimateWorkload predicts the total runtime of a workload in
// nanoseconds.
func (m *Model) EstimateWorkload(w *query.Workload, info InfoSource, place Placement) float64 {
	total := 0.0
	for _, q := range w.Queries {
		total += m.EstimateQuery(q, info, place)
	}
	return total
}

// estimateAggregate implements the paper's aggregation-query formula:
//
//	(Σ_i BaseCosts_fn(i) · c_dataType(i)) · c_groupBy · f_#rows(n) · f_compression(r)
func (m *Model) estimateAggregate(q *query.Query, ti TableInfo, store catalog.StoreKind) float64 {
	p := m.params(store)
	base := p.AggQueryBase
	for _, s := range q.Aggs {
		c := p.aggBase(s.Func)
		if s.Col >= 0 && ti.Schema != nil && s.Col < ti.Schema.NumColumns() {
			c *= p.dataTypeC(ti.Schema.Columns[s.Col].Type)
		}
		base += c
	}
	if len(q.GroupBy) > 0 {
		base *= p.GroupByC
	}
	base *= p.RowsF.At(float64(ti.Rows))
	base *= p.CompressionF.At(ti.Compression)
	return base
}

// selectivityOf estimates the matched-row fraction of a predicate.
func selectivityOf(pred expr.Predicate, ti TableInfo) float64 {
	if pred == nil {
		return 1
	}
	if ti.Stats == nil {
		return 0.1
	}
	return expr.EstimateSelectivity(pred, ti.Stats)
}

// indexedAccess reports whether the row store can serve the predicate
// with an index: a PK point lookup, an equality on an indexed column, or
// a bounded range on a single-column primary key (served by the row
// store's ordered PK index).
func indexedAccess(pred expr.Predicate, ti TableInfo) bool {
	if pred == nil || ti.Schema == nil {
		return false
	}
	pk := ti.Schema.PrimaryKey
	if _, ok := expr.PKEquality(pred, pk); ok {
		return true
	}
	if len(pk) == 1 {
		if rg, ok := expr.RangeOn(pred, pk[0]); ok && (rg.Lo != nil || rg.Hi != nil) {
			return true
		}
	}
	if ti.HasIndex == nil {
		return false
	}
	for _, c := range expr.Conjuncts(pred) {
		if cmp, ok := c.(*expr.Comparison); ok && cmp.Op == expr.Eq && ti.HasIndex(cmp.Col) {
			return true
		}
	}
	return false
}

// estimateSelect implements the paper's point/range-query formula:
//
//	BaseSelectCosts · f_#selectedColumns · f_selectivity
//
// (scaled by f_#rows so the base cost transfers across table sizes). For
// the row store f_#selectedColumns is constant and f_selectivity is linear
// only when an index is available; for the column store the dictionary
// provides an implicit index, so f_selectivity is always linear and
// f_#selectedColumns grows with the tuple-reconstruction width.
func (m *Model) estimateSelect(q *query.Query, ti TableInfo, store catalog.StoreKind) float64 {
	p := m.params(store)
	k := len(q.Cols)
	if k == 0 && ti.Schema != nil {
		k = ti.Schema.NumColumns()
	}
	sel := selectivityOf(q.Pred, ti)
	if q.Limit > 0 && ti.Rows > 0 {
		// A limit caps the effective fraction of rows returned.
		if capSel := float64(q.Limit) / float64(ti.Rows); capSel < sel {
			sel = capSel
		}
	}
	var fsel float64
	switch {
	case store == catalog.ColumnStore:
		fsel = p.SelIdxF.At(sel) // implicit dictionary index
	case indexedAccess(q.Pred, ti):
		fsel = p.SelIdxF.At(sel)
	default:
		fsel = p.SelScanF.At(sel) // full table scan
	}
	return p.SelectBase * p.SelColsF.At(float64(k)) * fsel * p.RowsF.At(float64(ti.Rows))
}

// estimateInsert implements Costs = BaseInsertCosts · f_#rows, per
// inserted row (uniqueness verification grows with the table, §3.1).
func (m *Model) estimateInsert(q *query.Query, ti TableInfo, store catalog.StoreKind) float64 {
	p := m.params(store)
	return p.InsertBase * p.InsRowsF.At(float64(ti.Rows)) * float64(len(q.Rows))
}

// locationCost estimates the cost of finding the rows an update or delete
// affects. The paper folds this into f_#affectedRows ("basically reflects
// the selectivity of the query"); we model it explicitly with the same
// store-specific selectivity functions as point/range queries so that the
// location share scales with table size and index availability — without
// it, update estimates calibrated on the reference table do not transfer
// to much smaller or larger tables. This is an extension of the paper's
// formula.
func (m *Model) locationCost(pred expr.Predicate, ti TableInfo, store catalog.StoreKind) float64 {
	if pred == nil {
		return 0
	}
	p := m.params(store)
	sel := selectivityOf(pred, ti)
	var fsel float64
	switch {
	case store == catalog.ColumnStore:
		fsel = p.SelIdxF.At(sel)
	case indexedAccess(pred, ti):
		fsel = p.SelIdxF.At(sel)
	default:
		fsel = p.SelScanF.At(sel)
	}
	return p.SelectBase * p.SelColsF.At(1) * fsel * p.RowsF.At(float64(ti.Rows))
}

// estimateUpdate implements
//
//	Costs = BaseUpdateCosts · f_#affectedColumns · f_#affectedRows
//
// plus the explicit row-location term (see locationCost).
func (m *Model) estimateUpdate(q *query.Query, ti TableInfo, store catalog.StoreKind) float64 {
	p := m.params(store)
	affected := selectivityOf(q.Pred, ti) * float64(ti.Rows)
	if affected < 1 {
		affected = 1
	}
	return p.UpdateBase*p.UpdColsF.At(float64(len(q.Set)))*p.UpdRowsF.At(affected) +
		m.locationCost(q.Pred, ti, store)
}

// estimateDelete treats a delete like a one-column update.
func (m *Model) estimateDelete(q *query.Query, ti TableInfo, store catalog.StoreKind) float64 {
	p := m.params(store)
	affected := selectivityOf(q.Pred, ti) * float64(ti.Rows)
	if affected < 1 {
		affected = 1
	}
	return p.UpdateBase*p.UpdColsF.At(1)*p.UpdRowsF.At(affected) +
		m.locationCost(q.Pred, ti, store)
}

// estimateJoin implements the paper's join extension: the base cost is
// selected by the store combination of both tables and adjusted by the
// characteristics of both sides:
//
//	BaseCosts^{s1,s2} · (query adjustments on the probe side) ·
//	f^{s1}_#rows(n1) · f^{s2}_#rows(n2) ·
//	f^{s1}_compression(r1) · f^{s2}_compression(r2)
func (m *Model) estimateJoin(q *query.Query, left TableInfo, info InfoSource, place Placement) float64 {
	right, ok := info(q.Join.Table)
	if !ok {
		return 0
	}
	s1 := place.StoreOf(q.Table)
	s2 := place.StoreOf(q.Join.Table)
	p1 := m.params(s1)
	p2 := m.params(s2)
	base := m.JoinBase[storeKey(s1)][storeKey(s2)]

	// Query adjustment: relative cost of the aggregate list on the probe
	// (left) store, normalized so a single SUM equals 1.
	queryAdj := 1.0
	if q.Kind == query.Aggregate && len(q.Aggs) > 0 {
		ref := p1.AggQueryBase + p1.aggBase(agg.Sum)
		total := p1.AggQueryBase
		nL := 0
		if left.Schema != nil {
			nL = left.Schema.NumColumns()
		}
		for _, s := range q.Aggs {
			c := p1.aggBase(s.Func)
			if s.Col >= 0 && s.Col < nL && left.Schema != nil {
				c *= p1.dataTypeC(left.Schema.Columns[s.Col].Type)
			}
			total += c
		}
		if ref > 0 {
			queryAdj = total / ref
		}
		if len(q.GroupBy) > 0 {
			// Join grouping has its own calibrated multiplier; fall back to
			// the probe store's single-table multiplier when absent.
			c := m.JoinGroupC[storeKey(s1)][storeKey(s2)]
			if c <= 0 {
				c = p1.GroupByC
			}
			queryAdj *= c
		}
	}
	// Predicate selectivity on the probe side shrinks the work — strongly
	// for the column store (the code-level bitmap removes per-row probe
	// work), weakly for the row store (the scan still visits every tuple;
	// only the per-match work shrinks).
	selAdj := 1.0
	if q.Pred != nil {
		leftPred := leftOnlyPred(q.Pred, left)
		if leftPred != nil {
			s := selectivityOf(leftPred, left)
			if s1 == catalog.ColumnStore {
				selAdj = 0.25 + 0.75*s
			} else {
				selAdj = 0.75 + 0.25*s
			}
		}
	}
	return base * queryAdj * selAdj *
		p1.RowsF.At(float64(left.Rows)) * p2.RowsF.At(float64(right.Rows)) *
		p1.CompressionF.At(left.Compression) * p2.CompressionF.At(right.Compression)
}

// leftOnlyPred extracts the conjuncts that reference only left-side
// columns (combined indexing: left columns come first).
func leftOnlyPred(pred expr.Predicate, left TableInfo) expr.Predicate {
	if left.Schema == nil {
		return nil
	}
	nL := left.Schema.NumColumns()
	var keep []expr.Predicate
	for _, c := range expr.Conjuncts(pred) {
		all := true
		for _, col := range expr.ColumnSet(c) {
			if col >= nL {
				all = false
				break
			}
		}
		if all {
			keep = append(keep, c)
		}
	}
	switch len(keep) {
	case 0:
		return nil
	case 1:
		return keep[0]
	default:
		return &expr.And{Preds: keep}
	}
}
