package advisor

import (
	"strings"

	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/expr"
	"hybridstore/internal/monitor"
	"hybridstore/internal/query"
)

// Layout is a complete storage layout: a store per table plus optional
// partitioning specs for some tables.
type Layout struct {
	Stores     costmodel.Placement
	Partitions map[string]*catalog.PartitionSpec
}

// Clone deep-copies the layout (specs are shared; they are immutable once
// built).
func (l Layout) Clone() Layout {
	out := Layout{Stores: l.Stores.Clone(), Partitions: map[string]*catalog.PartitionSpec{}}
	for k, v := range l.Partitions {
		out.Partitions[k] = v
	}
	return out
}

// SpecFor returns the partitioning of a table, or nil.
func (l Layout) SpecFor(table string) *catalog.PartitionSpec {
	return l.Partitions[strings.ToLower(table)]
}

// EstimateLayout predicts the workload runtime (ns) under a layout,
// including partitioned tables: queries are virtually rewritten the same
// way the engine rewrites them (per-partition execution, union/merge for
// horizontal splits, single-partition push-down or PK-join penalty for
// vertical splits) and each piece is estimated against the partition's
// store and size.
func (a *Advisor) EstimateLayout(w *query.Workload, info costmodel.InfoSource, layout Layout) float64 {
	total := 0.0
	for _, q := range w.Queries {
		total += a.estimateQueryLayout(q, info, layout)
	}
	return total
}

func (a *Advisor) estimateQueryLayout(q *query.Query, info costmodel.InfoSource, layout Layout) float64 {
	spec := layout.SpecFor(q.Table)
	if spec == nil || q.Join != nil {
		// Unpartitioned (or a join: joins against partitioned tables are
		// approximated by the table-level store — the cold/main partition
		// dominates analytical joins).
		return a.Model.EstimateQuery(q, info, layout.Stores)
	}
	ti, ok := info(q.Table)
	if !ok {
		return 0
	}
	return a.estimatePartitioned(q, ti, spec, layout)
}

// partView is a virtual partition: a TableInfo shrunk to the partition's
// rows together with the store it lives in.
type partView struct {
	info  costmodel.TableInfo
	store catalog.StoreKind
}

// hotFraction estimates the fraction of rows in the hot partition from
// the split column's value range (uniformity assumption, as in the
// selectivity estimator).
func hotFraction(ti costmodel.TableInfo, h *catalog.HorizontalSpec) float64 {
	if ti.Stats == nil {
		return 0.1
	}
	lo, hi, ok := ti.Stats.MinMax(h.SplitCol)
	if !ok {
		return 0.1
	}
	span := hi.Float() - lo.Float()
	if span <= 0 {
		return 0
	}
	f := (hi.Float() - h.SplitVal.Float() + 1) / span
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// virtual returns a TableInfo scaled to a fraction of the table.
func virtual(ti costmodel.TableInfo, frac float64) costmodel.TableInfo {
	out := ti
	out.Rows = int(float64(ti.Rows) * frac)
	if out.Rows < 1 && frac > 0 {
		out.Rows = 1
	}
	return out
}

// estimatePartitioned virtually rewrites a single-table query against a
// partitioned layout and sums the per-partition estimates.
func (a *Advisor) estimatePartitioned(q *query.Query, ti costmodel.TableInfo, spec *catalog.PartitionSpec, layout Layout) float64 {
	// Build the partition views.
	var parts []partView
	coldSpecVertical := spec.Vertical
	if h := spec.Horizontal; h != nil {
		hf := hotFraction(ti, h)
		hot := partView{info: virtual(ti, hf), store: h.HotStore}
		cold := partView{info: virtual(ti, 1-hf), store: h.ColdStore}
		// Routing: does the query's predicate confine it to one side?
		useHot, useCold := true, true
		if q.Kind != query.Insert {
			if rg, ok := expr.RangeOn(q.Pred, h.SplitCol); ok {
				if rg.Hi != nil && rg.Hi.Float() < h.SplitVal.Float() {
					useHot = false
				}
				if rg.Lo != nil && rg.Lo.Float() >= h.SplitVal.Float() {
					useCold = false
				}
			}
		} else {
			// New keys exceed the split point: inserts go to the hot side.
			useCold = false
		}
		if useHot {
			parts = append(parts, hot)
		}
		if useCold {
			if coldSpecVertical != nil {
				return a.estimateVertical(q, cold.info, coldSpecVertical) + boolCost(useHot, a.estimateSingle(q, hot.info, hot.store))
			}
			parts = append(parts, cold)
		}
	} else if spec.Vertical != nil {
		return a.estimateVertical(q, ti, spec.Vertical)
	}
	total := 0.0
	for _, p := range parts {
		total += a.estimateSingle(q, p.info, p.store)
	}
	return total
}

func boolCost(use bool, c float64) float64 {
	if use {
		return c
	}
	return 0
}

// estimateSingle estimates q against one concrete partition.
func (a *Advisor) estimateSingle(q *query.Query, ti costmodel.TableInfo, store catalog.StoreKind) float64 {
	info := func(string) (costmodel.TableInfo, bool) { return ti, true }
	place := costmodel.Placement{strings.ToLower(q.Table): store}
	return a.Model.EstimateQuery(q, info, place)
}

// estimateVertical estimates q against a vertically split table: queries
// whose referenced columns fit one partition run there; spanning queries
// pay for both partitions plus the PK-join reconstruction.
func (a *Advisor) estimateVertical(q *query.Query, ti costmodel.TableInfo, v *catalog.VerticalSpec) float64 {
	inRow := colSet(v.RowCols)
	inCol := colSet(v.ColCols)
	need := referencedCols(q)
	allRow, allCol := true, true
	for _, c := range need {
		if !inRow[c] {
			allRow = false
		}
		if !inCol[c] {
			allCol = false
		}
	}
	switch {
	case q.Kind == query.Insert:
		// Inserts hit both partitions.
		return a.estimateSingle(q, ti, catalog.RowStore) + a.estimateSingle(q, ti, catalog.ColumnStore)
	case allCol:
		return a.estimateSingle(q, ti, catalog.ColumnStore)
	case allRow:
		return a.estimateSingle(q, ti, catalog.RowStore)
	default:
		// Spanning query: both partitions plus a PK-join penalty. Full
		// aggregates pay the whole reconstruction join; point-ish DML and
		// selects only reconstruct the matching rows, so their penalty is
		// scaled by the predicate's selectivity.
		base := a.estimateSingle(q, ti, catalog.RowStore) + a.estimateSingle(q, ti, catalog.ColumnStore)
		join := a.Model.JoinBase["ROW"]["COLUMN"]
		p := float64(ti.Rows) / float64(a.Model.RefRows)
		pen := join * p
		if q.Kind != query.Aggregate && ti.Stats != nil {
			pen *= expr.EstimateSelectivity(q.Pred, ti.Stats)
		}
		return base + pen
	}
}

func colSet(cols []int) map[int]bool {
	out := make(map[int]bool, len(cols))
	for _, c := range cols {
		out[c] = true
	}
	return out
}

// referencedCols collects every column a single-table query touches.
func referencedCols(q *query.Query) []int {
	set := map[int]struct{}{}
	for _, c := range expr.ColumnSet(q.Pred) {
		set[c] = struct{}{}
	}
	for _, s := range q.Aggs {
		if s.Col >= 0 {
			set[s.Col] = struct{}{}
		}
	}
	for _, c := range q.GroupBy {
		set[c] = struct{}{}
	}
	for _, c := range q.Cols {
		set[c] = struct{}{}
	}
	for c := range q.Set {
		set[c] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	return out
}

// Recommendation is the advisor's complete output.
type Recommendation struct {
	// Layout is the recommended layout (stores + partitions).
	Layout Layout
	// TableOnly is the pure table-level placement (no partitioning).
	TableOnly costmodel.Placement
	// Estimated workload runtimes (ns) under the four strategies the
	// paper compares in Figure 10.
	RowOnlyCost, ColumnOnlyCost, TableLevelCost, PartitionedCost float64
	// Reasons explains each partitioning choice per table.
	Reasons map[string]string
	// DDL contains the statements that apply the layout.
	DDL []string
	// Exact reports whether the table-level search was exhaustive.
	Exact bool
}

// Recommend runs the full recommendation process: table-level placement
// first, then partition candidates per table, keeping a candidate only
// when the estimated workload cost improves (the paper's more
// fine-grained decision, §3.2). ws may be nil (offline mode: statistics
// are derived from the workload itself); pinned fixes stores for specific
// tables.
func (a *Advisor) Recommend(w *query.Workload, info costmodel.InfoSource, ws *monitor.Recorder, pinned costmodel.Placement) *Recommendation {
	trec := a.RecommendTables(w, info, pinned)
	rec := &Recommendation{
		TableOnly:      trec.Placement,
		RowOnlyCost:    trec.RowOnlyCost,
		ColumnOnlyCost: trec.ColumnOnlyCost,
		TableLevelCost: trec.EstimatedCost,
		Reasons:        map[string]string{},
		Exact:          trec.Exact,
	}
	layout := Layout{Stores: trec.Placement.Clone(), Partitions: map[string]*catalog.PartitionSpec{}}
	candidates := a.PartitionCandidates(w, info, ws, trec.Placement)

	// Group candidates per table and keep the best-improving variant.
	byTable := map[string][]PartitionCandidate{}
	for _, c := range candidates {
		byTable[c.Table] = append(byTable[c.Table], c)
	}
	current := a.EstimateLayout(w, info, layout)
	for table, cands := range byTable {
		bestCost := current
		var best *PartitionCandidate
		for i := range cands {
			trial := layout.Clone()
			trial.Partitions[table] = cands[i].Spec
			if c := a.EstimateLayout(w, info, trial); c < bestCost {
				bestCost = c
				best = &cands[i]
			}
		}
		if best != nil {
			layout.Partitions[table] = best.Spec
			rec.Reasons[table] = best.Reason
			current = bestCost
		}
	}
	rec.Layout = layout
	rec.PartitionedCost = current
	rec.DDL = a.renderDDL(rec, info)
	return rec
}
