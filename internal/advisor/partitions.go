package advisor

import (
	"fmt"
	"strings"

	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/monitor"
	"hybridstore/internal/query"
	"hybridstore/internal/value"
)

// PartitionCandidate is one possible partitioning of one table, with the
// heuristic that produced it.
type PartitionCandidate struct {
	Table  string
	Spec   *catalog.PartitionSpec
	Reason string
}

// deriveStats replays a workload through a statistics recorder — the
// offline-mode approximation of the online mode's recorded extended
// statistics ("we could ... estimate those tuples based on the queries and
// standard table statistics", §3.2).
func deriveStats(w *query.Workload) *monitor.Recorder {
	rec := monitor.NewRecorder()
	for _, q := range w.Queries {
		rec.Observe(q)
	}
	return rec
}

// PartitionCandidates applies the paper's heuristic (§3.2/§4) per table:
//
//   - a high fraction of insert queries → a row-store partition for newly
//     arriving tuples (horizontal split above the current maximum key);
//   - tuples frequently updated as a whole within a bounded key range →
//     a row-store hot partition (horizontal split at the range start);
//   - attributes mainly used for updates or point selections rather than
//     analysis → a row-store vertical partition (primary key replicated).
//
// For each table it emits up to three candidates (horizontal, vertical,
// both); the caller picks by estimated layout cost.
func (a *Advisor) PartitionCandidates(w *query.Workload, info costmodel.InfoSource, ws *monitor.Recorder, coldStores costmodel.Placement) []PartitionCandidate {
	if ws == nil {
		ws = deriveStats(w)
	}
	var out []PartitionCandidate
	for _, table := range a.WorkloadTables(w) {
		ti, ok := info(table)
		if !ok || ti.Schema == nil || ti.Rows < a.Config.MinPartitionRows {
			continue
		}
		ts := ws.Table(table)
		if ts == nil {
			continue
		}
		h, hReason := a.horizontalCandidate(ti, ts)
		verts := a.verticalCandidates(ti, ts)
		key := strings.ToLower(table)
		if h != nil {
			out = append(out, PartitionCandidate{Table: key, Spec: &catalog.PartitionSpec{Horizontal: h}, Reason: hReason})
		}
		for _, v := range verts {
			out = append(out, PartitionCandidate{Table: key, Spec: &catalog.PartitionSpec{Vertical: v.spec}, Reason: v.reason})
			if h != nil {
				out = append(out, PartitionCandidate{
					Table:  key,
					Spec:   &catalog.PartitionSpec{Horizontal: h, Vertical: v.spec},
					Reason: hReason + "; " + v.reason,
				})
			}
		}
	}
	return out
}

// horizontalCandidate derives a horizontal split. The hot partition is
// always row-store (fast inserts and updates) and the cold partition is
// always column-store (fast analysis of historic data) — the paper's
// scheme; whether the split actually pays off is decided by the caller's
// layout cost estimate.
func (a *Advisor) horizontalCandidate(ti costmodel.TableInfo, ts *monitor.TableStats) (*catalog.HorizontalSpec, string) {
	sch := ti.Schema
	splitCol := sch.PrimaryKey[0]
	if !numericType(sch.Columns[splitCol].Type) {
		return nil, ""
	}
	// Hot update range: updates repeatedly address a bounded key region.
	if ts.UpdateRangeSeen && ts.UpdateRangeCol == splitCol && ts.UpdateRangeCount >= hotUpdateMinCount {
		if ti.Stats != nil {
			if lo, hi, ok := ti.Stats.MinMax(splitCol); ok {
				span := hi.Float() - lo.Float()
				if span > 0 {
					frac := (hi.Float() - ts.UpdateRangeLo.Float()) / span
					if frac > 0 && frac <= hotRangeMaxFraction {
						return &catalog.HorizontalSpec{
								SplitCol:  splitCol,
								SplitVal:  ts.UpdateRangeLo,
								HotStore:  catalog.RowStore,
								ColdStore: catalog.ColumnStore,
							}, fmt.Sprintf("updates concentrate on keys >= %s (%.0f%% of the data)",
								ts.UpdateRangeLo, frac*100)
					}
				}
			}
		}
	}
	// Insert partition: enough inserts to justify a row-store partition
	// for newly arriving tuples.
	if ts.InsertFraction() >= insertFractionThreshold {
		if ti.Stats != nil {
			if _, hi, ok := ti.Stats.MinMax(splitCol); ok {
				splitVal := nextKey(hi)
				return &catalog.HorizontalSpec{
						SplitCol:  splitCol,
						SplitVal:  splitVal,
						HotStore:  catalog.RowStore,
						ColdStore: catalog.ColumnStore,
					}, fmt.Sprintf("%.1f%% of statements are inserts; new tuples land in a row-store partition",
						ts.InsertFraction()*100)
			}
		}
	}
	return nil, ""
}

// verticalVariant is one derived vertical split.
type verticalVariant struct {
	spec   *catalog.VerticalSpec
	reason string
}

// verticalCandidates derives vertical splits from per-attribute usage.
// Attributes used by both updates and analysis ("contested", e.g. a status
// column that is updated and grouped by) can reasonably live on either
// side, so a second variant with contested attributes in the column
// partition is emitted and the caller decides by estimated cost.
func (a *Advisor) verticalCandidates(ti costmodel.TableInfo, ts *monitor.TableStats) []verticalVariant {
	sch := ti.Schema
	if len(ts.AttrUpdates) == 0 {
		return nil
	}
	n := sch.NumColumns()
	attr := func(s []int, i int) int {
		if i < len(s) {
			return s[i]
		}
		return 0
	}
	build := func(contestedToCol bool) (*catalog.VerticalSpec, int, int, int) {
		var rowCols, colCols []int
		oltpAttrs, olapAttrs, contested := 0, 0, 0
		for i := 0; i < n; i++ {
			if sch.IsPrimaryKey(i) {
				rowCols = append(rowCols, i)
				colCols = append(colCols, i)
				continue
			}
			updates := attr(ts.AttrUpdates, i)
			olap := attr(ts.AttrAggs, i) + attr(ts.AttrGroupBys, i) + attr(ts.AttrOLAPPreds, i)
			switch {
			case updates > 0 && olap > 0:
				contested++
				if contestedToCol {
					colCols = append(colCols, i)
					olapAttrs++
				} else {
					rowCols = append(rowCols, i)
					oltpAttrs++
				}
			case updates > 0:
				rowCols = append(rowCols, i)
				oltpAttrs++
			case olap > 0:
				colCols = append(colCols, i)
				olapAttrs++
			default:
				// Untouched attributes keep tuple reconstruction cheap in
				// the row partition.
				rowCols = append(rowCols, i)
			}
		}
		// A split needs analytical attributes on the column side and a
		// non-trivial row side: update-hot attributes, or — for the
		// contested-to-column variant — at least the untouched attributes
		// that keep tuple reconstruction out of the column partition.
		rowExtra := len(rowCols) - len(sch.PrimaryKey)
		if olapAttrs == 0 || rowExtra == 0 {
			return nil, 0, 0, 0
		}
		if !contestedToCol && oltpAttrs == 0 {
			return nil, 0, 0, 0
		}
		return &catalog.VerticalSpec{RowCols: rowCols, ColCols: colCols}, oltpAttrs, olapAttrs, contested
	}
	var out []verticalVariant
	if spec, oltp, olap, contested := build(false); spec != nil {
		out = append(out, verticalVariant{spec,
			fmt.Sprintf("%d OLTP attribute(s) vs %d aggregated attribute(s)", oltp, olap)})
		if contested > 0 {
			if alt, oltp2, olap2, _ := build(true); alt != nil {
				out = append(out, verticalVariant{alt,
					fmt.Sprintf("%d OLTP attribute(s) vs %d aggregated attribute(s); %d contested attribute(s) kept columnar", oltp2, olap2, contested)})
			}
		}
	}
	return out
}

func numericType(t value.Type) bool {
	switch t {
	case value.Integer, value.Bigint, value.Double, value.Date:
		return true
	default:
		return false
	}
}

// nextKey returns the smallest key strictly above v for integer-like
// types (used to split "newly arriving tuples" from existing data).
func nextKey(v value.Value) value.Value {
	switch v.Type() {
	case value.Integer:
		return value.NewInt(v.Int() + 1)
	case value.Bigint:
		return value.NewBigint(v.Int() + 1)
	case value.Date:
		return value.NewDate(v.Int() + 1)
	default:
		return value.NewDouble(v.Float() + 1)
	}
}
