package monitor

import (
	"slices"
	"sort"
	"strings"

	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/value"
)

// TableStats accumulates the extended workload statistics of one table:
// the operation mix, per-attribute update and analysis counters, and the
// update-locality tracking ("tuples that are frequently updated as a
// whole") that feeds the horizontal-partitioning heuristic in §3.2/§4.
type TableStats struct {
	// Query-type counters.
	Inserts      int
	Updates      int
	Deletes      int
	Selects      int
	Aggregations int

	// Per-attribute counters, all of one length: grown to the highest
	// column counted so far.
	AttrUpdates   []int // column assigned by an UPDATE
	AttrAggs      []int // column aggregated
	AttrGroupBys  []int // column grouped by
	AttrOLAPPreds []int // column referenced by an aggregation query's predicate

	// Update key-range tracking on the table's first PK (or predicate)
	// column, used to locate the hot tuple region for horizontal
	// partitioning.
	UpdateRangeCol   int
	UpdateRangeSeen  bool
	UpdateRangeLo    value.Value
	UpdateRangeHi    value.Value
	UpdateRangeCount int
}

// Clone deep-copies the statistics.
func (ts *TableStats) Clone() *TableStats {
	if ts == nil {
		return nil
	}
	cp := *ts
	cp.AttrUpdates = slices.Clone(ts.AttrUpdates)
	cp.AttrAggs = slices.Clone(ts.AttrAggs)
	cp.AttrGroupBys = slices.Clone(ts.AttrGroupBys)
	cp.AttrOLAPPreds = slices.Clone(ts.AttrOLAPPreds)
	return &cp
}

// Merge folds another table's statistics into ts (used when rolling
// epoch buckets are combined into a window snapshot).
func (ts *TableStats) Merge(o *TableStats) {
	if o == nil {
		return
	}
	ts.Inserts += o.Inserts
	ts.Updates += o.Updates
	ts.Deletes += o.Deletes
	ts.Selects += o.Selects
	ts.Aggregations += o.Aggregations
	ts.ensureCols(len(o.AttrUpdates))
	addInto := func(dst, src []int) {
		for i, v := range src {
			dst[i] += v
		}
	}
	addInto(ts.AttrUpdates, o.AttrUpdates)
	addInto(ts.AttrAggs, o.AttrAggs)
	addInto(ts.AttrGroupBys, o.AttrGroupBys)
	addInto(ts.AttrOLAPPreds, o.AttrOLAPPreds)
	// Update-range tracking merges only when both sides watched the same
	// column (or ts never chose one).
	if o.UpdateRangeSeen {
		switch {
		case !ts.UpdateRangeSeen && (ts.UpdateRangeCol < 0 || ts.UpdateRangeCol == o.UpdateRangeCol):
			ts.UpdateRangeCol = o.UpdateRangeCol
			ts.UpdateRangeSeen = true
			ts.UpdateRangeLo, ts.UpdateRangeHi = o.UpdateRangeLo, o.UpdateRangeHi
			ts.UpdateRangeCount += o.UpdateRangeCount
		case ts.UpdateRangeSeen && ts.UpdateRangeCol == o.UpdateRangeCol:
			if value.Less(o.UpdateRangeLo, ts.UpdateRangeLo) {
				ts.UpdateRangeLo = o.UpdateRangeLo
			}
			if value.Less(ts.UpdateRangeHi, o.UpdateRangeHi) {
				ts.UpdateRangeHi = o.UpdateRangeHi
			}
			ts.UpdateRangeCount += o.UpdateRangeCount
		}
	}
}

func (ts *TableStats) ensureCols(n int) {
	if len(ts.AttrUpdates) >= n {
		return
	}
	grow := func(s []int) []int {
		ns := make([]int, n)
		copy(ns, s)
		return ns
	}
	ts.AttrUpdates = grow(ts.AttrUpdates)
	ts.AttrAggs = grow(ts.AttrAggs)
	ts.AttrGroupBys = grow(ts.AttrGroupBys)
	ts.AttrOLAPPreds = grow(ts.AttrOLAPPreds)
}

// TotalQueries returns all recorded statements against the table.
func (ts *TableStats) TotalQueries() int {
	return ts.Inserts + ts.Updates + ts.Deletes + ts.Selects + ts.Aggregations
}

// InsertFraction returns the fraction of inserts among the table's
// statements — the paper's first horizontal-partitioning signal.
func (ts *TableStats) InsertFraction() float64 {
	tot := ts.TotalQueries()
	if tot == 0 {
		return 0
	}
	return float64(ts.Inserts) / float64(tot)
}

// Recorder collects extended workload statistics per table. It is not
// safe for concurrent use: the monitor serialises its epochs' recorders
// under its own lock, and offline replay runs on one goroutine.
type Recorder struct {
	tables map[string]*TableStats
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{tables: make(map[string]*TableStats)}
}

func (r *Recorder) table(name string) *TableStats {
	k := strings.ToLower(name)
	ts, ok := r.tables[k]
	if !ok {
		ts = &TableStats{UpdateRangeCol: -1}
		r.tables[k] = ts
	}
	return ts
}

// forget drops a table's counters.
func (r *Recorder) forget(name string) { delete(r.tables, strings.ToLower(name)) }

// Observe records one executed query.
func (r *Recorder) Observe(q *query.Query) {
	ts := r.table(q.Table)
	switch q.Kind {
	case query.Insert:
		ts.Inserts++
	case query.Update:
		ts.Updates++
		for c := range q.Set {
			ts.ensureCols(c + 1)
			ts.AttrUpdates[c]++
		}
		trackUpdateRange(ts, q)
	case query.Delete:
		ts.Deletes++
	case query.Select:
		ts.Selects++
	case query.Aggregate:
		ts.Aggregations++
		for _, s := range q.Aggs {
			if s.Col >= 0 {
				ts.ensureCols(s.Col + 1)
				ts.AttrAggs[s.Col]++
			}
		}
		for _, c := range q.GroupBy {
			ts.ensureCols(c + 1)
			ts.AttrGroupBys[c]++
		}
		for _, c := range expr.ColumnSet(q.Pred) {
			ts.ensureCols(c + 1)
			ts.AttrOLAPPreds[c]++
		}
	}
}

// trackUpdateRange widens the observed update key range. The range column
// is the first predicate column seen carrying a range; once chosen it
// stays fixed so ranges accumulate consistently.
func trackUpdateRange(ts *TableStats, q *query.Query) {
	col := ts.UpdateRangeCol
	if col < 0 {
		for _, c := range expr.ColumnSet(q.Pred) {
			if _, ok := expr.RangeOn(q.Pred, c); ok {
				col = c
				break
			}
		}
		if col < 0 {
			return
		}
		ts.UpdateRangeCol = col
	}
	rg, ok := expr.RangeOn(q.Pred, col)
	if !ok || rg.Lo == nil || rg.Hi == nil {
		return
	}
	ts.UpdateRangeCount++
	if !ts.UpdateRangeSeen {
		ts.UpdateRangeLo, ts.UpdateRangeHi = *rg.Lo, *rg.Hi
		ts.UpdateRangeSeen = true
		return
	}
	if value.Less(*rg.Lo, ts.UpdateRangeLo) {
		ts.UpdateRangeLo = *rg.Lo
	}
	if value.Less(ts.UpdateRangeHi, *rg.Hi) {
		ts.UpdateRangeHi = *rg.Hi
	}
}

// Table returns a copy of the recorded statistics for a table (nil if
// never seen), so callers may keep or modify it without touching the
// recorder.
func (r *Recorder) Table(name string) *TableStats {
	return r.tables[strings.ToLower(name)].Clone()
}

// Merge folds another recorder's statistics into r.
func (r *Recorder) Merge(o *Recorder) {
	if o == nil || o == r {
		return
	}
	for k, ts := range o.tables {
		if mine, ok := r.tables[k]; ok {
			mine.Merge(ts)
		} else {
			r.tables[k] = ts.Clone()
		}
	}
}

// Tables returns the sorted names of observed tables.
func (r *Recorder) Tables() []string {
	out := make([]string, 0, len(r.tables))
	for k := range r.tables {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
