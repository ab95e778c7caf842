package catalog

import (
	"fmt"
	"slices"
	"strings"

	"hybridstore/internal/compress"
	"hybridstore/internal/value"
)

// TableStats holds the data characteristics the paper's cost model
// consumes: cardinality, per-column distinct counts (which determine
// dictionary-compression rates), value ranges for selectivity estimation,
// and the resulting compression rates. These are "basic table statistics"
// in offline mode and are refreshed from live data in online mode.
type TableStats struct {
	NumRows     int
	DistinctN   []int // per column
	MinV, MaxV  []value.Value
	HasRange    []bool
	Compression []float64 // per column, the rate the column store achieves
	AvgVarchar  []int     // average varchar payload length per column
}

// Rows implements expr.ColumnStats.
func (s *TableStats) Rows() int { return s.NumRows }

// Distinct implements expr.ColumnStats. The stored estimate is clamped
// to the row count: a column cannot hold more distinct values than rows,
// and an overcounted NDV (stale stats, extrapolation overshoot, the
// column store's approximate dictionary sum) would drive 1/NDV equality
// selectivities — and with them group-by/join cardinalities — toward
// zero, mis-pricing build sides. 0 still means "unknown" and keeps the
// default-selectivity fallbacks.
func (s *TableStats) Distinct(col int) int {
	if s == nil || col < 0 || col >= len(s.DistinctN) {
		return 0
	}
	d := s.DistinctN[col]
	if d > s.NumRows {
		d = s.NumRows
	}
	return d
}

// MinMax implements expr.ColumnStats.
func (s *TableStats) MinMax(col int) (value.Value, value.Value, bool) {
	if s == nil || col < 0 || col >= len(s.HasRange) || !s.HasRange[col] {
		return value.Value{}, value.Value{}, false
	}
	return s.MinV[col], s.MaxV[col], true
}

// AvgCompression returns the mean compression rate over all columns — the
// table-level rate used by f_compression when a query touches the whole
// table.
func (s *TableStats) AvgCompression() float64 {
	if s == nil || len(s.Compression) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range s.Compression {
		sum += r
	}
	return sum / float64(len(s.Compression))
}

// CompressionOf returns the compression rate of one column, falling back
// to the table average when unknown.
func (s *TableStats) CompressionOf(col int) float64 {
	if s == nil {
		return 0
	}
	if col >= 0 && col < len(s.Compression) {
		return s.Compression[col]
	}
	return s.AvgCompression()
}

// String summarizes the stats.
func (s *TableStats) String() string {
	if s == nil {
		return "<no stats>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "rows=%d avg_compression=%.2f", s.NumRows, s.AvgCompression())
	return b.String()
}

// StatsCollector builds TableStats from a table's data. It has two feeds,
// per column one or the other: Add takes whole rows — distinct counting is
// exact up to distinctCap values per column and linearly extrapolated
// beyond it, so collection stays O(rows) with bounded memory on large
// tables — and AddRun takes a dictionary-encoded column's distinct values
// with their row counts, exact at any cardinality. Below the cap the two
// produce identical statistics. Part and Merge join the collectors of two
// disjoint parts of a table, each fed as its layout allows.
type StatsCollector struct {
	types       []value.Type
	rows        int    // rows Add saw
	runs        []bool // column is fed by AddRun; Add leaves it alone
	runRows     []int  // rows AddRun saw
	runDistinct []int  // non-NULL runs AddRun saw
	keep        bool   // keep the runs' values in runVals (see Part)
	runVals     [][]value.Value
	seen        []*compress.UDict // distinct values Add saw, until capped
	capped      []bool
	seenAtCap   []int // rows scanned when the cap was passed
	minV, maxV  []value.Value
	hasRange    []bool
	varcharLen  []int
	varcharCnt  []int
	distinctCap int
}

// DefaultDistinctCap bounds per-column exact distinct tracking.
const DefaultDistinctCap = 1 << 16

// NewStatsCollector creates a collector for columns of the given types.
func NewStatsCollector(types []value.Type) *StatsCollector {
	n := len(types)
	sc := &StatsCollector{
		types:       types,
		runs:        make([]bool, n),
		runRows:     make([]int, n),
		runDistinct: make([]int, n),
		runVals:     make([][]value.Value, n),
		seen:        make([]*compress.UDict, n),
		capped:      make([]bool, n),
		seenAtCap:   make([]int, n),
		minV:        make([]value.Value, n),
		maxV:        make([]value.Value, n),
		hasRange:    make([]bool, n),
		varcharLen:  make([]int, n),
		varcharCnt:  make([]int, n),
		distinctCap: DefaultDistinctCap,
	}
	for i, t := range types {
		sc.seen[i] = compress.NewUDict(t)
	}
	return sc
}

// Add folds one row into the statistics. Positions of columns fed by
// AddRun are not read.
func (sc *StatsCollector) Add(row []value.Value) {
	sc.rows++
	for i, v := range row {
		if v.IsNull() || sc.runs[i] {
			continue
		}
		if !sc.capped[i] {
			sc.seen[i].GetOrAdd(v)
			if sc.seen[i].Len() > sc.distinctCap {
				sc.capped[i] = true
				sc.seenAtCap[i] = sc.rows
			}
		}
		sc.observe(i, v, 1)
	}
}

// AddRun folds in the rows of column col that hold v, NULL included, all
// at once. The caller passes every distinct value of the column in exactly
// one run — a column store reads them off its dictionaries — so the
// distinct count is the number of runs.
func (sc *StatsCollector) AddRun(col int, v value.Value, rows int) {
	sc.runs[col] = true
	sc.runRows[col] += rows
	switch {
	case v.IsNull():
		return
	case sc.keep:
		sc.runVals[col] = append(sc.runVals[col], v)
	default:
		sc.runDistinct[col]++
	}
	sc.observe(col, v, rows)
}

// observe folds rows occurrences of the non-NULL v into column i's value
// range and VARCHAR length.
func (sc *StatsCollector) observe(i int, v value.Value, rows int) {
	sc.widen(i, v, v)
	if sc.types[i] == value.Varchar {
		sc.varcharLen[i] += rows * len(v.Varchar())
		sc.varcharCnt[i] += rows
	}
}

// widen extends column i's value range to [lo, hi].
func (sc *StatsCollector) widen(i int, lo, hi value.Value) {
	if !sc.hasRange[i] {
		sc.minV[i], sc.maxV[i] = lo, hi
		sc.hasRange[i] = true
		return
	}
	if value.Less(lo, sc.minV[i]) {
		sc.minV[i] = lo
	}
	if value.Less(sc.maxV[i], hi) {
		sc.maxV[i] = hi
	}
}

// numRows is how many rows the feeds saw: Add's, or — when no row came
// through Add — those every column's runs counted.
func (sc *StatsCollector) numRows() int {
	rows := sc.rows
	for _, r := range sc.runRows {
		rows = max(rows, r)
	}
	return rows
}

// Part returns a collector for rows disjoint from those sc is about to be
// fed — another partition of the table — to fold back with Merge. Both
// then keep the values their runs feed, which Merge needs to count a
// value both saw once.
func (sc *StatsCollector) Part() *StatsCollector {
	p := NewStatsCollector(sc.types)
	sc.keep, p.keep = true, true
	return p
}

// Merge folds in o, a collector from Part. A value both hold counts once,
// and a column past the distinct cap on either side extrapolates from the
// rows seen when the cap was passed. Merge is the collector's last feed.
func (sc *StatsCollector) Merge(o *StatsCollector) {
	rows := sc.numRows()
	for i := range sc.types {
		for _, v := range slices.Concat(sc.runVals[i], o.runVals[i]) {
			sc.seen[i].GetOrAdd(v)
		}
		for code := 0; code < o.seen[i].Len(); code++ {
			sc.seen[i].GetOrAdd(o.seen[i].Value(uint32(code)))
		}
		sc.runVals[i] = nil
		if o.capped[i] && !sc.capped[i] {
			sc.capped[i], sc.seenAtCap[i] = true, rows+o.seenAtCap[i]
		}
		if o.hasRange[i] {
			sc.widen(i, o.minV[i], o.maxV[i])
		}
		sc.varcharLen[i] += o.varcharLen[i]
		sc.varcharCnt[i] += o.varcharCnt[i]
		sc.runRows[i] = 0
	}
	sc.rows = rows + o.numRows()
}

// Finish produces the TableStats.
func (sc *StatsCollector) Finish() *TableStats {
	n := len(sc.types)
	rows := sc.numRows()
	st := &TableStats{
		NumRows:     rows,
		DistinctN:   make([]int, n),
		MinV:        sc.minV,
		MaxV:        sc.maxV,
		HasRange:    sc.hasRange,
		Compression: make([]float64, n),
		AvgVarchar:  make([]int, n),
	}
	for i := 0; i < n; i++ {
		d := sc.seen[i].Len() + sc.runDistinct[i] + len(sc.runVals[i])
		if sc.capped[i] {
			// Linear extrapolation: distinct values kept appearing at the
			// cap rate for the remaining rows (upper-bounded by row count).
			d = min(int(float64(d)*float64(rows)/float64(sc.seenAtCap[i])), rows)
		}
		st.DistinctN[i] = d
		if sc.varcharCnt[i] > 0 {
			st.AvgVarchar[i] = sc.varcharLen[i] / sc.varcharCnt[i]
		}
		st.Compression[i] = compress.ColumnRate(rows, d, sc.types[i], st.AvgVarchar[i])
	}
	return st
}
