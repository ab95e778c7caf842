package catalog

import (
	"fmt"
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
// produce identical statistics.
type StatsCollector struct {
	types       []value.Type
	rows        int               // rows Add saw
	runs        []bool            // column is fed by AddRun; Add leaves it alone
	runRows     []int             // rows AddRun saw
	runDistinct []int             // non-NULL runs AddRun saw
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
	if !v.IsNull() {
		sc.runDistinct[col]++
		sc.observe(col, v, rows)
	}
}

// observe folds rows occurrences of the non-NULL v into column i's value
// range and VARCHAR length.
func (sc *StatsCollector) observe(i int, v value.Value, rows int) {
	if !sc.hasRange[i] {
		sc.minV[i], sc.maxV[i] = v, v
		sc.hasRange[i] = true
	} else {
		if value.Less(v, sc.minV[i]) {
			sc.minV[i] = v
		}
		if value.Less(sc.maxV[i], v) {
			sc.maxV[i] = v
		}
	}
	if sc.types[i] == value.Varchar {
		sc.varcharLen[i] += rows * len(v.Varchar())
		sc.varcharCnt[i] += rows
	}
}

// Finish produces the TableStats.
func (sc *StatsCollector) Finish() *TableStats {
	n := len(sc.types)
	rows := sc.rows
	for _, r := range sc.runRows {
		rows = max(rows, r) // no row came through Add: every column counted them
	}
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
		d := sc.seen[i].Len() + sc.runDistinct[i]
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
