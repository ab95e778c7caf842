package monitor

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hybridstore/internal/query"
	"hybridstore/internal/stats"
)

// PartitionWindow is the per-partition operation attribution of one
// horizontally partitioned table over the window.
type PartitionWindow struct {
	// HotOps/ColdOps count operations confined to one side by the split
	// predicate; BothOps touched (or could touch) both partitions.
	HotOps, ColdOps, BothOps int
}

// TableWindow is the rolling feature vector of one table — the same
// features the cost model consumes, refreshed live.
type TableWindow struct {
	Name string

	// Ops is the merged extended-statistics record over the window
	// (operation mix, per-attribute update/aggregation/predicate
	// counters, hot-range tracking).
	Ops *stats.TableStats

	// Rows and DeltaRows are the live storage counts at snapshot time.
	Rows      int
	DeltaRows int

	// OLAPFraction is the share of aggregation queries in the window.
	OLAPFraction float64
	// AvgSelectivity is the mean estimated selectivity of observed
	// predicates (1 when no predicate was ever estimated).
	AvgSelectivity float64
	// TouchedCols lists the columns referenced by any observed query.
	TouchedCols []int

	// Partitions is set for horizontally partitioned tables.
	Partitions *PartitionWindow
}

// String renders the window compactly for shell display.
func (tw TableWindow) String() string {
	o := tw.Ops
	s := fmt.Sprintf("%s: %d ops (ins %d, upd %d, del %d, sel %d, agg %d), olap=%.0f%%, sel~%.3f, rows=%d, delta=%d",
		tw.Name, o.TotalQueries(), o.Inserts, o.Updates, o.Deletes,
		o.PointSelects+o.RangeSelects, o.Aggregations,
		tw.OLAPFraction*100, tw.AvgSelectivity, tw.Rows, tw.DeltaRows)
	if p := tw.Partitions; p != nil {
		s += fmt.Sprintf(", hot/cold/both=%d/%d/%d", p.HotOps, p.ColdOps, p.BothOps)
	}
	return s
}

// SessionWindow is one session's (or network client's) share of the
// window — the multi-tenant attribution the network server feeds the
// advisor.
type SessionWindow struct {
	Name    string
	Queries int
	OLAP    int
	DML     int
	// Commits/Aborts count the session's explicit transaction
	// completions (BEGIN…COMMIT/ROLLBACK) in the window.
	Commits  int
	Aborts   int
	Duration time.Duration
	// Tables lists the tables the session touched, sorted by name.
	Tables []string
}

// String renders the session window compactly for shell display.
func (sw SessionWindow) String() string {
	s := fmt.Sprintf("%s: %d ops (olap %d, dml %d), %v total, tables [%s]",
		sw.Name, sw.Queries, sw.OLAP, sw.DML, sw.Duration, strings.Join(sw.Tables, " "))
	if sw.Commits > 0 || sw.Aborts > 0 {
		s += fmt.Sprintf(", txns %d/%d commit/abort", sw.Commits, sw.Aborts)
	}
	return s
}

// Snapshot is a point-in-time view of the rolling window: the advisor
// consumes it in place of a parsed workload file.
type Snapshot struct {
	// Queries is the retained workload sample across all epochs.
	Queries *query.Workload
	// Recorder is the merged extended-statistics recorder; it is a
	// private copy, safe to read without synchronization.
	Recorder *stats.Recorder
	// Tables holds the per-table feature windows, sorted by name.
	Tables []TableWindow
	// Sessions holds the per-session attribution, sorted by name
	// (only statements executed under engine.WithSession appear).
	Sessions []SessionWindow
	// Seen is the total number of queries observed since the monitor
	// started; WindowSeen counts only those still inside the window.
	Seen, WindowSeen int
}

// Table returns the window for a table (zero window if never observed).
func (s *Snapshot) Table(name string) (TableWindow, bool) {
	k := strings.ToLower(name)
	for _, tw := range s.Tables {
		if tw.Name == k {
			return tw, true
		}
	}
	return TableWindow{}, false
}

// Snapshot merges the window's epochs into a consistent point-in-time
// view. Storage counts (rows, delta size) are read from the live engine.
func (m *Monitor) Snapshot() *Snapshot {
	m.mu.Lock()
	merged := stats.NewRecorder()
	w := &query.Workload{}
	selSum := map[string]float64{}
	selCnt := map[string]int{}
	parts := map[string]*PartitionWindow{}
	sessions := map[string]*SessionWindow{}
	sessTables := map[string]map[string]int{}
	windowSeen := 0
	for _, ep := range m.ring {
		if ep == nil {
			continue
		}
		merged.Merge(ep.rec)
		w.Queries = append(w.Queries, ep.sample...)
		windowSeen += ep.seen
		for k, v := range ep.selSum {
			selSum[k] += v
		}
		for k, v := range ep.selCnt {
			selCnt[k] += v
		}
		for k, pc := range ep.parts {
			pw := parts[k]
			if pw == nil {
				pw = &PartitionWindow{}
				parts[k] = pw
			}
			pw.HotOps += pc.Hot
			pw.ColdOps += pc.Cold
			pw.BothOps += pc.Both
		}
		for name, sc := range ep.sessions {
			sw := sessions[name]
			if sw == nil {
				sw = &SessionWindow{Name: name}
				sessions[name] = sw
				sessTables[name] = map[string]int{}
			}
			sw.Queries += sc.Queries
			sw.OLAP += sc.OLAP
			sw.DML += sc.DML
			sw.Commits += sc.Commits
			sw.Aborts += sc.Aborts
			sw.Duration += sc.Duration
			for t, n := range sc.Tables {
				sessTables[name][t] += n
			}
		}
	}
	seen := m.seen
	m.mu.Unlock()

	snap := &Snapshot{Queries: w, Recorder: merged, Seen: seen, WindowSeen: windowSeen}
	for _, name := range merged.Tables() {
		ts := merged.Table(name)
		if ts == nil {
			continue
		}
		tw := TableWindow{Name: name, Ops: ts, AvgSelectivity: 1, Partitions: parts[name]}
		if tot := ts.TotalQueries(); tot > 0 {
			tw.OLAPFraction = float64(ts.Aggregations) / float64(tot)
		}
		if n := selCnt[name]; n > 0 {
			tw.AvgSelectivity = selSum[name] / float64(n)
		}
		for c, n := range ts.AttrPreds {
			if n > 0 || ts.AttrUpdates[c] > 0 || ts.AttrAggs[c] > 0 || ts.AttrGroupBys[c] > 0 {
				tw.TouchedCols = append(tw.TouchedCols, c)
			}
		}
		sort.Ints(tw.TouchedCols)
		if rows, err := m.db.Rows(name); err == nil {
			tw.Rows = rows
		}
		if delta, err := m.db.DeltaRows(name); err == nil {
			tw.DeltaRows = delta
		}
		snap.Tables = append(snap.Tables, tw)
	}
	sort.Slice(snap.Tables, func(i, j int) bool { return snap.Tables[i].Name < snap.Tables[j].Name })
	for name, sw := range sessions {
		for t := range sessTables[name] {
			sw.Tables = append(sw.Tables, t)
		}
		sort.Strings(sw.Tables)
		snap.Sessions = append(snap.Sessions, *sw)
	}
	sort.Slice(snap.Sessions, func(i, j int) bool { return snap.Sessions[i].Name < snap.Sessions[j].Name })
	return snap
}
