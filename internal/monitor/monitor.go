// Package monitor implements the live workload monitoring half of the
// online advisor (§4 of the paper): a Monitor attaches to the engine as
// its one Observer, maintains rolling per-table — and, for
// horizontally partitioned tables, per-partition — workload statistics
// over a ring of epoch buckets, and produces point-in-time Snapshots
// carrying exactly the features the cost model consumes (operation mix,
// touched columns, predicate selectivities, row and delta-fragment
// counts) plus a bounded sample of the observed queries. The advisor's
// RecommendSnapshot entry point accepts these snapshots in place of
// parsed workload files; internal/migrate turns the resulting
// recommendations into background store migrations.
//
// The ring of epochs is what makes the statistics *rolling*: when the
// workload mix shifts, rotated-out epochs age the old mix out of the
// window instead of letting a long OLAP history forever outvote a new
// OLTP phase.
package monitor

import (
	"strings"
	"sync"
	"time"

	"hybridstore/internal/engine"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/stats"
	"hybridstore/internal/value"
)

// Config tunes the monitor's rolling window.
type Config struct {
	// Epochs is the number of buckets in the rolling window ring.
	Epochs int
	// RotateEvery rotates to a fresh bucket after this many observed
	// queries (0 keeps a single growing bucket until Rotate is called).
	RotateEvery int
	// SampleCap bounds the per-epoch query sample retained as the
	// representative workload.
	SampleCap int
}

// DefaultConfig returns the standard window shape: six buckets of 2000
// queries each, sampling up to 512 queries per bucket.
func DefaultConfig() Config {
	return Config{Epochs: 6, RotateEvery: 2000, SampleCap: 512}
}

// partCounts attributes operations of a horizontally partitioned table to
// its hot/cold sides by evaluating the query predicate's range on the
// split column — the same routing the engine performs.
type partCounts struct {
	Hot, Cold, Both int
}

// sessionCounts attributes one session's (or client's) operations within
// an epoch, so the advisor sees which tenants drive which mix.
type sessionCounts struct {
	Queries  int
	OLAP     int
	DML      int
	Commits  int
	Aborts   int
	Duration time.Duration
	Tables   map[string]int
}

// epoch is one bucket of the rolling window.
type epoch struct {
	rec    *stats.Recorder
	sample []*query.Query
	seen   int
	// selSum/selCnt accumulate estimated predicate selectivities per table.
	selSum map[string]float64
	selCnt map[string]int
	parts  map[string]*partCounts
	// sessions attributes the epoch's operations per session label
	// (statements executed without a session tag are not attributed).
	sessions map[string]*sessionCounts
}

func newEpoch() *epoch {
	return &epoch{
		rec:      stats.NewRecorder(),
		selSum:   map[string]float64{},
		selCnt:   map[string]int{},
		parts:    map[string]*partCounts{},
		sessions: map[string]*sessionCounts{},
	}
}

// Monitor observes a live engine and maintains the rolling window. It is
// safe for concurrent use: ObserveSession is called from every query
// goroutine, and m.mu serialises every access to the epochs' recorders.
type Monitor struct {
	db  *engine.Database
	cfg Config

	mu   sync.Mutex
	ring []*epoch
	head int
	seen int

	// ingestRows counts rows applied through the bulk-ingest (COPY) fast
	// path per table, cumulatively. Consumers (the migrate manager's
	// adaptive compaction cadence) diff successive readings to get the
	// delta growth rate; keeping raw totals here means no reader's
	// window shape is baked into the monitor.
	ingestRows map[string]int64
}

var _ engine.Observer = (*Monitor)(nil)

// New attaches a monitor to a database as its observer.
func New(db *engine.Database, cfg Config) *Monitor {
	if cfg.Epochs <= 0 {
		cfg.Epochs = DefaultConfig().Epochs
	}
	if cfg.SampleCap <= 0 {
		cfg.SampleCap = DefaultConfig().SampleCap
	}
	m := &Monitor{db: db, cfg: cfg, ring: make([]*epoch, cfg.Epochs), ingestRows: map[string]int64{}}
	m.ring[0] = newEpoch()
	db.SetObserver(m)
	return m
}

// sampleTrimRows bounds the insert payload retained in the workload
// sample: the cost model only consumes len(q.Rows), so bulk-insert row
// values would be pinned for the whole window as dead weight.
const sampleTrimRows = 64

// sampleQuery returns the query as retained in the window sample —
// verbatim, except that large insert batches keep their row count but
// drop the row values.
func sampleQuery(q *query.Query) *query.Query {
	if q.Kind != query.Insert || len(q.Rows) <= sampleTrimRows {
		return q
	}
	cp := *q
	cp.Rows = make([][]value.Value, len(q.Rows))
	return &cp
}

// ObserveTxn implements engine.Observer: explicit transaction
// completions are attributed to their session, so the window shows
// which tenants commit and which churn through aborts.
func (m *Monitor) ObserveTxn(session string, committed bool) {
	if session == "" {
		return
	}
	m.mu.Lock()
	ep := m.ring[m.head]
	sc := ep.sessions[session]
	if sc == nil {
		sc = &sessionCounts{Tables: map[string]int{}}
		ep.sessions[session] = sc
	}
	if committed {
		sc.Commits++
	} else {
		sc.Aborts++
	}
	m.mu.Unlock()
}

// ObserveSession implements engine.Observer: the statement is folded
// into the window and attributed to the given session label (empty =
// unattributed).
func (m *Monitor) ObserveSession(session string, q *query.Query, d time.Duration) {
	m.mu.Lock()
	ep := m.ring[m.head]
	ep.rec.Observe(q)
	ep.seen++
	m.seen++
	if len(ep.sample) < m.cfg.SampleCap {
		ep.sample = append(ep.sample, sampleQuery(q))
	} else {
		// Deterministic stride replacement keeps the sample representative
		// without unbounded memory.
		ep.sample[ep.seen%m.cfg.SampleCap] = sampleQuery(q)
	}
	m.observeExtrasLocked(ep, q)
	if session != "" {
		sc := ep.sessions[session]
		if sc == nil {
			sc = &sessionCounts{Tables: map[string]int{}}
			ep.sessions[session] = sc
		}
		sc.Queries++
		sc.Duration += d
		if q.IsOLAP() {
			sc.OLAP++
		}
		if q.Kind == query.Insert || q.Kind == query.Update || q.Kind == query.Delete {
			sc.DML++
		}
		for _, t := range q.Tables() {
			sc.Tables[strings.ToLower(t)]++
		}
	}
	if m.cfg.RotateEvery > 0 && ep.seen >= m.cfg.RotateEvery {
		m.rotateLocked()
	}
	m.mu.Unlock()
}

// observeExtrasLocked records the per-table selectivity estimate and the
// per-partition attribution for horizontally partitioned tables.
func (m *Monitor) observeExtrasLocked(ep *epoch, q *query.Query) {
	key := strings.ToLower(q.Table)
	entry := m.db.Catalog().Table(key)
	if entry == nil {
		return
	}
	if q.Pred != nil && entry.Stats != nil {
		ep.selSum[key] += expr.EstimateSelectivity(q.Pred, entry.Stats)
		ep.selCnt[key]++
	}
	spec := entry.Partitioning
	if spec == nil || spec.Horizontal == nil {
		return
	}
	pc := ep.parts[key]
	if pc == nil {
		pc = &partCounts{}
		ep.parts[key] = pc
	}
	hot, cold := routeSides(q, spec.Horizontal.SplitCol, spec.Horizontal.SplitVal)
	switch {
	case hot && cold:
		pc.Both++
	case hot:
		pc.Hot++
	case cold:
		pc.Cold++
	}
}

// routeSides mirrors the engine's horizontal routing: which partitions can
// the query touch?
func routeSides(q *query.Query, splitCol int, splitVal value.Value) (hot, cold bool) {
	if q.Kind == query.Insert {
		for _, row := range q.Rows {
			if splitCol < len(row) && !row[splitCol].IsNull() && value.Compare(row[splitCol], splitVal) >= 0 {
				hot = true
			} else {
				cold = true
			}
		}
		return
	}
	hot, cold = true, true
	rg, ok := expr.RangeOn(q.Pred, splitCol)
	if !ok {
		return
	}
	if rg.Hi != nil && value.Compare(*rg.Hi, splitVal) < 0 {
		hot = false
	}
	if rg.Lo != nil && value.Compare(*rg.Lo, splitVal) >= 0 {
		cold = false
	}
	return
}

// Rotate manually advances the window to a fresh epoch, dropping the
// oldest bucket once the ring is full.
func (m *Monitor) Rotate() {
	m.mu.Lock()
	m.rotateLocked()
	m.mu.Unlock()
}

func (m *Monitor) rotateLocked() {
	m.head = (m.head + 1) % len(m.ring)
	m.ring[m.head] = newEpoch()
}

// AvgSelectivity returns the mean estimated predicate selectivity of the
// observed window's reads against table, and whether any were observed.
// It implements engine.Observer: the planner consults it for
// tables without collected statistics, closing the loop between the
// live workload window and plan costing. Lock order is safe — nothing
// holding m.mu acquires the engine lock.
func (m *Monitor) AvgSelectivity(table string) (float64, bool) {
	key := strings.ToLower(table)
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum float64
	var cnt int
	for _, ep := range m.ring {
		if ep == nil {
			continue
		}
		sum += ep.selSum[key]
		cnt += ep.selCnt[key]
	}
	if cnt == 0 {
		return 0, false
	}
	return sum / float64(cnt), true
}

// ObserveIngest implements engine.Observer: every bulk-ingest
// (COPY) batch reports its row count here. Ingest rows land directly in
// a table's write-optimized delta, so their rate is the signal the
// adaptive delta-merge cadence runs on.
func (m *Monitor) ObserveIngest(table string, rows int) {
	m.mu.Lock()
	m.ingestRows[strings.ToLower(table)] += int64(rows)
	m.mu.Unlock()
}

// IngestRows returns a copy of the cumulative per-table bulk-ingest row
// counts. Diff two readings to get a growth rate.
func (m *Monitor) IngestRows() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.ingestRows))
	for t, n := range m.ingestRows {
		out[t] = n
	}
	return out
}

// Seen returns the total number of observed queries.
func (m *Monitor) Seen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seen
}

// Reset clears the whole window.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ring = make([]*epoch, m.cfg.Epochs)
	m.head = 0
	m.ring[0] = newEpoch()
	m.seen = 0
	m.ingestRows = map[string]int64{}
}
