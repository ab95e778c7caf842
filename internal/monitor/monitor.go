// Package monitor records the extended workload statistics of the
// paper's online mode (§4) — the one place the system keeps workload
// statistics. A Recorder holds per-table counters: the operation mix,
// the attributes each statement updates or analyses, and the key range
// updates concentrate on. Offline, the advisor replays a workload file
// through one. Online, a Monitor attaches to the engine as its Observer
// and keeps one Recorder plus a bounded query sample per epoch in a
// ring; a Snapshot merges the ring for advisor.RecommendSnapshot, and
// internal/migrate turns the recommendation into background migrations.
//
// The ring of epochs is what makes the statistics *rolling*: when the
// workload mix shifts, rotated-out epochs age the old mix out of the
// window instead of letting a long OLAP history forever outvote a new
// OLTP phase.
package monitor

import (
	"slices"
	"strings"
	"sync"

	"hybridstore/internal/engine"
	"hybridstore/internal/query"
	"hybridstore/internal/value"
)

// Config tunes the monitor's rolling window.
type Config struct {
	// Epochs is the number of buckets in the rolling window ring.
	Epochs int
	// RotateEvery rotates to a fresh bucket after this many observed
	// queries (0 keeps a single growing bucket).
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

// epoch is one bucket of the rolling window.
type epoch struct {
	rec    *Recorder
	sample []*query.Query
	seen   int
}

// Monitor observes a live engine and maintains the rolling window. It is
// safe for concurrent use: Observe is called from every query goroutine,
// and m.mu serialises every access to the epochs.
type Monitor struct {
	cfg Config

	mu   sync.Mutex
	ring []*epoch
	head int
	seen int
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
	m := &Monitor{cfg: cfg, ring: make([]*epoch, cfg.Epochs)}
	m.ring[0] = &epoch{rec: NewRecorder()}
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

// Observe implements engine.Observer: the statement is folded into the
// current epoch.
func (m *Monitor) Observe(q *query.Query) {
	m.mu.Lock()
	ep := m.ring[m.head]
	ep.rec.Observe(q)
	ep.seen++
	m.seen++
	if len(ep.sample) < m.cfg.SampleCap {
		ep.sample = append(ep.sample, sampleQuery(q))
	} else {
		// A full sample is a circular buffer: each epoch keeps its most
		// recent SampleCap statements.
		ep.sample[ep.seen%m.cfg.SampleCap] = sampleQuery(q)
	}
	if m.cfg.RotateEvery > 0 && ep.seen >= m.cfg.RotateEvery {
		m.head = (m.head + 1) % len(m.ring)
		m.ring[m.head] = &epoch{rec: NewRecorder()}
	}
	m.mu.Unlock()
}

// Dropped implements engine.Observer: the window forgets the table's
// counters and the sampled statements that read or write it, so a table
// created later under the name starts from no history.
func (m *Monitor) Dropped(table string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ep := range m.ring {
		if ep == nil {
			continue
		}
		ep.rec.forget(table)
		ep.sample = slices.DeleteFunc(ep.sample, func(q *query.Query) bool {
			return strings.EqualFold(q.Table, table) || q.Join != nil && strings.EqualFold(q.Join.Table, table)
		})
	}
}

// Seen returns the total number of observed queries.
func (m *Monitor) Seen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seen
}

// Snapshot is a point-in-time view of the rolling window: the advisor
// consumes it in place of a parsed workload file.
type Snapshot struct {
	// Queries is the retained workload sample across all epochs.
	Queries *query.Workload
	// Recorder is the merged window's statistics; it is a private copy,
	// safe to read without synchronization.
	Recorder *Recorder
	// Seen is the total number of queries observed since the monitor
	// started; WindowSeen counts only those still inside the window.
	Seen, WindowSeen int
}

// Snapshot merges the window's epochs into a consistent point-in-time
// view.
func (m *Monitor) Snapshot() *Snapshot {
	snap := &Snapshot{Queries: &query.Workload{}, Recorder: NewRecorder()}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ep := range m.ring {
		if ep == nil {
			continue
		}
		snap.Recorder.Merge(ep.rec)
		snap.Queries.Queries = append(snap.Queries.Queries, ep.sample...)
		snap.WindowSeen += ep.seen
	}
	snap.Seen = m.seen
	return snap
}
