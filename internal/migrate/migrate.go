// Package migrate turns live advisor recommendations into background
// store migrations: a Manager periodically snapshots the workload
// monitor, asks the advisor for a layout, and — when the predicted
// improvement clears a hysteresis threshold — executes the row↔column
// moves through the engine's non-blocking migration path
// (engine.MigrateLayout: build aside, replay the buffered write tail,
// swap atomically). It also watches column-store delta fragments and
// triggers Compact when they grow past a threshold, so merged
// read-optimized fragments keep the cost model's assumptions true under
// sustained writes.
//
// Hysteresis has two parts, both needed to keep a stable mix from
// oscillating between layouts: a minimum relative improvement of the
// recommended layout over the cost of staying put, and a per-table
// cooldown between migrations.
package migrate

import (
	"fmt"
	"sync"
	"time"

	"hybridstore/internal/advisor"
	"hybridstore/internal/catalog"
	"hybridstore/internal/engine"
	"hybridstore/internal/metrics"
	"hybridstore/internal/monitor"
)

// defaultHysteresis is the minimum relative predicted improvement (0.1 =
// the recommended layout must be ≥10% cheaper than staying put) before a
// migration is executed, unless Evaluate or AutoAdvise is given another.
const defaultHysteresis = 0.1

// Config tunes the manager.
type Config struct {
	// Cooldown is the minimum time between migrations of one table.
	Cooldown time.Duration
	// MinWindowQueries gates automatic evaluation until the rolling
	// window has seen at least this many queries.
	MinWindowQueries int
	// CompactDeltaRows triggers Compact on a table whose write-optimized
	// delta fragments exceed this many rows (0 disables the watcher).
	CompactDeltaRows int
	// CompactMinInterval floors the adaptive compaction cadence: under
	// heavy bulk ingest the manager checks deltas as often as this,
	// relaxing back toward the AutoAdvise interval when ingest is idle.
	// 0 disables adaptation (compaction checks at the AutoAdvise
	// interval only).
	CompactMinInterval time.Duration
}

// DefaultConfig returns the standard thresholds.
func DefaultConfig() Config {
	return Config{
		Cooldown:           30 * time.Second,
		MinWindowQueries:   100,
		CompactDeltaRows:   50000,
		CompactMinInterval: time.Second,
	}
}

// Delta-merge instruments: how often the background merge runs, how
// many delta rows it folded into read-optimized fragments, and the
// adaptive cadence it is currently running at.
var (
	mMergeTotal = metrics.Default().Counter("hs_delta_merge_total",
		"background delta merges (Compact) triggered")
	mMergeRows = metrics.Default().Counter("hs_delta_merge_rows_total",
		"delta rows folded into read-optimized fragments by background merges")
	mMergeInterval = metrics.Default().Gauge("hs_delta_merge_interval_ms",
		"current adaptive delta-merge check cadence in milliseconds")
	mIngestRate = metrics.Default().Gauge("hs_delta_merge_ingest_rows_per_sec",
		"bulk-ingest row rate the merge cadence last adapted to")
)

// Event records one manager action for auditing. Tests read the log
// through Events; a decision log of the advisor's choices builds on it.
type Event struct {
	Time   time.Time
	Table  string
	Action string // "migrate", "compact", "skip"
	Detail string
}

// Manager schedules background migrations from live recommendations.
type Manager struct {
	db  *engine.Database
	adv *advisor.Advisor
	mon *monitor.Monitor
	cfg Config

	mu       sync.Mutex
	lastMove map[string]time.Time
	events   []Event
	running  bool
	stopCh   chan struct{}
	wg       sync.WaitGroup
	now      func() time.Time // test hook

	// Adaptive-cadence state: the last db.IngestedRows reading and when
	// it was taken, so successive compactDelay calls can compute the bulk
	// ingest rate.
	lastIngest   int64
	lastIngestAt time.Time
}

// NewManager wires the manager to a database, advisor and monitor.
func NewManager(db *engine.Database, adv *advisor.Advisor, mon *monitor.Monitor, cfg Config) *Manager {
	return &Manager{
		db: db, adv: adv, mon: mon, cfg: cfg,
		lastMove: map[string]time.Time{},
		now:      time.Now,
	}
}

func (m *Manager) record(table, action, detail string) {
	m.mu.Lock()
	m.events = append(m.events, Event{Time: m.now(), Table: table, Action: action, Detail: detail})
	if len(m.events) > 256 {
		m.events = m.events[len(m.events)-256:]
	}
	m.mu.Unlock()
}

// Events returns a copy of the recent action log.
func (m *Manager) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// Advise snapshots the rolling workload window, refreshes the catalog
// statistics of the observed tables and computes a recommendation.
func (m *Manager) Advise() (*advisor.Recommendation, error) {
	rec, _, err := m.advise()
	return rec, err
}

func (m *Manager) advise() (*advisor.Recommendation, *monitor.Snapshot, error) {
	snap := m.mon.Snapshot()
	if snap.Queries.Len() == 0 {
		return nil, nil, fmt.Errorf("migrate: no observed workload yet")
	}
	for _, name := range snap.Recorder.Tables() {
		// Skip the full-scan refresh when the existing catalog statistics
		// are still close to the live row count — AutoAdvise ticks on
		// stable tables would otherwise rescan everything every interval.
		if e := m.db.Catalog().Table(name); e != nil && e.Stats != nil {
			n := e.Stats.NumRows
			if rows, err := m.db.Rows(name); err == nil && n > 0 && rows >= n-n/10 && rows <= n+n/10 {
				continue
			}
		}
		if _, err := m.db.CollectStats(name); err != nil {
			// A table may have been dropped while still in the window;
			// confine the failure to it instead of wedging the cycle.
			m.record(name, "skip", "stats: "+err.Error())
			continue
		}
	}
	rec, err := m.adv.RecommendSnapshot(snap, m.db.Catalog(), nil)
	if err != nil {
		return nil, nil, err
	}
	return rec, snap, nil
}

// pendingMoves lists the tables whose recommended placement differs from
// the catalog's current one.
func (m *Manager) pendingMoves(rec *advisor.Recommendation) []string {
	var out []string
	for t, store := range rec.Layout.Stores {
		e := m.db.Catalog().Table(t)
		if e == nil {
			continue
		}
		spec := rec.Layout.SpecFor(t)
		target := store
		if spec != nil {
			target = catalog.Partitioned
		}
		if e.Store != target || !e.Partitioning.Equal(spec) {
			out = append(out, t)
		}
	}
	return out
}

// migrate executes a recommendation's layout changes through the
// engine's background migration path, skipping a table moved within the
// cooldown. It blocks until the moves complete and returns the tables
// actually migrated. An administrator moves a table by hand with the ALTER
// TABLE statements of the recommendation's DDL, which no cooldown holds.
func (m *Manager) migrate(rec *advisor.Recommendation) ([]string, error) {
	var moved []string
	for _, t := range m.pendingMoves(rec) {
		m.mu.Lock()
		last, seen := m.lastMove[t]
		now := m.now()
		m.mu.Unlock()
		if seen && m.cfg.Cooldown > 0 && now.Sub(last) < m.cfg.Cooldown {
			m.record(t, "skip", "cooldown")
			continue
		}
		store := rec.Layout.Stores.StoreOf(t)
		spec := rec.Layout.SpecFor(t)
		if err := m.db.MigrateLayout(t, store, spec); err != nil {
			m.record(t, "skip", err.Error())
			return moved, fmt.Errorf("migrate: %s: %w", t, err)
		}
		m.mu.Lock()
		m.lastMove[t] = m.now()
		m.mu.Unlock()
		target := store.String()
		if spec != nil {
			target = spec.String()
		}
		m.record(t, "migrate", "-> "+target)
		moved = append(moved, t)
	}
	return moved, nil
}

// Evaluate runs one advisory cycle: snapshot, recommend, and migrate when
// the hysteresis test passes. It returns the migrated tables (nil when
// the recommendation was not worth applying). A negative hysteresis uses
// defaultHysteresis.
func (m *Manager) Evaluate(hysteresis float64) ([]string, error) {
	if hysteresis < 0 {
		hysteresis = defaultHysteresis
	}
	rec, snap, err := m.advise()
	if err != nil {
		return nil, err
	}
	if len(m.pendingMoves(rec)) == 0 {
		return nil, nil
	}
	// Hysteresis: the recommended layout must beat the cost of staying
	// put by the required margin, otherwise a near-tie would oscillate
	// the table back and forth as the sampled mix wobbles.
	current := advisor.CurrentLayout(snap, m.db.Catalog())
	info := advisor.InfoFromCatalog(m.db.Catalog())
	stayCost := m.adv.EstimateLayout(snap.Queries, info, current)
	if stayCost > 0 && rec.PartitionedCost >= stayCost*(1-hysteresis) {
		m.record("", "skip", fmt.Sprintf("improvement %.1f%% below hysteresis %.1f%%",
			(1-rec.PartitionedCost/stayCost)*100, hysteresis*100))
		return nil, nil
	}
	return m.migrate(rec)
}

// CompactCheck triggers Compact on every table whose delta fragments
// exceed the configured threshold, returning the compacted tables. It
// also folds and prunes the MVCC transaction overlay (Vacuum): the
// background maintenance tick doubles as version-chain garbage
// collection, bounding overlay growth under write-heavy transactional
// load even when no table crosses the compaction threshold.
func (m *Manager) CompactCheck() []string {
	m.db.Vacuum()
	if m.cfg.CompactDeltaRows <= 0 {
		return nil
	}
	var compacted []string
	for _, name := range m.db.Catalog().Names() {
		delta, err := m.db.DeltaRows(name)
		if err != nil || delta < m.cfg.CompactDeltaRows {
			continue
		}
		if err := m.db.Compact(name); err == nil {
			m.record(name, "compact", fmt.Sprintf("delta=%d rows", delta))
			mMergeTotal.Inc()
			mMergeRows.Add(int64(delta))
			compacted = append(compacted, name)
		}
	}
	return compacted
}

// compactDelay computes the next compaction-check delay from the bulk
// ingest rate observed since the previous call: the expected time for a
// delta to grow from empty to the merge threshold at the current rate,
// clamped between the configured floor and the AutoAdvise interval
// ceiling. Idle ingest relaxes to the ceiling; a firehose pins the
// cadence at the floor. The first call has no rate yet and returns the
// floor, so a firehose at start-up is checked after one floor interval,
// not a whole ceiling.
func (m *Manager) compactDelay(ceiling time.Duration) time.Duration {
	floor := m.cfg.CompactMinInterval
	delay := ceiling
	defer func() { mMergeInterval.Set(delay.Milliseconds()) }()
	if floor <= 0 || floor >= ceiling || m.cfg.CompactDeltaRows <= 0 {
		return delay
	}
	total := m.db.IngestedRows()
	now := m.now()
	m.mu.Lock()
	elapsed := now.Sub(m.lastIngestAt)
	first := m.lastIngestAt.IsZero()
	grew := total - m.lastIngest
	m.lastIngest = total
	m.lastIngestAt = now
	m.mu.Unlock()
	if first {
		delay = floor
	}
	if first || grew <= 0 || elapsed <= 0 {
		mIngestRate.Set(0)
		return delay
	}
	rate := float64(grew) / elapsed.Seconds()
	mIngestRate.Set(int64(rate))
	delay = time.Duration(float64(m.cfg.CompactDeltaRows) / rate * float64(time.Second))
	if delay < floor {
		delay = floor
	}
	if delay > ceiling {
		delay = ceiling
	}
	return delay
}

// AutoAdvise starts the background advisory loop: every interval it
// evaluates the workload — once the rolling window holds enough queries
// — with the given hysteresis (negative = defaultHysteresis). Compaction
// checks run on their own adaptive timer: between CompactMinInterval
// and the AutoAdvise interval, paced by the observed bulk-ingest rate
// (see compactDelay), so sustained COPY streams get their deltas merged
// long before the advisory tick would notice them. It returns an error
// if the loop is already running; Stop ends it.
func (m *Manager) AutoAdvise(interval time.Duration, hysteresis float64) error {
	if interval <= 0 {
		return fmt.Errorf("migrate: non-positive auto-advise interval %v", interval)
	}
	m.mu.Lock()
	if m.running {
		m.mu.Unlock()
		return fmt.Errorf("migrate: auto-advise already running")
	}
	m.running = true
	m.stopCh = make(chan struct{})
	stop := m.stopCh
	m.mu.Unlock()

	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		compact := time.NewTimer(m.compactDelay(interval))
		defer compact.Stop()
		for {
			select {
			case <-stop:
				return
			case <-compact.C:
				m.CompactCheck()
				compact.Reset(m.compactDelay(interval))
			case <-ticker.C:
				if m.mon.Seen() < m.cfg.MinWindowQueries {
					continue
				}
				m.Evaluate(hysteresis) //nolint:errcheck // advisory loop: failures surface via Events
			}
		}
	}()
	return nil
}

// Stop ends the AutoAdvise loop and waits for it to finish.
func (m *Manager) Stop() {
	m.mu.Lock()
	if !m.running {
		m.mu.Unlock()
		return
	}
	m.running = false
	close(m.stopCh)
	m.mu.Unlock()
	m.wg.Wait()
}
