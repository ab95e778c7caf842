package migrate

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridstore/internal/advisor"
	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/engine"
	"hybridstore/internal/monitor"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/server"
	"hybridstore/internal/sql"
	"hybridstore/internal/value"
	"hybridstore/internal/workload"
)

const tableRows = 20000

// newStack builds an engine with the standard experiment table in the
// given store, a monitor with a short rolling window, and a manager with
// test-friendly thresholds.
func newStack(t *testing.T, store catalog.StoreKind, cfg Config) (*engine.Database, *monitor.Monitor, *Manager, *workload.TableSpec) {
	t.Helper()
	db := engine.New()
	spec := workload.StandardTable("exp")
	if err := spec.Load(db, store, tableRows, 7); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact("exp"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CollectStats("exp"); err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(db, monitor.Config{Epochs: 3, RotateEvery: 200, SampleCap: 256})
	mgr := NewManager(db, advisor.New(costmodel.DefaultModel()), mon, cfg)
	return db, mon, mgr, spec
}

// exec runs every workload query through the engine so the monitor
// observes it.
func exec(t *testing.T, db *engine.Database, w *query.Workload) {
	t.Helper()
	for _, q := range w.Queries {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
}

// The mixes deliberately generate no inserts: the generator derives
// insert keys from TableRows, so two generated workloads would collide
// on primary keys (insert traffic is covered by the engine stress test
// and TestCompactCheck).
func oltpMix(queries int, seed int64) *query.Workload {
	return workload.GenMixed(workload.StandardTable("exp"), workload.MixConfig{
		Queries: queries, OLAPFraction: 0, TableRows: tableRows, Seed: seed,
		UpdateWeight: 1, PointSelectWeight: 1,
	})
}

func olapMix(queries int, seed int64) *query.Workload {
	return workload.GenMixed(workload.StandardTable("exp"), workload.MixConfig{
		Queries: queries, OLAPFraction: 0.5, TableRows: tableRows, Seed: seed,
		UpdateWeight: 1, PointSelectWeight: 1,
	})
}

func migrateEvents(m *Manager) int {
	n := 0
	for _, e := range m.Events() {
		if e.Action == "migrate" {
			n++
		}
	}
	return n
}

// TestShiftTriggersBackgroundMigration is the acceptance scenario: a
// table serving OLAP-heavy traffic in the column store sees its mix shift
// to OLTP-heavy; the evaluation cycle recommends the row store and
// executes the column->row migration in the background while concurrent
// queries keep running and stay correct.
func TestShiftTriggersBackgroundMigration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cooldown = 0
	cfg.MinWindowQueries = 0
	db, _, mgr, _ := newStack(t, catalog.ColumnStore, cfg)

	// Nothing observed yet: there is no workload to advise on.
	if _, err := mgr.Advise(); err == nil {
		t.Fatal("advising on an empty window should fail")
	}

	// Phase 1: OLAP-heavy — the advisor keeps the column store.
	exec(t, db, olapMix(400, 11))
	moved, err := mgr.Evaluate(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 0 {
		t.Fatalf("OLAP-heavy phase should not move the table, moved %v", moved)
	}
	if e := db.Catalog().Table("exp"); e.Store != catalog.ColumnStore {
		t.Fatalf("store after OLAP phase: %v", e.Store)
	}

	// Phase 2: the mix shifts to OLTP-heavy; the rolling window ages the
	// OLAP phase out entirely (3 epochs x 200 queries).
	exec(t, db, oltpMix(700, 13))

	// Concurrent read traffic during the evaluation + background move.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w := oltpMix(200, int64(100+r))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := w.Queries[i%len(w.Queries)]
				if q.Kind != query.Select {
					continue
				}
				if _, err := db.Exec(q); err != nil {
					t.Error(err)
					return
				}
				reads.Add(1)
			}
		}(r)
	}
	moved, err = mgr.Evaluate(0)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 1 || moved[0] != "exp" {
		t.Fatalf("OLTP shift should migrate exp, moved %v", moved)
	}
	e := db.Catalog().Table("exp")
	if e.Store == catalog.ColumnStore {
		t.Fatalf("store after OLTP shift is still the plain column store")
	}
	if reads.Load() == 0 {
		t.Error("no concurrent reads executed during the migration")
	}
	// No rows lost across the background move (inserts added some).
	n, err := db.Rows("exp")
	if err != nil {
		t.Fatal(err)
	}
	if n < tableRows {
		t.Errorf("rows after migration = %d, want >= %d", n, tableRows)
	}

	// Stability: the same OLTP mix keeps flowing; further evaluations must
	// not oscillate the table back.
	before := migrateEvents(mgr)
	for round := 0; round < 3; round++ {
		exec(t, db, oltpMix(200, int64(40+round)))
		if _, err := mgr.Evaluate(0); err != nil {
			t.Fatal(err)
		}
	}
	if after := migrateEvents(mgr); after != before {
		t.Errorf("stable mix caused %d extra migrations", after-before)
	}
}

// TestHysteresisBlocksMarginalMoves: with a near-total hysteresis
// requirement, even a clearly beneficial move is suppressed — the gate
// that keeps borderline mixes from flapping.
func TestHysteresisBlocksMarginalMoves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cooldown = 0
	cfg.MinWindowQueries = 0
	db, _, mgr, _ := newStack(t, catalog.ColumnStore, cfg)
	exec(t, db, oltpMix(700, 21))
	moved, err := mgr.Evaluate(0.999)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 0 {
		t.Fatalf("hysteresis 99.9%% should block the move, moved %v", moved)
	}
	if e := db.Catalog().Table("exp"); e.Store != catalog.ColumnStore {
		t.Errorf("store changed despite hysteresis: %v", e.Store)
	}
	skips := 0
	for _, ev := range mgr.Events() {
		if ev.Action == "skip" {
			skips++
		}
	}
	if skips == 0 {
		t.Error("hysteresis skip not recorded in the event log")
	}
}

// TestCooldownThrottlesRepeatMoves: a table cannot be migrated twice
// within the cooldown window even when recommendations keep differing.
func TestCooldownThrottlesRepeatMoves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cooldown = time.Hour
	cfg.MinWindowQueries = 0
	db, _, mgr, _ := newStack(t, catalog.ColumnStore, cfg)
	base := time.Unix(1000000, 0)
	mgr.now = func() time.Time { return base }

	exec(t, db, oltpMix(700, 31))
	moved, err := mgr.Evaluate(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 1 {
		t.Fatalf("first evaluation should move, got %v", moved)
	}
	// Force a differing recommendation by shifting back to OLAP: within
	// the cooldown the move must be skipped.
	exec(t, db, olapMix(700, 32))
	moved, err = mgr.Evaluate(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 0 {
		t.Fatalf("cooldown should block the second move, got %v", moved)
	}
	// An administrator running the advice's ALTER TABLE statements
	// bypasses the automatic cooldown...
	rec, err := mgr.Advise()
	if err != nil {
		t.Fatal(err)
	}
	if len(mgr.pendingMoves(rec)) != 1 {
		t.Fatalf("the advice should move exp, got %v", rec.DDL)
	}
	for _, ddl := range rec.DDL {
		st, err := sql.Parse(ddl, server.Resolver(db))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := server.Exec(context.Background(), db, st); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	if pending := mgr.pendingMoves(rec); len(pending) != 0 {
		t.Fatalf("the advice's DDL left %v where they were: %v", pending, rec.DDL)
	}
	// ...and moving back is again subject to it for the automatic path.
	exec(t, db, oltpMix(700, 33))
	if moved, err = mgr.Evaluate(0); err != nil || len(moved) != 0 {
		t.Fatalf("cooldown should still block the auto path, got %v err %v", moved, err)
	}
	// After the cooldown expires the move is allowed again.
	mgr.now = func() time.Time { return base.Add(2 * time.Hour) }
	moved, err = mgr.Evaluate(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 1 {
		t.Fatalf("post-cooldown evaluation should move, got %v", moved)
	}
}

// TestCompactCheck: the delta watcher merges a column store whose
// write-optimized fragment crossed the threshold.
func TestCompactCheck(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CompactDeltaRows = 100
	db, _, mgr, spec := newStack(t, catalog.ColumnStore, cfg)
	// Push fresh inserts into the delta without triggering auto-merge.
	w := workload.GenMixed(spec, workload.MixConfig{
		Queries: 200, OLAPFraction: 0, TableRows: tableRows, Seed: 5,
		InsertWeight: 1,
	})
	exec(t, db, w)
	delta, err := db.DeltaRows("exp")
	if err != nil {
		t.Fatal(err)
	}
	if delta < cfg.CompactDeltaRows {
		t.Skipf("delta %d below threshold (auto-merge interfered)", delta)
	}
	compacted := mgr.CompactCheck()
	if len(compacted) != 1 || compacted[0] != "exp" {
		t.Fatalf("compacted %v", compacted)
	}
	if delta, _ = db.DeltaRows("exp"); delta != 0 {
		t.Errorf("delta after compact = %d", delta)
	}
}

// TestAutoAdvise drives the full background loop: traffic shifts, the
// loop notices and migrates on its own.
func TestAutoAdvise(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cooldown = 0
	cfg.MinWindowQueries = 100
	db, _, mgr, _ := newStack(t, catalog.ColumnStore, cfg)
	if err := mgr.AutoAdvise(5*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	if err := mgr.AutoAdvise(5*time.Millisecond, 0); err == nil {
		t.Error("double AutoAdvise accepted")
	}
	exec(t, db, oltpMix(700, 41))
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if e := db.Catalog().Table("exp"); e.Store != catalog.ColumnStore {
			return // the loop migrated the table
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("auto-advise loop never migrated the table")
}

// TestAdaptiveCompactCadence pins the cadence math: the next compaction
// delay is the time the current bulk-ingest rate needs to fill the merge
// threshold, clamped between the floor and the AutoAdvise ceiling.
func TestAdaptiveCompactCadence(t *testing.T) {
	db := engine.New()
	defer db.Close()
	sch := schema.MustNew("t", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "v", Type: value.Integer},
	}, "id")
	if err := db.CreateTable(sch, catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	next := int64(0)
	ingest := func(n int) {
		t.Helper()
		rows := make([][]value.Value, n)
		for i := range rows {
			rows[i] = []value.Value{value.NewBigint(next), value.NewInt(1)}
			next++
		}
		if _, err := db.CopyRows(context.Background(), "t", rows); err != nil {
			t.Fatal(err)
		}
	}
	mon := monitor.New(db, monitor.DefaultConfig())
	m := NewManager(db, advisor.New(costmodel.DefaultModel()), mon, Config{
		CompactDeltaRows:   1000,
		CompactMinInterval: time.Second,
	})
	base := time.Now()
	m.now = func() time.Time { return base }

	const ceiling = time.Minute
	// First reading establishes the baseline: no rate yet, so the first
	// check comes after the floor, not a whole ceiling.
	if d := m.compactDelay(ceiling); d != time.Second {
		t.Fatalf("first delay = %v, want floor 1s", d)
	}
	// 10k rows/s against a 1000-row threshold wants 0.1s — clamped to
	// the floor.
	ingest(10000)
	base = base.Add(time.Second)
	if d := m.compactDelay(ceiling); d != time.Second {
		t.Fatalf("firehose delay = %v, want floor 1s", d)
	}
	// 10 rows/s wants 100s — clamped to the ceiling.
	ingest(100)
	base = base.Add(10 * time.Second)
	if d := m.compactDelay(ceiling); d != ceiling {
		t.Fatalf("trickle delay = %v, want ceiling %v", d, ceiling)
	}
	// 200 rows/s wants exactly 5s — inside the band, used as-is.
	ingest(2000)
	base = base.Add(10 * time.Second)
	if d := m.compactDelay(ceiling); d != 5*time.Second {
		t.Fatalf("mid-band delay = %v, want 5s", d)
	}
	// Idle relaxes back to the ceiling.
	base = base.Add(10 * time.Second)
	if d := m.compactDelay(ceiling); d != ceiling {
		t.Fatalf("idle delay = %v, want ceiling %v", d, ceiling)
	}
	// Adaptation off (no floor): always the ceiling.
	m.cfg.CompactMinInterval = 0
	ingest(100000)
	base = base.Add(time.Second)
	if d := m.compactDelay(ceiling); d != ceiling {
		t.Fatalf("unadaptive delay = %v, want ceiling %v", d, ceiling)
	}
}
