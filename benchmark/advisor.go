package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"hybridstore/internal/advisor"
	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/costmodel/calibrate"
	"hybridstore/internal/engine"
	"hybridstore/internal/query"
	"hybridstore/internal/value"
	"hybridstore/internal/workload"
)

// Statement classes of advisor_offline.
const (
	clsMixSelect = "mix_select" // select by key
	clsMixInsert = "mix_insert"
	clsMixUpdate = "mix_update" // key-range updates
	clsMixOLAP   = "mix_olap"   // single-table aggregates
	clsMixJoin   = "mix_join"   // star-join aggregates
)

var mixClasses = []string{clsMixSelect, clsMixInsert, clsMixUpdate, clsMixOLAP, clsMixJoin}

// classOf names a generated statement's class.
func classOf(q *query.Query) string {
	switch {
	case q.Kind == query.Insert:
		return clsMixInsert
	case q.Kind == query.Update:
		return clsMixUpdate
	case q.Join != nil:
		return clsMixJoin
	case q.Kind == query.Aggregate:
		return clsMixOLAP
	}
	return clsMixSelect
}

// advisorBench is the advisor_offline workload, the paper's tool run in
// process with no network: collect statistics, recommend a layout for a
// generated mixed workload, migrate to it, and execute the workload on
// the advised layout. The oracle executes one round on a row-only and a
// column-only database too and compares every result.
type advisorBench struct {
	cfg      config
	rows     int
	factRows int
	dimRows  int
	queries  int
	spec     *workload.TableSpec
	fact     *workload.TableSpec
	dim      *workload.TableSpec
	adv      *advisor.Advisor

	db     *engine.Database
	rec    *advisor.Recommendation
	advice *query.Workload // the workload the advice was computed for
	round  int64
	nextID int64
	series map[string]*series
	stats  runStats

	collectMs, adviseMs, migrateS float64
	layoutS                       map[string]float64 // verify's runtimes per layout
}

func newAdvisor(cfg config) bench {
	b := &advisorBench{cfg: cfg, rows: 20_000, factRows: 20_000, dimRows: 1000, queries: 500}
	if cfg.smoke {
		b.rows, b.factRows, b.dimRows, b.queries = 3000, 3000, 100, 100
	}
	b.spec = workload.StandardTable("t")
	b.fact = workload.FactTable("fact", b.dimRows)
	b.dim = workload.DimensionTable("dim")
	// The shipped default model, as hsqld uses: the advice is then a
	// function of the seed, not of this host's timings.
	b.adv = advisor.New(costmodel.DefaultModel())
	b.adv.Config.MinPartitionRows = min(b.adv.Config.MinPartitionRows, b.rows/2)
	return b
}

// tables lists the workload's tables with their generators and sizes.
func (b *advisorBench) tables() []struct {
	spec *workload.TableSpec
	rows int
	seed int64
} {
	return []struct {
		spec *workload.TableSpec
		rows int
		seed int64
	}{{b.spec, b.rows, b.cfg.seed}, {b.fact, b.factRows, b.cfg.seed + 1}, {b.dim, b.dimRows, b.cfg.seed + 2}}
}

// load fills a database with the workload's tables, each in the layout
// place gives it.
func (b *advisorBench) load(place func(table string) (catalog.StoreKind, *catalog.PartitionSpec)) (*engine.Database, error) {
	db := engine.New()
	for _, t := range b.tables() {
		store, spec := place(t.spec.Schema.Name)
		if spec != nil {
			store = catalog.Partitioned
		}
		if err := loadTable(db, t.spec, store, spec, t.rows, t.seed); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func uniform(store catalog.StoreKind) func(string) (catalog.StoreKind, *catalog.PartitionSpec) {
	return func(string) (catalog.StoreKind, *catalog.PartitionSpec) { return store, nil }
}

func (b *advisorBench) advised(table string) (catalog.StoreKind, *catalog.PartitionSpec) {
	return b.rec.Layout.Stores.StoreOf(table), b.rec.Layout.SpecFor(table)
}

// olapShare is the analytic share of the generated mixes, the top of the
// range the paper sweeps (0 to 5 %).
const olapShare = 0.05

// mix generates round's statements: the single-table mix (5 % OLAP,
// range updates on the newest tenth of the loaded keys) followed by the
// star-schema mix. Every round addresses the loaded key range, so rounds
// are alike; inserts are renumbered from *nextID on, above everything
// inserted before.
func (b *advisorBench) mix(round int64, nextID *int64) *query.Workload {
	w := workload.GenMixed(b.spec, workload.MixConfig{
		Queries: b.queries, OLAPFraction: olapShare, TableRows: b.rows,
		HotDataFraction: 0.1, UpdateRowsPerQuery: 10, WideUpdates: true,
		Seed: b.cfg.seed*1_000_003 + round,
	})
	j := workload.GenJoinMixed(b.fact, b.dim, workload.JoinMixConfig{
		Queries: b.queries, OLAPFraction: olapShare, FactRows: b.factRows, DimRows: b.dimRows,
		Seed: b.cfg.seed*1_000_003 + 500_000 + round,
	})
	w.Add(j.Queries...)
	for _, q := range w.Queries {
		if q.Kind == query.Insert {
			q.Rows[0][0] = value.NewBigint(*nextID)
			*nextID++
		}
	}
	return w
}

// firstInsertID is above every loaded key of every table.
func (b *advisorBench) firstInsertID() int64 { return int64(max(b.rows, b.factRows)) }

// label renders the recommendation as one line.
func (b *advisorBench) label() string {
	var parts []string
	for _, t := range b.tables() {
		name := t.spec.Schema.Name
		store, spec := b.advised(name)
		if spec != nil {
			parts = append(parts, fmt.Sprintf("%s=%s", name, spec))
		} else {
			parts = append(parts, fmt.Sprintf("%s=%s", name, store))
		}
	}
	return strings.Join(parts, "; ")
}

func (b *advisorBench) setup() error {
	db, err := b.load(uniform(catalog.RowStore))
	if err != nil {
		return err
	}
	b.db = db
	t0 := time.Now()
	for _, t := range b.tables() {
		if _, err := db.CollectStats(t.spec.Schema.Name); err != nil {
			return err
		}
	}
	b.collectMs = float64(time.Since(t0).Microseconds()) / 1e3

	b.nextID = b.firstInsertID()
	b.advice = b.mix(0, &b.nextID)
	info := advisor.InfoFromCatalog(db.Catalog())
	t0 = time.Now()
	b.rec = b.adv.Recommend(b.advice, info, nil, nil)
	b.adviseMs = float64(time.Since(t0).Microseconds()) / 1e3
	fmt.Printf("# advice: %s\n", b.label())

	t0 = time.Now()
	for _, t := range b.tables() {
		name := t.spec.Schema.Name
		store, spec := b.advised(name)
		target := store
		if spec != nil {
			target = catalog.Partitioned
		}
		if e := db.Catalog().Table(name); e.Store == target && e.Partitioning.Equal(spec) {
			continue
		}
		if err := db.MigrateLayout(name, store, spec); err != nil {
			return fmt.Errorf("migrate %s: %w", name, err)
		}
	}
	b.migrateS = time.Since(t0).Seconds()

	b.series = map[string]*series{}
	for _, class := range mixClasses {
		b.series[class] = b.stats.rec.add(newSeries(class, int(b.cfg.seconds*5000)+1024))
	}
	// Warm-up: the start of the advice workload, untimed.
	warm := &query.Workload{Queries: b.advice.Queries[:len(b.advice.Queries)/5]}
	_, err = b.execute(db, warm, time.Time{}, nil)
	b.round = 1
	return err
}

// execute runs a workload's statements in order, stopping early once
// deadline (if not zero) has passed, and returns the time spent inside
// the engine; keep, when not nil, receives every result.
func (b *advisorBench) execute(db *engine.Database, w *query.Workload, deadline time.Time, keep func(i int, res *engine.Result)) (time.Duration, error) {
	var total time.Duration
	timed := !deadline.IsZero()
	for i, q := range w.Queries {
		t0 := time.Now()
		if timed && t0.After(deadline) {
			break
		}
		res, err := db.Exec(q)
		d := time.Since(t0)
		if err != nil {
			return total, fmt.Errorf("statement %d (%s): %w", i, q, err)
		}
		total += d
		if timed {
			b.series[classOf(q)].observe(d)
		}
		if keep != nil {
			keep(i, res)
		}
	}
	return total, nil
}

func (b *advisorBench) run(d time.Duration) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		w := b.mix(b.round, &b.nextID)
		b.round++
		spent, err := b.execute(b.db, w, deadline, nil)
		b.stats.wall += spent
		if err != nil {
			b.stats.failed++
			return err
		}
	}
	return nil
}

func (b *advisorBench) runStats() *runStats { return &b.stats }

func (b *advisorBench) classes() (point, scan []string) {
	return []string{clsMixSelect}, []string{clsMixOLAP}
}

func (b *advisorBench) memBytesPerRow() (float64, error) { return bytesPerRow(b.db, "t") }

// verify executes one more round on three fresh databases, row-only,
// column-only and advised, and requires every statement's result and
// every table's final content to be the same on all three.
func (b *advisorBench) verify() error {
	first := b.firstInsertID()
	w := b.mix(0, &first)
	layouts := []struct {
		name  string
		place func(string) (catalog.StoreKind, *catalog.PartitionSpec)
	}{{"row_only", uniform(catalog.RowStore)}, {"column_only", uniform(catalog.ColumnStore)}, {"advised", b.advised}}
	b.layoutS = map[string]float64{}
	var ref []*engine.Result
	var refTables map[string][][]value.Value
	for _, l := range layouts {
		db, err := b.load(l.place)
		if err != nil {
			return err
		}
		got := make([]*engine.Result, len(w.Queries))
		spent, err := b.execute(db, w, time.Time{}, func(i int, res *engine.Result) { got[i] = res })
		if err != nil {
			return fmt.Errorf("advisor oracle: %s: %w", l.name, err)
		}
		b.layoutS[l.name] = spent.Seconds()
		tables := map[string][][]value.Value{}
		for _, t := range b.tables() {
			name := t.spec.Schema.Name
			res, err := db.Exec(&query.Query{Kind: query.Select, Table: name, OrderBy: []query.Order{{Col: 0}}})
			if err != nil {
				return err
			}
			tables[name] = res.Rows
		}
		if ref == nil {
			ref, refTables = got, tables
			continue
		}
		for i := range ref {
			if ref[i].Affected != got[i].Affected {
				return fmt.Errorf("advisor oracle: statement %d (%s): %s affected %d rows, row_only %d",
					i, w.Queries[i], l.name, got[i].Affected, ref[i].Affected)
			}
			if err := sameRows(got[i].Rows, ref[i].Rows); err != nil {
				return fmt.Errorf("advisor oracle: statement %d (%s) on %s vs row_only: %w", i, w.Queries[i], l.name, err)
			}
		}
		for name, rows := range tables {
			if err := sameRows(rows, refTables[name]); err != nil {
				return fmt.Errorf("advisor oracle: table %s on %s vs row_only: %w", name, l.name, err)
			}
		}
	}
	fmt.Printf("# one round: row_only %.3fs, column_only %.3fs, advised %.3fs\n",
		b.layoutS["row_only"], b.layoutS["column_only"], b.layoutS["advised"])
	return nil
}

// sameRows compares two results as multisets of rows, floats at a
// relative 1e-9 (stores associate float sums differently).
func sameRows(got, want [][]value.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows against %d", len(got), len(want))
	}
	a, b := append([][]value.Value(nil), got...), append([][]value.Value(nil), want...)
	for _, rows := range [][][]value.Value{a, b} {
		sort.SliceStable(rows, func(i, j int) bool { return lessRow(rows[i], rows[j]) })
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d: %d columns against %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			g, w := a[i][j], b[i][j]
			switch {
			case g.IsNull() || w.IsNull():
				if g.IsNull() != w.IsNull() {
					return fmt.Errorf("row %d column %d: %v against %v", i, j, g, w)
				}
			case w.Type() == value.Double:
				if diff := math.Abs(g.Float() - w.Double()); diff > 1e-9*math.Max(1, math.Abs(w.Double())) {
					return fmt.Errorf("row %d column %d: %v against %v", i, j, g, w)
				}
			case !value.Equal(g, w):
				return fmt.Errorf("row %d column %d: %v against %v", i, j, g, w)
			}
		}
	}
	return nil
}

// lessRow orders rows by their non-float columns, which are the keys and
// group values; float columns may differ in the last place between
// layouts and must not decide the order.
func lessRow(a, b []value.Value) bool {
	for j := range a {
		if j >= len(b) {
			return false
		}
		if a[j].Type() == value.Double || a[j].IsNull() || b[j].IsNull() {
			continue
		}
		if c := value.Compare(a[j], b[j]); c != 0 {
			return c < 0
		}
	}
	return false
}

// replay walks rounds of their own into the advised database, in
// process, as the tool executes them.
func (b *advisorBench) replay(_ int, tr *tracer, n int) (*walker, error) {
	var sample []*stmt
	for round := int64(1 << 20); len(sample) < n; round++ {
		w := b.mix(round, &b.nextID)
		for _, q := range w.Queries {
			s := &stmt{class: classOf(q), q: q}
			if q.Kind == query.Insert {
				// The second execution inserts the same tuple under a
				// key in a range of its own.
				s.againQ = func() *query.Query {
					row := append([]value.Value(nil), q.Rows[0]...)
					row[0] = value.NewBigint(row[0].Int() + 1<<40)
					return &query.Query{Kind: query.Insert, Table: q.Table, Rows: [][]value.Value{row}}
				}
			}
			sample = append(sample, s)
		}
	}
	return walkAll(b.db, tr, sample[:n])
}

func (b *advisorBench) probes(p *probeSet) error {
	p.set("server.residual_us", 0) // no server: the tool calls the engine in process
	p.set("catalog.collect_stats_ms", b.collectMs)
	p.set("advisor.advise_ms", b.adviseMs)
	p.set("migrate.layout_migrate_s", b.migrateS)
	p.set("advisor.row_only_s", b.layoutS["row_only"])
	p.set("advisor.column_only_s", b.layoutS["column_only"])
	p.set("advisor.workload_s", b.layoutS["advised"])
	best := math.Min(b.layoutS["row_only"], b.layoutS["column_only"])
	p.set("advisor.regret", b.layoutS["advised"]/best)

	// The advisor's parts, on a statistics database as setup saw it.
	stats, err := b.load(uniform(catalog.RowStore))
	if err != nil {
		return err
	}
	for _, t := range b.tables() {
		if _, err := stats.CollectStats(t.spec.Schema.Name); err != nil {
			return err
		}
	}
	info := advisor.InfoFromCatalog(stats.Catalog())
	var trec *advisor.TableRecommendation
	p.set("advisor.recommend_tables_ms", medianOf(5, func() { trec = b.adv.RecommendTables(b.advice, info, nil) })/1e6)
	p.set("advisor.partition_candidates_ms", medianOf(5, func() {
		b.adv.PartitionCandidates(b.advice, info, nil, trec.Placement)
	})/1e6)
	p.set("costmodel.estimate_workload_us", medianOf(5, func() {
		b.adv.Model.EstimateWorkload(b.advice, info, trec.Placement)
	})/1e3)

	// Paper Fig. 6: a model calibrated on this host, its estimate of the
	// round against the measured runtime on both single-store layouts.
	ccfg := calibrate.Config{RefRows: 4000, Reps: 1, Seed: b.cfg.seed}
	if b.cfg.smoke {
		ccfg.RefRows = 1000
	}
	t0 := time.Now()
	model, err := calibrate.Calibrate(ccfg)
	if err != nil {
		return err
	}
	p.set("costmodel.calibrate_s", time.Since(t0).Seconds())
	errSum := 0.0
	for name, store := range map[string]catalog.StoreKind{"row_only": catalog.RowStore, "column_only": catalog.ColumnStore} {
		place := costmodel.Placement{}
		for _, t := range b.tables() {
			place[strings.ToLower(t.spec.Schema.Name)] = store
		}
		est := model.EstimateWorkload(b.advice, info, place) / 1e9
		errSum += math.Abs(est-b.layoutS[name]) / b.layoutS[name]
	}
	p.set("costmodel.est_error_ratio", errSum/2)

	p.rowstore(b.spec, genRows(b.spec, min(b.rows, probeRows), b.cfg.seed))
	return nil
}

func (b *advisorBench) close() {}
