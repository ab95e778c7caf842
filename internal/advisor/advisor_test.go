package advisor

import (
	"math/rand"
	"strings"
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/engine"
	"hybridstore/internal/monitor"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
	"hybridstore/internal/workload"
)

// fabricatedInfo builds an InfoSource for synthetic tables without an
// engine: rows, distinct counts and ranges are made up but consistent.
func fabricatedInfo(tables map[string]*schema.Table, rows map[string]int) costmodel.InfoSource {
	return func(name string) (costmodel.TableInfo, bool) {
		k := strings.ToLower(name)
		sch, ok := tables[k]
		if !ok {
			return costmodel.TableInfo{}, false
		}
		n := rows[k]
		return costmodel.TableInfo{
			Schema:      sch,
			Rows:        n,
			Compression: 0.6,
			Stats:       &fakeStats{rows: n, cols: sch.NumColumns()},
		}, true
	}
}

type fakeStats struct {
	rows, cols int
}

func (f *fakeStats) Rows() int          { return f.rows }
func (f *fakeStats) Distinct(c int) int { return f.rows / 10 }
func (f *fakeStats) MinMax(c int) (value.Value, value.Value, bool) {
	return value.NewBigint(0), value.NewBigint(int64(f.rows - 1)), true
}

func expTable() *schema.Table {
	return workload.StandardTable("exp").Schema
}

func mixedWorkload(olapFrac float64, queries int) *query.Workload {
	spec := workload.StandardTable("exp")
	return workload.GenMixed(spec, workload.MixConfig{
		Queries: queries, OLAPFraction: olapFrac, TableRows: 100000, Seed: 7,
	})
}

func singleTableInfo() costmodel.InfoSource {
	return fabricatedInfo(
		map[string]*schema.Table{"exp": expTable()},
		map[string]int{"exp": 100000},
	)
}

func TestRecommendTablesPureOLTP(t *testing.T) {
	a := New(costmodel.DefaultModel())
	rec := a.RecommendTables(mixedWorkload(0, 500), singleTableInfo(), nil)
	if rec.Placement.StoreOf("exp") != catalog.RowStore {
		t.Errorf("pure OLTP should pick the row store: %v", rec.Placement)
	}
	if !rec.Exact {
		t.Error("single table should use exact search")
	}
	if rec.EstimatedCost > rec.ColumnOnlyCost {
		t.Error("recommended cost should not exceed the CS-only baseline")
	}
}

func TestRecommendTablesOLAPHeavy(t *testing.T) {
	a := New(costmodel.DefaultModel())
	rec := a.RecommendTables(mixedWorkload(0.5, 500), singleTableInfo(), nil)
	if rec.Placement.StoreOf("exp") != catalog.ColumnStore {
		t.Errorf("OLAP-heavy workload should pick the column store: %v", rec.Placement)
	}
}

func TestRecommendTablesCrossoverExists(t *testing.T) {
	a := New(costmodel.DefaultModel())
	info := singleTableInfo()
	prev := catalog.RowStore
	switched := false
	for _, frac := range []float64{0, 0.01, 0.02, 0.05, 0.1, 0.3} {
		rec := a.RecommendTables(mixedWorkload(frac, 500), info, nil)
		s := rec.Placement.StoreOf("exp")
		if prev == catalog.ColumnStore && s == catalog.RowStore {
			t.Errorf("recommendation regressed to row store at frac=%v", frac)
		}
		if s == catalog.ColumnStore {
			switched = true
		}
		prev = s
	}
	if !switched {
		t.Error("no crossover to the column store observed")
	}
}

func TestRecommendTablesPinned(t *testing.T) {
	a := New(costmodel.DefaultModel())
	pinned := costmodel.Placement{"exp": catalog.ColumnStore}
	rec := a.RecommendTables(mixedWorkload(0, 500), singleTableInfo(), pinned)
	if rec.Placement.StoreOf("exp") != catalog.ColumnStore {
		t.Error("pinned store ignored")
	}
}

func TestRecommendTablesEmptyWorkload(t *testing.T) {
	a := New(costmodel.DefaultModel())
	rec := a.RecommendTables(&query.Workload{}, singleTableInfo(), nil)
	if len(rec.Placement) != 0 || rec.EstimatedCost != 0 {
		t.Errorf("empty workload rec: %+v", rec)
	}
}

// Join-aware placement: a workload dominated by join queries should
// prefer co-located (or analytically optimal) store combinations over
// per-table independent decisions.
func TestRecommendTablesJoinAware(t *testing.T) {
	a := New(costmodel.DefaultModel())
	fact := workload.FactTable("fact", 1000)
	dim := workload.DimensionTable("dim")
	tables := map[string]*schema.Table{"fact": fact.Schema, "dim": dim.Schema}
	rows := map[string]int{"fact": 200000, "dim": 1000}
	info := fabricatedInfo(tables, rows)
	w := workload.GenJoinMixed(fact, dim, workload.JoinMixConfig{
		Queries: 500, OLAPFraction: 0.2, FactRows: 200000, DimRows: 1000, Seed: 3,
	})
	rec := a.RecommendTables(w, info, nil)
	if rec.Placement.StoreOf("fact") != catalog.ColumnStore {
		t.Errorf("analytical fact table should go columnar: %v", rec.Placement)
	}
	if rec.EstimatedCost > rec.RowOnlyCost || rec.EstimatedCost > rec.ColumnOnlyCost {
		t.Error("recommendation should beat single-store baselines")
	}
}

// Property: local search matches exact enumeration on small random
// instances.
func TestLocalSearchMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		nTables := 2 + rng.Intn(5)
		d := &decomposition{index: map[string]int{}}
		for i := 0; i < nTables; i++ {
			d.tables = append(d.tables, string(rune('a'+i)))
			d.single = append(d.single, [2]float64{rng.Float64() * 100, rng.Float64() * 100})
		}
		for j := 0; j < rng.Intn(4); j++ {
			term := joinTerm{left: rng.Intn(nTables), right: rng.Intn(nTables)}
			for x := 0; x < 2; x++ {
				for y := 0; y < 2; y++ {
					term.cost[x][y] = rng.Float64() * 200
				}
			}
			d.joins = append(d.joins, term)
		}
		pinned := make([]int8, nTables)
		for i := range pinned {
			pinned[i] = -1
		}
		_, exactCost := d.enumerate(pinned)
		_, lsCost := d.localSearch(pinned, 5)
		if lsCost < exactCost-1e-9 {
			t.Fatalf("trial %d: local search beat exact?! %v < %v", trial, lsCost, exactCost)
		}
		if (lsCost-exactCost)/exactCost > 0.05 {
			t.Errorf("trial %d: local search gap %.1f%%", trial, 100*(lsCost-exactCost)/exactCost)
		}
	}
}

func TestHorizontalCandidateFromHotUpdates(t *testing.T) {
	a := New(costmodel.DefaultModel())
	spec := workload.StandardTable("exp")
	// Updates concentrated on the last 10% of keys.
	w := workload.GenMixed(spec, workload.MixConfig{
		Queries: 500, OLAPFraction: 0.05, TableRows: 100000,
		HotDataFraction: 0.1, Seed: 11,
	})
	cands := a.PartitionCandidates(w, singleTableInfo(), nil, costmodel.Placement{"exp": catalog.ColumnStore})
	var horizontal *catalog.HorizontalSpec
	for _, c := range cands {
		if c.Spec.Horizontal != nil && c.Spec.Vertical == nil {
			horizontal = c.Spec.Horizontal
		}
	}
	if horizontal == nil {
		t.Fatal("no horizontal candidate for hot-update workload")
	}
	if horizontal.HotStore != catalog.RowStore {
		t.Error("hot partition should be row store")
	}
	// Split point should isolate roughly the hot 10% (keys >= ~90000).
	if split := horizontal.SplitVal.Float(); split < 85000 || split > 95000 {
		t.Errorf("split value = %v, want ≈90000", split)
	}
	if horizontal.ColdStore != catalog.ColumnStore {
		t.Errorf("cold store should follow table-level placement: %v", horizontal.ColdStore)
	}
}

func TestVerticalCandidateFromAttrRoles(t *testing.T) {
	a := New(costmodel.DefaultModel())
	spec := workload.VerticalOLAPTable("volap")
	w := workload.GenMixed(spec, workload.MixConfig{
		Queries: 500, OLAPFraction: 0.3, TableRows: 100000,
		OLTPAttrsOnly: true, Seed: 13,
	})
	info := fabricatedInfo(
		map[string]*schema.Table{"volap": spec.Schema},
		map[string]int{"volap": 100000},
	)
	cands := a.PartitionCandidates(w, info, nil, costmodel.Placement{})
	var vert *catalog.VerticalSpec
	for _, c := range cands {
		if c.Spec.Vertical != nil && c.Spec.Horizontal == nil {
			vert = c.Spec.Vertical
		}
	}
	if vert == nil {
		t.Fatal("no vertical candidate")
	}
	if err := (&catalog.PartitionSpec{Vertical: vert}).Validate(spec.Schema); err != nil {
		t.Fatalf("invalid vertical spec: %v", err)
	}
	inRow := map[int]bool{}
	for _, c := range vert.RowCols {
		inRow[c] = true
	}
	for _, c := range spec.OLTPAttrs {
		if !inRow[c] {
			t.Errorf("OLTP attribute %d not in the row partition", c)
		}
	}
	inCol := map[int]bool{}
	for _, c := range vert.ColCols {
		inCol[c] = true
	}
	for _, c := range spec.Keyfigures {
		if !inCol[c] {
			t.Errorf("keyfigure %d not in the column partition", c)
		}
	}
}

func TestPartitionCandidatesSkipsSmallTables(t *testing.T) {
	a := New(costmodel.DefaultModel())
	info := fabricatedInfo(
		map[string]*schema.Table{"exp": expTable()},
		map[string]int{"exp": 100}, // below MinPartitionRows
	)
	w := mixedWorkload(0.05, 200)
	if cands := a.PartitionCandidates(w, info, nil, nil); len(cands) != 0 {
		t.Errorf("tiny table got %d candidates", len(cands))
	}
}

// endToEndRec is TestRecommendEndToEnd's recommendation: a mostly OLTP
// mix with hot updates on a fabricated 100 000-row exp.
func endToEndRec() *Recommendation {
	w := workload.GenMixed(workload.StandardTable("exp"), workload.MixConfig{
		Queries: 500, OLAPFraction: 0.05, TableRows: 100000,
		HotDataFraction: 0.1, Seed: 17,
	})
	return New(costmodel.DefaultModel()).Recommend(w, singleTableInfo(), nil, nil)
}

func TestRecommendEndToEnd(t *testing.T) {
	rec := endToEndRec()
	if rec.TableLevelCost > rec.RowOnlyCost || rec.TableLevelCost > rec.ColumnOnlyCost {
		t.Error("table-level cost should not exceed baselines")
	}
	if rec.PartitionedCost > rec.TableLevelCost {
		t.Errorf("partitioning made things worse: %v > %v", rec.PartitionedCost, rec.TableLevelCost)
	}
	if len(rec.DDL) == 0 {
		t.Error("no DDL produced")
	}
	for _, ddl := range rec.DDL {
		if !strings.HasPrefix(ddl, "ALTER TABLE") {
			t.Errorf("odd DDL: %s", ddl)
		}
	}
	// With hot updates we expect a partitioning of exp.
	if rec.Layout.SpecFor("exp") == nil {
		t.Log("note: no partition chosen; estimated costs:", rec.TableLevelCost, rec.PartitionedCost)
	}
}

// offlineRec is TestRecommendOffline's recommendation: a 20 % OLAP mix
// on the 5 000 rows of exp it loads into db.
func offlineRec(t *testing.T, db *engine.Database) *Recommendation {
	t.Helper()
	spec := workload.StandardTable("exp")
	if err := spec.Load(db, catalog.RowStore, 5000, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CollectStats("exp"); err != nil {
		t.Fatal(err)
	}
	w := workload.GenMixed(spec, workload.MixConfig{
		Queries: 300, OLAPFraction: 0.2, TableRows: 5000, Seed: 19,
	})
	return New(costmodel.DefaultModel()).Recommend(w, InfoFromCatalog(db.Catalog()), nil, nil)
}

func TestRecommendOffline(t *testing.T) {
	rec := offlineRec(t, engine.New())
	if rec.Layout.Stores.StoreOf("exp") != catalog.ColumnStore {
		t.Errorf("20%% OLAP on 5k rows should go columnar: %+v", rec.Layout.Stores)
	}
}

// TestMonitorReevaluateWithoutWorkload: the online re-evaluation refuses
// a workload monitor's snapshot before any statement has been observed,
// and succeeds once the monitor has seen traffic.
func TestMonitorReevaluateWithoutWorkload(t *testing.T) {
	db := engine.New()
	spec := workload.StandardTable("exp")
	if err := spec.Load(db, catalog.RowStore, 2000, 1); err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(db, monitor.DefaultConfig())
	a := New(costmodel.DefaultModel())
	if _, err := a.RecommendSnapshot(mon.Snapshot(), db.Catalog(), nil); err == nil {
		t.Error("re-evaluation without workload should fail")
	}
	if _, err := a.RecommendSnapshot(nil, db.Catalog(), nil); err == nil {
		t.Error("re-evaluation without a snapshot should fail")
	}
	rec := snapshotRec(t, db, mon)
	if rec.Layout.Stores.StoreOf("exp") != catalog.ColumnStore {
		t.Errorf("30%% OLAP should go columnar: %+v", rec.Layout.Stores)
	}
}

// snapshotRec is TestMonitorReevaluateWithoutWorkload's recommendation:
// a 30 % OLAP mix run on db's 2 000-row exp and observed by mon.
func snapshotRec(t *testing.T, db *engine.Database, mon *monitor.Monitor) *Recommendation {
	t.Helper()
	w := workload.GenMixed(workload.StandardTable("exp"), workload.MixConfig{
		Queries: 200, OLAPFraction: 0.3, TableRows: 2000, Seed: 23,
	})
	for _, q := range w.Queries {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CollectStats("exp"); err != nil {
		t.Fatal(err)
	}
	rec, err := New(costmodel.DefaultModel()).RecommendSnapshot(mon.Snapshot(), db.Catalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestEstimateLayoutPartitionedBeatsWorse(t *testing.T) {
	a := New(costmodel.DefaultModel())
	sch := expTable()
	info := singleTableInfo()
	w := workload.GenMixed(workload.StandardTable("exp"), workload.MixConfig{
		Queries: 500, OLAPFraction: 0.05, TableRows: 100000,
		HotDataFraction: 0.1, Seed: 31,
	})
	flat := Layout{Stores: costmodel.Placement{"exp": catalog.ColumnStore}, Partitions: map[string]*catalog.PartitionSpec{}}
	flatCost := a.EstimateLayout(w, info, flat)

	split := flat.Clone()
	split.Partitions["exp"] = &catalog.PartitionSpec{Horizontal: &catalog.HorizontalSpec{
		SplitCol: 0, SplitVal: value.NewBigint(90000),
		HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
	}}
	splitCost := a.EstimateLayout(w, info, split)
	if splitCost >= flatCost {
		t.Errorf("hot/cold split should be estimated cheaper: %v vs %v", splitCost, flatCost)
	}
	_ = sch
}

func TestDDLRendering(t *testing.T) {
	a := New(costmodel.DefaultModel())
	info := singleTableInfo()
	rec := &Recommendation{
		Layout: Layout{
			Stores: costmodel.Placement{"exp": catalog.ColumnStore},
			Partitions: map[string]*catalog.PartitionSpec{
				"exp": {
					Horizontal: &catalog.HorizontalSpec{
						SplitCol: 0, SplitVal: value.NewBigint(90000),
						HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
					},
					Vertical: &catalog.VerticalSpec{RowCols: []int{0, 1}, ColCols: append([]int{0}, rangeInts(2, 30)...)},
				},
			},
		},
	}
	ddl := a.renderDDL(rec, info)
	if len(ddl) != 1 {
		t.Fatalf("ddl = %v", ddl)
	}
	for _, frag := range []string{"PARTITION BY RANGE (id)", ">= 90000", "STORE ROW", "VERTICAL"} {
		if !strings.Contains(ddl[0], frag) {
			t.Errorf("DDL missing %q: %s", frag, ddl[0])
		}
	}
	// Unpartitioned move statement.
	rec2 := &Recommendation{Layout: Layout{
		Stores:     costmodel.Placement{"exp": catalog.RowStore},
		Partitions: map[string]*catalog.PartitionSpec{},
	}}
	ddl2 := a.renderDDL(rec2, info)
	if len(ddl2) != 1 || !strings.Contains(ddl2[0], "MOVE TO ROW STORE") {
		t.Errorf("move DDL = %v", ddl2)
	}
}

// TestDDLRenderingHiddenKey checks that advice for a table declared without
// a primary key calls its hidden key ROWID.
func TestDDLRenderingHiddenKey(t *testing.T) {
	a := New(costmodel.DefaultModel())
	sch := schema.MustNew("notes", []schema.Column{
		{Name: "msg", Type: value.Varchar, Nullable: true},
		{Name: "n", Type: value.Integer, Nullable: true},
	})
	info := fabricatedInfo(map[string]*schema.Table{"notes": sch}, map[string]int{"notes": 1000})
	key := sch.PrimaryKey[0]
	rec := &Recommendation{Layout: Layout{
		Stores: costmodel.Placement{"notes": catalog.Partitioned},
		Partitions: map[string]*catalog.PartitionSpec{"notes": {
			Horizontal: &catalog.HorizontalSpec{
				SplitCol: key, SplitVal: value.NewBigint(900),
				HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
			},
			Vertical: &catalog.VerticalSpec{RowCols: []int{0, key}, ColCols: []int{1, key}},
		}},
	}}
	ddl := a.renderDDL(rec, info)
	if len(ddl) != 1 {
		t.Fatalf("ddl = %v", ddl)
	}
	for _, frag := range []string{"RANGE (ROWID)", "(msg, ROWID) STORE ROW", "(n, ROWID) STORE COLUMN"} {
		if !strings.Contains(ddl[0], frag) {
			t.Errorf("DDL missing %q: %s", frag, ddl[0])
		}
	}
	if strings.Contains(ddl[0], "$") {
		t.Errorf("DDL names the hidden key: %s", ddl[0])
	}
}

func rangeInts(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
