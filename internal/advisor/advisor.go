// Package advisor implements the paper's storage advisor: given a
// workload, table statistics and a calibrated cost model it recommends,
// for every table, whether to keep the data in the row store or the
// column store (§3.1), and whether to split the table horizontally and/or
// vertically across both stores (§3.2). It supports the offline mode
// (schema + basic statistics + recorded/expected workload) and the online
// mode (live engine, extended workload statistics, periodic re-evaluation
// and optional automatic application), mirroring §4.
package advisor

import (
	"math/rand"
	"sort"
	"strings"

	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/query"
)

const (
	// exactLimit is the maximum number of tables for exhaustive placement
	// enumeration; beyond it a join-aware local search is used.
	exactLimit = 12
	// insertFractionThreshold is the minimum fraction of insert statements
	// for a table before a row-store insert partition is recommended
	// ("if it is sufficiently high", §3.2).
	insertFractionThreshold = 0.05
	// hotUpdateMinCount is the minimum number of range-located updates
	// before the advisor trusts the observed hot key range.
	hotUpdateMinCount = 10
	// hotRangeMaxFraction rejects hot ranges covering more than this
	// fraction of the table (then the whole table is update-hot and a
	// partition would not help).
	hotRangeMaxFraction = 0.5
	// localSearchRestarts is the number of random restarts of the local
	// search used beyond exactLimit.
	localSearchRestarts = 3
)

// Config tunes the advisor's heuristics.
type Config struct {
	// MinPartitionRows skips partitioning recommendations for tiny tables.
	MinPartitionRows int
}

// DefaultConfig returns the standard thresholds.
func DefaultConfig() Config {
	return Config{MinPartitionRows: 1000}
}

// Advisor recommends storage layouts.
type Advisor struct {
	Model  *costmodel.Model
	Config Config
}

// New creates an advisor with default configuration.
func New(m *costmodel.Model) *Advisor {
	return &Advisor{Model: m, Config: DefaultConfig()}
}

// InfoFromCatalog adapts catalog entries to the cost model's InfoSource.
func InfoFromCatalog(cat *catalog.Catalog) costmodel.InfoSource {
	return func(table string) (costmodel.TableInfo, bool) {
		e := cat.Table(table)
		if e == nil {
			return costmodel.TableInfo{}, false
		}
		ti := costmodel.TableInfo{Schema: e.Schema, HasIndex: e.HasIndex}
		if e.Stats != nil {
			ti.Rows = e.Stats.NumRows
			ti.Compression = e.Stats.AvgCompression()
			ti.Stats = e.Stats
		}
		return ti, true
	}
}

// decomposition precomputes per-query costs for both stores so that
// placement search only sums table-indexed terms. A single-table query
// contributes to its table's single-store costs; a join query contributes
// a 2×2 term over the two tables' stores. This makes exhaustive
// enumeration O(2^T · (T + J)) instead of O(2^T · |W|) estimations.
type decomposition struct {
	tables []string
	index  map[string]int
	single [][2]float64 // [table][store] with 0 = row, 1 = column
	joins  []joinTerm
}

type joinTerm struct {
	left, right int
	cost        [2][2]float64
}

var storeOf = [2]catalog.StoreKind{catalog.RowStore, catalog.ColumnStore}

func (a *Advisor) decompose(w *query.Workload, info costmodel.InfoSource) *decomposition {
	d := &decomposition{index: map[string]int{}}
	tableIdx := func(name string) int {
		k := strings.ToLower(name)
		if i, ok := d.index[k]; ok {
			return i
		}
		i := len(d.tables)
		d.index[k] = i
		d.tables = append(d.tables, k)
		d.single = append(d.single, [2]float64{})
		return i
	}
	for _, q := range w.Queries {
		li := tableIdx(q.Table)
		if q.Join == nil {
			for s := 0; s < 2; s++ {
				place := costmodel.Placement{strings.ToLower(q.Table): storeOf[s]}
				d.single[li][s] += a.Model.EstimateQuery(q, info, place)
			}
			continue
		}
		ri := tableIdx(q.Join.Table)
		term := joinTerm{left: li, right: ri}
		for s1 := 0; s1 < 2; s1++ {
			for s2 := 0; s2 < 2; s2++ {
				place := costmodel.Placement{
					strings.ToLower(q.Table):      storeOf[s1],
					strings.ToLower(q.Join.Table): storeOf[s2],
				}
				term.cost[s1][s2] = a.Model.EstimateQuery(q, info, place)
			}
		}
		d.joins = append(d.joins, term)
	}
	return d
}

// cost evaluates a placement assignment (one bit per table).
func (d *decomposition) cost(assign []uint8) float64 {
	total := 0.0
	for t, s := range assign {
		total += d.single[t][s]
	}
	for _, j := range d.joins {
		total += j.cost[assign[j.left]][assign[j.right]]
	}
	return total
}

// TableRecommendation is the result of the table-level decision.
type TableRecommendation struct {
	// Placement maps every workload table to its recommended store.
	Placement costmodel.Placement
	// EstimatedCost is the predicted workload runtime (ns) under Placement.
	EstimatedCost float64
	// RowOnlyCost and ColumnOnlyCost are the predicted runtimes when every
	// table is forced into a single store — the paper's RS-only/CS-only
	// baselines.
	RowOnlyCost, ColumnOnlyCost float64
	// Exact reports whether the placement came from exhaustive enumeration
	// (true) or local search (false).
	Exact bool
}

// RecommendTables performs the table-level recommendation of §3.1: it
// estimates the workload runtime for placements of all tables and returns
// the cheapest. Tables present in pinned keep their assigned store (the
// paper's join experiment pins the small dimension table to the row
// store).
func (a *Advisor) RecommendTables(w *query.Workload, info costmodel.InfoSource, pinned costmodel.Placement) *TableRecommendation {
	d := a.decompose(w, info)
	n := len(d.tables)
	rec := &TableRecommendation{Placement: costmodel.Placement{}}
	if n == 0 {
		rec.Exact = true
		return rec
	}
	pinnedBits := make([]int8, n) // -1 = free, 0 = row, 1 = column
	for i := range pinnedBits {
		pinnedBits[i] = -1
	}
	for t, s := range pinned {
		if i, ok := d.index[strings.ToLower(t)]; ok {
			if s == catalog.ColumnStore {
				pinnedBits[i] = 1
			} else {
				pinnedBits[i] = 0
			}
		}
	}

	// Baselines.
	all := make([]uint8, n)
	rec.RowOnlyCost = d.cost(all)
	for i := range all {
		all[i] = 1
	}
	rec.ColumnOnlyCost = d.cost(all)

	var best []uint8
	var bestCost float64
	free := 0
	for _, p := range pinnedBits {
		if p < 0 {
			free++
		}
	}
	if free <= exactLimit {
		best, bestCost = d.enumerate(pinnedBits)
		rec.Exact = true
	} else {
		best, bestCost = d.localSearch(pinnedBits, localSearchRestarts)
	}
	for i, t := range d.tables {
		rec.Placement[t] = storeOf[best[i]]
	}
	rec.EstimatedCost = bestCost
	return rec
}

// enumerate exhaustively searches all assignments of the free tables.
func (d *decomposition) enumerate(pinned []int8) ([]uint8, float64) {
	n := len(d.tables)
	var freeIdx []int
	assign := make([]uint8, n)
	for i, p := range pinned {
		switch p {
		case -1:
			freeIdx = append(freeIdx, i)
		default:
			assign[i] = uint8(p)
		}
	}
	best := make([]uint8, n)
	copy(best, assign)
	bestCost := d.cost(assign)
	for mask := 0; mask < 1<<len(freeIdx); mask++ {
		for b, i := range freeIdx {
			assign[i] = uint8(mask >> b & 1)
		}
		if c := d.cost(assign); c < bestCost {
			bestCost = c
			copy(best, assign)
		}
	}
	return best, bestCost
}

// localSearch performs greedy hill climbing with random restarts: start
// from the per-table independent optimum (and random points), then flip
// single tables while the total cost improves. Join terms make the
// problem non-separable, but the join graph of real workloads is sparse,
// so hill climbing converges quickly.
func (d *decomposition) localSearch(pinned []int8, restarts int) ([]uint8, float64) {
	n := len(d.tables)
	rng := rand.New(rand.NewSource(42))
	start := func(random bool) []uint8 {
		assign := make([]uint8, n)
		for i := range assign {
			switch {
			case pinned[i] >= 0:
				assign[i] = uint8(pinned[i])
			case random:
				assign[i] = uint8(rng.Intn(2))
			case d.single[i][1] < d.single[i][0]:
				assign[i] = 1
			}
		}
		return assign
	}
	climb := func(assign []uint8) float64 {
		cost := d.cost(assign)
		for improved := true; improved; {
			improved = false
			for i := 0; i < n; i++ {
				if pinned[i] >= 0 {
					continue
				}
				assign[i] ^= 1
				if c := d.cost(assign); c < cost {
					cost = c
					improved = true
				} else {
					assign[i] ^= 1
				}
			}
		}
		return cost
	}
	best := start(false)
	bestCost := climb(best)
	for r := 0; r < restarts; r++ {
		cand := start(true)
		if c := climb(cand); c < bestCost {
			bestCost = c
			best = cand
		}
	}
	return best, bestCost
}

// WorkloadTables returns the sorted tables of a decomposed workload
// (exposed for recommendation reporting).
func (a *Advisor) WorkloadTables(w *query.Workload) []string {
	tables := w.Tables()
	sort.Strings(tables)
	return tables
}
