package engine

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/plan"
	"hybridstore/internal/query"
	"hybridstore/internal/value"
)

// The planner differential wall checks the planned executor against a
// deliberately naive oracle — full scans, predicate evaluation per row,
// nested-loop joins, stable sorts — that shares none of the planner's
// decisions (pushdown, build side, top-K, fused kernels). Every filter,
// join, group-by and order+limit shape must agree on every layout, with
// NULLs, tombstones and a live delta in the data, under both a serial
// and a forced-parallel pool.

// oracleTable materializes every live row of a table through the raw
// storage scan, bypassing the planner entirely.
func oracleTable(t *testing.T, db *Database, table string) [][]value.Value {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	rt, ok := db.tables[tableKey(table)]
	if !ok {
		t.Fatalf("oracle: no table %q", table)
	}
	return storeRows(rt.store, rt.entry.Schema.NumColumns())
}

// oracleExec evaluates q naively over pre-materialized table rows.
// Unordered LIMIT results are prefix-free, so the caller compares those
// by count and containment instead.
func oracleExec(q *query.Query, left, right [][]value.Value, nL int) [][]value.Value {
	rows := left
	if q.Join != nil {
		var joined [][]value.Value
		for _, l := range left {
			lk := l[q.Join.LeftCol]
			if lk.IsNull() {
				continue
			}
			for _, r := range right {
				rk := r[q.Join.RightCol]
				if rk.IsNull() || value.Compare(lk, rk) != 0 {
					continue
				}
				combined := make([]value.Value, 0, len(l)+len(r))
				combined = append(combined, l...)
				combined = append(combined, r...)
				joined = append(joined, combined)
			}
		}
		rows = joined
	}
	if q.Pred != nil {
		var kept [][]value.Value
		for _, row := range rows {
			if q.Pred.Matches(row) {
				kept = append(kept, row)
			}
		}
		rows = kept
	}
	if q.Kind == query.Aggregate {
		ar := agg.NewResult(q.Aggs, q.GroupBy)
		key := make([]value.Value, len(q.GroupBy))
		for _, row := range rows {
			var g *agg.Group
			if len(q.GroupBy) > 0 {
				for i, c := range q.GroupBy {
					key[i] = row[c]
				}
				g = ar.GroupFor(key)
			} else {
				g = ar.Global()
			}
			for i, s := range q.Aggs {
				if s.Col < 0 {
					g.Accs[i].AddCount(1)
				} else {
					g.Accs[i].AddFor(s.Func, row[s.Col])
				}
			}
		}
		// A group's ORDER BY keys are its group columns.
		order := make([]query.Order, len(q.OrderBy))
		for i, o := range q.OrderBy {
			order[i] = query.Order{Col: slices.Index(q.GroupBy, o.Col), Desc: o.Desc}
		}
		return oracleLimit(oracleOrder(ar.Rows(), order), q.Limit)
	}
	// Select: order on the full-width rows, then project, then limit.
	rows = oracleOrder(rows, q.OrderBy)
	cols := q.Cols
	if cols == nil {
		w := nL
		if q.Join != nil && len(rows) > 0 {
			w = len(rows[0])
		}
		cols = allCols(w)
	}
	projected := make([][]value.Value, len(rows))
	for i, row := range rows {
		out := make([]value.Value, len(cols))
		for j, c := range cols {
			out[j] = row[c]
		}
		projected[i] = out
	}
	return oracleLimit(projected, q.Limit)
}

// oracleOrder stably sorts rows by the keys at the positions order names.
func oracleOrder(rows [][]value.Value, order []query.Order) [][]value.Value {
	if len(order) == 0 {
		return rows
	}
	ordered := slices.Clone(rows)
	sort.SliceStable(ordered, func(a, b int) bool {
		for _, o := range order {
			if c := value.Compare(ordered[a][o.Col], ordered[b][o.Col]); c != 0 {
				return c < 0 != o.Desc
			}
		}
		return false
	})
	return ordered
}

// oracleLimit keeps the first limit rows (all of them when limit is 0).
func oracleLimit(rows [][]value.Value, limit int) [][]value.Value {
	if limit > 0 && len(rows) > limit {
		return rows[:limit]
	}
	return rows
}

// plannerWallQueries covers every read shape the planner makes decisions
// about: predicated scans and projections, grouped aggregates, joins
// with left-only / right-only / mixed predicates, and ORDER BY + LIMIT
// in all combinations (top-K, full sort, bare limit), standalone and
// through a join. Combined join indexing: par columns 0..5, pardim 6..8.
func plannerWallQueries() []*query.Query {
	half := value.NewBigint(parRows / 2)
	return []*query.Query{
		// Scans and filters.
		{Kind: query.Select, Table: "par"},
		{Kind: query.Select, Table: "par", Cols: []int{0, 3, 5},
			Pred: &expr.Comparison{Col: 0, Op: expr.Lt, Val: half}},
		{Kind: query.Select, Table: "par", Cols: []int{1, 4},
			Pred: &expr.And{Preds: []expr.Predicate{
				&expr.Comparison{Col: 1, Op: expr.Ge, Val: value.NewInt(3)},
				&expr.Comparison{Col: 2, Op: expr.Lt, Val: value.NewInt(30)},
			}}},
		// Grouped and global aggregates over nullable columns.
		{Kind: query.Aggregate, Table: "par",
			Aggs: []agg.Spec{{Func: agg.Sum, Col: 3}, {Func: agg.Count, Col: -1}}},
		{Kind: query.Aggregate, Table: "par", GroupBy: []int{1},
			Aggs: []agg.Spec{{Func: agg.Min, Col: 4}, {Func: agg.Max, Col: 3}, {Func: agg.Avg, Col: 3}},
			Pred: &expr.Comparison{Col: 2, Op: expr.Ge, Val: value.NewInt(10)}},
		{Kind: query.Aggregate, Table: "par", GroupBy: []int{1, 2},
			Aggs: []agg.Spec{{Func: agg.Sum, Col: 4}}},
		// Joins: left-only, right-only and mixed predicates exercise the
		// pushdown classifier; the dimension is smaller, so the planner's
		// build side differs from a flipped baseline.
		{Kind: query.Select, Table: "par",
			Join: &query.Join{Table: "pardim", LeftCol: 2, RightCol: 0},
			Cols: []int{0, 3, 8},
			Pred: &expr.Comparison{Col: 0, Op: expr.Lt, Val: half}},
		{Kind: query.Select, Table: "par",
			Join: &query.Join{Table: "pardim", LeftCol: 2, RightCol: 0},
			Cols: []int{0, 7},
			Pred: &expr.Comparison{Col: 7, Op: expr.Lt, Val: value.NewInt(2)}},
		{Kind: query.Aggregate, Table: "par",
			Join:    &query.Join{Table: "pardim", LeftCol: 2, RightCol: 0},
			Aggs:    []agg.Spec{{Func: agg.Sum, Col: 4}, {Func: agg.Count, Col: -1}},
			GroupBy: []int{7},
			Pred: &expr.And{Preds: []expr.Predicate{
				&expr.Comparison{Col: 1, Op: expr.Ge, Val: value.NewInt(2)},
				&expr.Comparison{Col: 7, Op: expr.Lt, Val: value.NewInt(4)},
			}}},
		{Kind: query.Aggregate, Table: "par",
			Join: &query.Join{Table: "pardim", LeftCol: 2, RightCol: 0},
			Aggs: []agg.Spec{{Func: agg.Count, Col: -1}},
			Pred: &expr.Or{Preds: []expr.Predicate{
				&expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(0)},
				&expr.Comparison{Col: 7, Op: expr.Eq, Val: value.NewInt(1)},
			}}},
		// ORDER BY + LIMIT: single-pass top-K (asc, desc, multi-key),
		// full sort without limit, and a join-probe top-K.
		{Kind: query.Select, Table: "par", Cols: []int{0, 2},
			OrderBy: []query.Order{{Col: 2}, {Col: 0, Desc: true}}, Limit: 17},
		{Kind: query.Select, Table: "par", Cols: []int{0, 3},
			OrderBy: []query.Order{{Col: 3, Desc: true}}, Limit: 5,
			Pred: &expr.Comparison{Col: 1, Op: expr.Lt, Val: value.NewInt(6)}},
		{Kind: query.Select, Table: "par", Cols: []int{0, 1},
			OrderBy: []query.Order{{Col: 1}, {Col: 0}}},
		{Kind: query.Select, Table: "par",
			Join:    &query.Join{Table: "pardim", LeftCol: 2, RightCol: 0},
			Cols:    []int{0, 8},
			OrderBy: []query.Order{{Col: 8}, {Col: 0}}, Limit: 11,
			Pred: &expr.Comparison{Col: 0, Op: expr.Lt, Val: half}},
		// Key reads, which every layout answers through a PK index: a key in
		// the main fragment, one missing, one whose residual conjunct holds
		// and one whose residual fails, one living in the delta, one
		// tombstoned by the churn; projected, whole and aggregated.
		{Kind: query.Select, Table: "par", Cols: []int{0, 3, 5}, Pred: idEq(100)},
		{Kind: query.Select, Table: "par", Pred: idEq(parRows * 10)},
		{Kind: query.Select, Table: "par", Cols: []int{4, 1}, Pred: &expr.And{Preds: []expr.Predicate{
			idEq(100), &expr.Comparison{Col: 1, Op: expr.Lt, Val: value.NewInt(8)}}}},
		{Kind: query.Select, Table: "par", Pred: &expr.And{Preds: []expr.Predicate{
			&expr.Comparison{Col: 1, Op: expr.Ge, Val: value.NewInt(8)}, idEq(100)}}},
		{Kind: query.Select, Table: "par", Cols: []int{0, 2, 3}, Pred: idEq(parRows - 500)},
		{Kind: query.Select, Table: "par", Pred: idEq(5500)},
		{Kind: query.Aggregate, Table: "par", Pred: idEq(parRows - 500),
			Aggs: []agg.Spec{{Func: agg.Sum, Col: 3}, {Func: agg.Count, Col: -1}}},
		{Kind: query.Aggregate, Table: "par", GroupBy: []int{1}, Pred: idEq(100),
			Aggs: []agg.Spec{{Func: agg.Max, Col: 4}, {Func: agg.Count, Col: -1}}},
		// Aggregates ordered and limited through the select's collector:
		// a grouped top-K (one key and two), a full sort, and a bare LIMIT;
		// then the same through the join, on the star join's dense kernel
		// (grouped by a dimension column) and the generic hash fold
		// (grouped by a fact column).
		{Kind: query.Aggregate, Table: "par", GroupBy: []int{2},
			Aggs:    []agg.Spec{{Func: agg.Sum, Col: 3}, {Func: agg.Count, Col: -1}},
			OrderBy: []query.Order{{Col: 2, Desc: true}}, Limit: 7},
		{Kind: query.Aggregate, Table: "par", GroupBy: []int{1, 2},
			Aggs:    []agg.Spec{{Func: agg.Min, Col: 4}},
			OrderBy: []query.Order{{Col: 1}, {Col: 2, Desc: true}}, Limit: 12,
			Pred: &expr.Comparison{Col: 0, Op: expr.Lt, Val: half}},
		{Kind: query.Aggregate, Table: "par", GroupBy: []int{1},
			Aggs:    []agg.Spec{{Func: agg.Avg, Col: 3}},
			OrderBy: []query.Order{{Col: 1, Desc: true}}},
		{Kind: query.Aggregate, Table: "par", GroupBy: []int{2},
			Aggs:  []agg.Spec{{Func: agg.Max, Col: 4}, {Func: agg.Count, Col: -1}},
			Limit: 5},
		{Kind: query.Aggregate, Table: "par",
			Join:    &query.Join{Table: "pardim", LeftCol: 2, RightCol: 0},
			Aggs:    []agg.Spec{{Func: agg.Sum, Col: 4}, {Func: agg.Count, Col: -1}},
			GroupBy: []int{8}, OrderBy: []query.Order{{Col: 8}}, Limit: 5},
		{Kind: query.Aggregate, Table: "par",
			Join:    &query.Join{Table: "pardim", LeftCol: 2, RightCol: 0},
			Aggs:    []agg.Spec{{Func: agg.Max, Col: 3}},
			GroupBy: []int{1}, OrderBy: []query.Order{{Col: 1, Desc: true}}, Limit: 3,
			Pred: &expr.Comparison{Col: 7, Op: expr.Lt, Val: value.NewInt(3)}},
		{Kind: query.Aggregate, Table: "par",
			Join:    &query.Join{Table: "pardim", LeftCol: 2, RightCol: 0},
			Aggs:    []agg.Spec{{Func: agg.Count, Col: -1}},
			GroupBy: []int{7}, Limit: 2},
	}
}

// assertPlannedMatchesOracle executes q through the planner and compares
// with the naive oracle. Ordered results compare in order (the planner's
// top-K must reproduce the stable sort+limit prefix), exactly for a
// select and up to rounding for an aggregate's groups; unordered LIMIT
// results compare by cardinality and containment; everything else
// compares as an order-insensitive multiset.
func assertPlannedMatchesOracle(t *testing.T, db *Database, q *query.Query, left, right [][]value.Value, nL int, label string) {
	t.Helper()
	got, err := db.Exec(q)
	if err != nil {
		t.Fatalf("%s: planned exec: %v", label, err)
	}
	want := oracleExec(q, left, right, nL)
	switch {
	case len(q.OrderBy) > 0 && q.Kind == query.Select:
		if !reflect.DeepEqual(got.Rows, want) {
			t.Fatalf("%s: ordered result diverged\nplanned (%d rows): %.400v\noracle  (%d rows): %.400v",
				label, len(got.Rows), got.Rows, len(want), want)
		}
	case len(q.OrderBy) > 0: // ordered groups: in order, sums up to rounding
		if !rowsEqualUpToRounding(got.Rows, want) {
			t.Fatalf("%s: ordered groups diverged\nplanned (%d rows): %.400v\noracle  (%d rows): %.400v",
				label, len(got.Rows), got.Rows, len(want), want)
		}
	case q.Limit > 0:
		if len(got.Rows) != len(want) {
			t.Fatalf("%s: limit cardinality: planned %d, oracle %d", label, len(got.Rows), len(want))
		}
		// Any q.Limit matching rows are acceptable: check containment in
		// the unlimited matching multiset.
		unlimited := *q
		unlimited.Limit = 0
		pool := map[string]int{}
		for _, row := range oracleExec(&unlimited, left, right, nL) {
			pool[fmt.Sprint(row)]++
		}
		for _, row := range got.Rows {
			k := fmt.Sprint(row)
			if pool[k] == 0 {
				t.Fatalf("%s: planned row %v not in oracle's matching set", label, row)
			}
			pool[k]--
		}
	default:
		g, w := sortedRows(got.Rows), sortedRows(want)
		if !rowsEqualUpToRounding(g, w) {
			t.Fatalf("%s: result diverged\nplanned (%d rows): %.400v\noracle  (%d rows): %.400v",
				label, len(g), g, len(w), w)
		}
	}
}

// rowsEqualUpToRounding compares result sets exactly, except that two
// non-NULL doubles may differ by a relative 1e-9: the engine sums the
// fractional keyfigure per block range, the oracle in one pass.
func rowsEqualUpToRounding(got, want [][]value.Value) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j, w := range want[i] {
			g := got[i][j]
			if g.Type() == value.Double && w.Type() == value.Double && !g.IsNull() && !w.IsNull() {
				if math.Abs(g.Double()-w.Double()) > 1e-9*math.Max(1, math.Abs(w.Double())) {
					return false
				}
			} else if !value.Equal(g, w) {
				return false
			}
		}
	}
	return true
}

func TestPlannerDifferentialWall(t *testing.T) {
	queries := plannerWallQueries()
	for _, l := range parLayouts() {
		l := l
		t.Run(l.name, func(t *testing.T) {
			db := buildParDB(t, l.store, l.spec)
			// Collected statistics give the planner real cardinalities
			// and bump the catalog version mid-wall.
			if _, err := db.CollectStats("par"); err != nil {
				t.Fatal(err)
			}
			left := oracleTable(t, db, "par")
			right := oracleTable(t, db, "pardim")
			pools := []int{1, 8}
			if raceEnabled {
				pools = []int{8}
			}
			for _, pool := range pools {
				db.SetPool(exec.NewPool(pool))
				for i, q := range queries {
					assertPlannedMatchesOracle(t, db, q, left, right, 6,
						fmt.Sprintf("%s pool=%d q%d", l.name, pool, i))
				}
			}
		})
	}
}

// TestPlannerPlansEveryWallQuery pins the tentpole invariant: every read
// the wall executes flows through an explicit plan whose shape matches
// the statement (join plans have a HashJoin, ordered+limited selects a
// TopK, aggregates an Aggregate node).
func TestPlannerPlansEveryWallQuery(t *testing.T) {
	db := buildParDB(t, parLayouts()[1].store, nil)
	for i, q := range plannerWallQueries() {
		p, err := db.PlanQuery(q)
		if err != nil {
			t.Fatalf("q%d: plan: %v", i, err)
		}
		var kinds []string
		plan.Walk(p.Root, func(n plan.Node, _ int) { kinds = append(kinds, n.Kind()) })
		has := func(k string) bool {
			for _, x := range kinds {
				if x == k {
					return true
				}
			}
			return false
		}
		if q.Join != nil && !has("hashjoin") {
			t.Errorf("q%d: join query planned without hashjoin: %v", i, kinds)
		}
		if q.Kind == query.Aggregate && !has("aggregate") {
			t.Errorf("q%d: aggregate planned without aggregate node: %v", i, kinds)
		}
		if len(q.OrderBy) > 0 && q.Limit > 0 && !has("topk") {
			t.Errorf("q%d: order+limit planned without topk: %v", i, kinds)
		}
		if len(q.OrderBy) == 0 && q.Limit > 0 && !has("limit") {
			t.Errorf("q%d: bare limit planned without limit: %v", i, kinds)
		}
		if !has("scan") {
			t.Errorf("q%d: plan has no scan: %v", i, kinds)
		}
	}
}
