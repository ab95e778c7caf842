package engine

import (
	"context"
	"fmt"
	"slices"
	"time"

	"hybridstore/internal/agg"
	"hybridstore/internal/exec"
	"hybridstore/internal/plan"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/trace"
	"hybridstore/internal/value"
)

// planEnvLocked snapshots the planner's inputs. The returned Env's
// closures read runtime state directly, so they are only valid while the
// caller holds db.mu (read or write).
func (db *Database) planEnvLocked() plan.Env {
	return plan.Env{
		Meta: func(table string) (plan.TableMeta, bool) {
			rt, ok := db.tables[tableKey(table)]
			if !ok {
				return plan.TableMeta{}, false
			}
			// Statistics are published under the catalog's own lock
			// (CollectStats runs concurrent with readers holding only
			// db.mu.RLock), so the entry must be read through the
			// catalog's copying accessor, not rt.entry directly.
			e := db.cat.Table(table)
			if e == nil {
				return plan.TableMeta{}, false
			}
			return plan.TableMeta{
				Schema:   e.Schema,
				Store:    e.Store,
				Rows:     rt.store.Rows(),
				Stats:    e.Stats,
				HasIndex: e.HasIndex,
			}, true
		},
		Model:          defaultPlanModel(),
		CatalogVersion: db.cat.Version(),
	}
}

// planReadLocked plans one read statement under the held lock, recording
// planning latency.
func (db *Database) planReadLocked(q *query.Query) (*plan.Plan, error) {
	return db.planReadOptsLocked(q, plan.Options{})
}

func (db *Database) planReadOptsLocked(q *query.Query, opts plan.Options) (*plan.Plan, error) {
	start := time.Now()
	p, err := plan.BuildOptions(q, db.planEnvLocked(), opts)
	if err != nil {
		return nil, err
	}
	mPlanningSeconds.Observe(time.Since(start).Nanoseconds())
	return p, nil
}

// PlanQuery plans a read statement against the current catalog state
// without executing it. The plan records the catalog version it was
// built against; ExecPlannedContext replans transparently if the catalog
// has moved by execution time.
func (db *Database) PlanQuery(q *query.Query) (*plan.Plan, error) {
	return db.PlanQueryOptions(q, plan.Options{})
}

// PlanQueryOptions is PlanQuery with forced planner decisions (used by
// EXPLAIN variants and tests that compare a forced plan shape).
func (db *Database) PlanQueryOptions(q *query.Query, opts plan.Options) (*plan.Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.Kind != query.Select && q.Kind != query.Aggregate {
		return nil, fmt.Errorf("engine: cannot plan %v statement", q.Kind)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed.Load() {
		return nil, ErrClosed
	}
	return db.planReadOptsLocked(q, opts)
}

// ExecPlannedContext executes a read statement through a previously
// built plan (typically the server's plan cache). A stale plan — its
// CatalogVersion no longer matching — is discarded and the statement is
// replanned under the same lock, so results are always correct.
func (db *Database) ExecPlannedContext(ctx context.Context, q *query.Query, p *plan.Plan) (*Result, error) {
	return db.execWithPlan(ctx, q, p)
}

// startNode opens the span of plan node n on tr, named after it
// ("scan#1") so EXPLAIN ANALYZE lines actuals up against EXPLAIN's
// estimates; nil, without formatting the name, when tr is.
func startNode(tr *trace.Trace, n plan.Node) *trace.Span {
	if tr == nil {
		return nil
	}
	return tr.Start(fmt.Sprintf("%s#%d", n.Kind(), n.ID()))
}

// execPlan executes every planned read as one pipeline: source →
// [aggregate] → [order/limit] → [project].
//   - The source is the table's merged scan, or a hash join: the build
//     table materialized, then the probe table's scan matched against it.
//   - An aggregate folds the source's blocks through the generic hash fold,
//     or runs on a fused scan+aggregate kernel — the table's own, or the
//     star join's dense kernel — when the source has no overlay view.
//   - A select's rows, and an ordered or limited aggregate's groups, go
//     through one rowCollector, which sorts, keeps the top K or stops at
//     the limit.
//
// The concrete predicates, projections and keys are re-derived from the
// bound query q — plans are generic over parameter values — while the plan
// contributes the structural decisions (build side, pushdown, top-K) and
// the nodes the trace's spans are named after. snap is the statement's
// MVCC snapshot. Caller holds db.mu.RLock.
func (db *Database) execPlan(ctx context.Context, q *query.Query, p *plan.Plan, snap stmtSnap) (*Result, error) {
	// The nodes the spans are named after: a join's build scan, the node
	// the read runs in — the probe scan, a one-table select's scan, or a
	// one-table aggregate, which fuses its scan — and the Sort or TopK.
	var build, run, aggregate, order plan.Node
	var hj *plan.HashJoin
	plan.Walk(p.Root, func(n plan.Node, _ int) {
		switch n := n.(type) {
		case *plan.Scan:
			build, run = run, n // pre-order: a join's build scan comes first
		case *plan.HashJoin:
			hj = n
		case *plan.Aggregate:
			aggregate = n
		case *plan.Sort, *plan.TopK:
			order = n
		}
	})
	if q.Join == nil && aggregate != nil {
		run = aggregate
	}
	_, topK := order.(*plan.TopK)

	left, err := db.runtime(q.Table)
	if err != nil {
		return nil, err
	}
	var j *hashJoin
	var right *schema.Table
	var view *overlayView // of the table the read scans: its one table, or the probe table
	if q.Join == nil {
		view = db.tableView(left, snap.ts, snap.tx)
	} else {
		if j, err = db.newHashJoin(q, hj, snap, left); err != nil {
			return nil, err
		}
		view, right = j.probe.view, j.right
	}
	ex := db.execCtx(ctx)
	// A fused kernel reads base storage only, which would miss or
	// double-count the keys an overlay view versions.
	fused := q.Kind == query.Aggregate && view == nil && (j == nil || j.dense(q))
	tr := trace.FromContext(ctx)
	if j != nil {
		bsp := startNode(tr, build)
		j.open(q, fused, ex)
		bsp.AddRowsOut(j.buildRows)
		bsp.End()
	}
	scan := func(cols []int) exec.Blocks {
		if j != nil {
			return j.scan(cols, ex)
		}
		return mergedScan(left, view, q.Pred, cols, ex)
	}

	cols := q.Cols // a select's output columns
	if cols == nil && q.Kind == query.Select {
		cols = plan.StarCols(left.entry.Schema, right)
	}
	sp := startNode(tr, run)
	res := &Result{Cols: resultCols(q, left.entry.Schema, right, cols)}
	var ar *agg.Result
	var c *rowCollector
	if q.Kind == query.Aggregate {
		if fused && j == nil {
			ar = left.store.Aggregate(q.Aggs, q.GroupBy, q.Pred, ex)
		} else {
			types := left.entry.Schema.ColTypes() // a joined row's: the left table's, then the right's
			if right != nil {
				types = append(types, right.ColTypes()...)
			}
			if fused {
				ar = j.aggregate(q, types, ex)
			} else {
				ar = foldScan(types, q.Aggs, q.GroupBy, scan)
			}
		}
	} else {
		// The sort keys, which may not be projected, ride along per row.
		pos := unionCols(cols, orderCols(q.OrderBy))
		c = collectRows(q, len(cols), pos, topK, scan(pos))
	}
	if j != nil {
		j.tag(tr)
	}
	if err := ctx.Err(); err != nil {
		sp.End()
		return nil, err
	}
	if ar != nil && (order != nil || q.Limit > 0) {
		c = collectRows(q, len(res.Cols), aggCols(q), topK, aggBlocks(ar, ex))
	}
	if c != nil {
		res.Rows = finishCollect(tr, order, c, sp)
	} else {
		res.Rows = ar.Rows() // an aggregate neither ordered nor limited
		sp.AddRowsOut(int64(len(res.Rows)))
		sp.End()
	}
	res.Affected = len(res.Rows)
	return res, nil
}

// resultCols names a read's result columns, a joined read's qualified with
// their table's name as the statement spells it: a select's output columns
// cols, or an aggregate's group columns, then its aggregates.
func resultCols(q *query.Query, left, right *schema.Table, cols []int) []string {
	name := func(c int) string {
		switch {
		case right == nil:
			return left.Columns[c].Name
		case c < left.NumColumns():
			return q.Table + "." + left.Columns[c].Name
		}
		return q.Join.Table + "." + right.Columns[c-left.NumColumns()].Name
	}
	if q.Kind == query.Aggregate {
		out := make([]string, 0, len(q.GroupBy)+len(q.Aggs))
		for _, g := range q.GroupBy {
			out = append(out, name(g))
		}
		for _, s := range q.Aggs {
			if s.Col < 0 {
				out = append(out, s.Func.String()+"(*)")
			} else {
				out = append(out, fmt.Sprintf("%s(%s)", s.Func, name(s.Col)))
			}
		}
		return out
	}
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = name(c)
	}
	return out
}

// aggCols is what an aggregate's output block holds, by table column: its
// group columns, then its aggregates, which are no table column (-1) — so
// its ORDER BY keys, which are group columns, are found among them.
func aggCols(q *query.Query) []int {
	cols := slices.Clip(q.GroupBy)
	for range q.Aggs {
		cols = append(cols, -1)
	}
	return cols
}

// aggBlocks is an aggregate's output as one block: its group columns, then
// its aggregates.
func aggBlocks(ar *agg.Result, ex *exec.Ctx) exec.Blocks {
	cols := ar.Columns()
	return exec.Blocks{N: 1, Ctx: ex.Serial(), Block: func(int, int) [][]value.Value { return nonEmpty(cols) }}
}

// finishCollect ends the span of the scan, probe or aggregate that fed c,
// which reports the rows offered, and runs the collector's sort or top-K
// in the span of the plan's order node.
func finishCollect(tr *trace.Trace, order plan.Node, c *rowCollector, sp *trace.Span) [][]value.Value {
	sp.End()
	var osp *trace.Span
	if order != nil {
		osp = startNode(tr, order)
	}
	rows, offered := c.finish()
	sp.AddRowsOut(offered)
	osp.AddRowsIn(offered)
	osp.AddRowsOut(int64(len(rows)))
	osp.End()
	return rows
}
