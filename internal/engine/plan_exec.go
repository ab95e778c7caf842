package engine

import (
	"context"
	"fmt"
	"time"

	"hybridstore/internal/agg"
	"hybridstore/internal/exec"
	"hybridstore/internal/plan"
	"hybridstore/internal/query"
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

// readShape is the executor's decomposition of a plan tree: the
// decorator chain above the terminal Scan or HashJoin. The engine's
// storage kernels fuse several of these operators (scan+filter,
// scan+aggregate), so execution dispatches on the shape rather than
// interpreting node-by-node.
type readShape struct {
	scan    *plan.Scan
	join    *plan.HashJoin
	filter  *plan.Filter
	agg     *plan.Aggregate
	sort    *plan.Sort
	topk    *plan.TopK
	limit   *plan.Limit
	project *plan.Project
}

// shapeOf walks a plan root down to its terminal node.
func shapeOf(p *plan.Plan) (readShape, error) {
	var sh readShape
	n := p.Root
	for n != nil {
		switch t := n.(type) {
		case *plan.Project:
			sh.project = t
			n = t.Input
		case *plan.TopK:
			sh.topk = t
			n = t.Input
		case *plan.Sort:
			sh.sort = t
			n = t.Input
		case *plan.Limit:
			sh.limit = t
			n = t.Input
		case *plan.Aggregate:
			sh.agg = t
			n = t.Input
		case *plan.Filter:
			sh.filter = t
			n = t.Input
		case *plan.HashJoin:
			sh.join = t
			return sh, nil
		case *plan.Scan:
			sh.scan = t
			return sh, nil
		default:
			return sh, fmt.Errorf("engine: unknown plan node %T", n)
		}
	}
	return sh, fmt.Errorf("engine: plan has no scan node")
}

// nodeSpanName tags a trace span with its plan node ("scan#1"), letting
// EXPLAIN ANALYZE line actuals up against EXPLAIN's estimates. Callers
// only pay the formatting when a trace is armed.
func nodeSpanName(n plan.Node) string { return fmt.Sprintf("%s#%d", n.Kind(), n.ID()) }

// execPlan executes a read statement through its plan. The concrete
// predicates, projections and keys are re-derived from the bound query q
// — plans are generic over parameter values — while the plan contributes
// the structural decisions (build side, pushdown, top-K) and the node
// ids for tracing. snap is the statement's MVCC snapshot; tables whose
// version overlay contributes nothing at it (the common case) run the
// unchanged fast paths. Caller holds db.mu.RLock.
func (db *Database) execPlan(ctx context.Context, q *query.Query, p *plan.Plan, snap stmtSnap) (*Result, error) {
	sh, err := shapeOf(p)
	if err != nil {
		return nil, err
	}
	if sh.join != nil {
		return db.execJoinPlan(ctx, q, p, &sh, snap)
	}
	if q.Kind == query.Aggregate {
		return db.execAggPlan(ctx, q, &sh, snap)
	}
	return db.execScanPlan(ctx, q, &sh, snap)
}

// execScanPlan executes a planned single-table SELECT: the table's block
// scan feeds a rowCollector.
func (db *Database) execScanPlan(ctx context.Context, q *query.Query, sh *readShape, snap stmtSnap) (*Result, error) {
	rt, err := db.runtime(q.Table)
	if err != nil {
		return nil, err
	}
	sch := rt.entry.Schema
	cols := q.Cols
	if cols == nil {
		cols = plan.StarCols(sch, nil)
	}
	res := &Result{Cols: make([]string, len(cols))}
	for i, c := range cols {
		res.Cols[i] = sch.Columns[c].Name
	}
	// The sort keys, which may not be projected, ride along per row.
	scanCols := unionCols(cols, orderCols(q.OrderBy))
	tr := trace.FromContext(ctx)
	var ssp *trace.Span
	if tr != nil {
		ssp = tr.Start(nodeSpanName(sh.scan))
	}
	c := collectRows(q, len(cols), scanCols, sh.topk != nil, mergedScan(rt, db.tableView(rt, snap.ts, snap.tx), q.Pred, scanCols, db.execCtx(ctx)))
	if err := ctx.Err(); err != nil {
		ssp.End()
		return nil, err
	}
	res.Rows = finishCollect(tr, sh, c, ssp)
	res.Affected = len(res.Rows)
	return res, nil
}

// finishCollect ends the span of the scan or probe that fed c, which
// reports the rows offered, and runs the collector's sort or top-K in a
// span of its own.
func finishCollect(tr *trace.Trace, sh *readShape, c *rowCollector, sp *trace.Span) [][]value.Value {
	sp.End()
	var osp *trace.Span
	if tr != nil && (sh.topk != nil || sh.sort != nil) {
		var n plan.Node = sh.sort
		if sh.topk != nil {
			n = sh.topk
		}
		osp = tr.Start(nodeSpanName(n))
	}
	rows, offered := c.finish()
	sp.AddRowsOut(offered)
	osp.AddRowsIn(offered)
	osp.AddRowsOut(int64(len(rows)))
	osp.End()
	return rows
}

// execAggPlan executes a planned single-table aggregate through the
// storage layer's fused scan+aggregate kernel — or, when the statement's
// snapshot view overlays versioned rows, through the generic hash fold
// over the merged scan (the kernels only see base storage, which would miss
// or double-count versioned keys).
func (db *Database) execAggPlan(ctx context.Context, q *query.Query, sh *readShape, snap stmtSnap) (*Result, error) {
	rt, err := db.runtime(q.Table)
	if err != nil {
		return nil, err
	}
	sch := rt.entry.Schema
	tr := trace.FromContext(ctx)
	var asp *trace.Span
	if tr != nil && sh.agg != nil {
		asp = tr.Start(nodeSpanName(sh.agg))
	}
	ex := db.execCtx(ctx)
	var ar *agg.Result
	if view := db.tableView(rt, snap.ts, snap.tx); view != nil {
		ar = foldScan(sch.ColTypes(), q.Aggs, q.GroupBy, func(cols []int) exec.Blocks { return mergedScan(rt, view, q.Pred, cols, ex) })
	} else {
		ar = rt.store.Aggregate(q.Aggs, q.GroupBy, q.Pred, ex)
	}
	if err := ctx.Err(); err != nil {
		asp.End()
		return nil, err
	}
	res := &Result{Rows: ar.Rows()}
	if asp != nil {
		asp.AddRowsOut(int64(len(res.Rows)))
		asp.End()
	}
	for _, g := range q.GroupBy {
		res.Cols = append(res.Cols, sch.Columns[g].Name)
	}
	for _, s := range q.Aggs {
		res.Cols = append(res.Cols, specName(sch, s))
	}
	if err := sortAggRows(res.Rows, q); err != nil {
		return nil, err
	}
	res.Affected = len(res.Rows)
	return res, nil
}
