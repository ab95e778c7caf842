package engine

import (
	"context"
	"strings"
	"time"

	"hybridstore/internal/metrics"
	"hybridstore/internal/plan"
	"hybridstore/internal/query"
	"hybridstore/internal/trace"
	"hybridstore/internal/value"
)

// ExplainAnalyzeContext executes q with tracing armed and returns the
// trace — not the statement's rows — as a result set: one row per
// execution stage plus synthetic "storage", "parallel" and "total" rows.
// Because the output is an ordinary Result it travels through the wire
// protocol and driver unchanged.
func (db *Database) ExplainAnalyzeContext(ctx context.Context, q *query.Query) (*Result, error) {
	tr := trace.New()
	res, err := db.ExecContext(trace.WithTrace(ctx, tr), q)
	if err != nil {
		return nil, err
	}
	return explainResult(tr, res), nil
}

// ExplainContext plans q without executing it and renders the chosen
// plan tree — one operator per row with the planner's cost and
// cardinality estimates — as a result set, so EXPLAIN travels through
// the wire protocol and driver like any query. Tree shape is conveyed
// by two-space indentation of the operator column.
func (db *Database) ExplainContext(ctx context.Context, q *query.Query) (*Result, error) {
	p, err := db.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	return ExplainPlanResult(p), nil
}

// explainPlanCols is the column set of a plain EXPLAIN result.
var explainPlanCols = []string{"id", "operator", "est_rows", "est_cost_ns", "detail"}

// ExplainPlanResult renders a plan tree as an EXPLAIN result set.
func ExplainPlanResult(p *plan.Plan) *Result {
	out := &Result{Cols: explainPlanCols}
	plan.Walk(p.Root, func(n plan.Node, depth int) {
		est := n.Estimate()
		out.Rows = append(out.Rows, []value.Value{
			value.NewBigint(int64(n.ID())),
			value.NewVarchar(strings.Repeat("  ", depth) + n.Kind()),
			value.NewBigint(int64(est.Rows)),
			value.NewBigint(int64(est.CostNs)),
			value.NewVarchar(n.Detail()),
		})
	})
	out.Affected = len(out.Rows)
	return out
}

// explainCols is the column set of an EXPLAIN ANALYZE result.
var explainCols = []string{"stage", "time_ns", "rows_in", "rows_out", "detail"}

func explainRow(stage string, d time.Duration, rowsIn, rowsOut int64, detail string) []value.Value {
	return []value.Value{
		value.NewVarchar(stage),
		value.NewBigint(d.Nanoseconds()),
		value.NewBigint(rowsIn),
		value.NewBigint(rowsOut),
		value.NewVarchar(detail),
	}
}

// explainResult renders a finished trace as a result set.
func explainResult(tr *trace.Trace, res *Result) *Result {
	out := &Result{Cols: explainCols, Duration: res.Duration}
	for _, s := range tr.Spans() {
		out.Rows = append(out.Rows, explainRow(s.Stage(), s.Duration(), s.RowsIn(), s.RowsOut(), s.DetailString()))
	}
	if c := tr.CountersString(); c != "" {
		out.Rows = append(out.Rows, explainRow("storage", 0, 0, 0, c))
	}
	if detail, busy, ok := tr.Parallel(); ok {
		out.Rows = append(out.Rows, explainRow("parallel", busy, 0, 0, detail))
	}
	out.Rows = append(out.Rows, explainRow("total", res.Duration, 0, int64(resultRows(res)), ""))
	out.Affected = len(out.Rows)
	return out
}

// MetricsResult renders the process-wide metrics registry as a result
// set (metric name, value) so SHOW METRICS works over any transport.
// Histograms expand to _count/_sum/_p50/_p99 rows.
func MetricsResult() *Result {
	rows := metrics.Default().Rows()
	res := &Result{Cols: []string{"metric", "value"}}
	for _, r := range rows {
		res.Rows = append(res.Rows, []value.Value{
			value.NewVarchar(r.Name),
			value.NewDouble(r.Value),
		})
	}
	res.Affected = len(res.Rows)
	return res
}
