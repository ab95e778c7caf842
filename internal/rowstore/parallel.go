package rowstore

import (
	"hybridstore/internal/agg"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
)

// rowMorsel is the row-slot range one parallel aggregation morsel covers.
const rowMorsel = 4 * aggregateBatchRows

// parallelMinRows is the arena size below which aggregation stays serial.
const parallelMinRows = 2 * rowMorsel

// AggregateExec is Aggregate driven by an execution context: when no
// index restricts the candidate set, rowMorsel-sized slot ranges of the
// arena each accumulate into a partial result of their own — on whichever
// worker claims them; the arena is immutable during reads — and the
// partials are merged in slot order (exec.Reduce), so the result does not
// depend on the pool size. Index-assisted predicates (PK point/range,
// secondary equality) visit few rows and accumulate directly, as do small
// arenas.
func (t *Table) AggregateExec(specs []agg.Spec, groupBy []int, pred expr.Predicate, ex *exec.Ctx) *agg.Result {
	capRows := t.capacityRows()
	if capRows < parallelMinRows {
		return t.AggregateStop(specs, groupBy, pred, ex.StopHook())
	}
	if _, ok := t.candidateRows(pred); ok {
		return t.AggregateStop(specs, groupBy, pred, ex.StopHook())
	}
	res := agg.NewResult(specs, groupBy)
	res.SetOutputTypes(t.sch.ColTypes())
	type partial struct{ res *agg.Result }
	nm := (capRows + rowMorsel - 1) / rowMorsel
	exec.Reduce(ex, nm, 1, func() *partial { return &partial{} }, func(_ int, p *partial, m int) bool {
		if p.res == nil {
			p.res = agg.NewResult(specs, groupBy)
		}
		lo := m * rowMorsel
		for rid, hi := lo, min(capRows, lo+rowMorsel); rid < hi; rid++ {
			if !t.valid[rid] {
				continue
			}
			if row := t.Row(rid); pred == nil || pred.Matches(row) {
				p.res.AddRow(row)
			}
		}
		return true
	}, func(p *partial) {
		res.Merge(p.res)
		p.res = nil
	})
	return res
}
