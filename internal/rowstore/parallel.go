package rowstore

import (
	"hybridstore/internal/agg"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/value"
)

// aggregateBatchRows is how many rows a serial aggregation accumulates
// between stop checks — the row store's "batch boundary" for cancellation.
const aggregateBatchRows = 1024

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
// arenas; there the context's stop hook is polled every
// aggregateBatchRows visited rows, and a true return abandons the
// aggregation with a partial result the caller must discard. Only the
// columns the predicate, the grouping and the aggregates name are boxed.
func (t *Table) AggregateExec(specs []agg.Spec, groupBy []int, pred expr.Predicate, ex *exec.Ctx) *agg.Result {
	res := agg.NewResult(specs, groupBy)
	res.SetOutputTypes(t.types)
	cols := append([]int{}, groupBy...)
	for _, s := range specs {
		if s.Col >= 0 {
			cols = append(cols, s.Col)
		}
	}
	capRows := t.capacityRows()
	if _, indexed := t.candidateRows(pred, nil); indexed || capRows < parallelMinRows {
		stop, visited := ex.StopHook(), 0
		t.ScanCols(pred, cols, func(rid int, row []value.Value) bool {
			if stop != nil {
				visited++
				if visited%aggregateBatchRows == 0 && stop() {
					return false
				}
			}
			res.AddRow(row)
			return true
		})
		return res
	}
	predCols := expr.ColumnSet(pred)
	type partial struct {
		res *agg.Result
		row []value.Value
	}
	nm := (capRows + rowMorsel - 1) / rowMorsel
	exec.Reduce(ex, nm, 1, func() *partial { return &partial{row: make([]value.Value, t.stride)} }, func(_ int, p *partial, m int) bool {
		if p.res == nil {
			p.res = agg.NewResult(specs, groupBy)
		}
		lo := m * rowMorsel
		for rid, hi := lo, min(capRows, lo+rowMorsel); rid < hi; rid++ {
			if t.valid[rid] && (pred == nil || t.matches(rid, pred, predCols, p.row)) {
				t.Read(rid, cols, p.row)
				p.res.AddRow(p.row)
			}
		}
		return true
	}, func(p *partial) {
		res.Merge(p.res)
		p.res = nil
	})
	return res
}
