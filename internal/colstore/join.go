package colstore

import (
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/value"
)

// KeyDictValues returns the value for every code of column col in the
// combined code space used by JoinProbe: main-dictionary codes first, then
// delta codes offset by the main dictionary's size. A hash-join build side
// can be resolved once per distinct code instead of once per row — the
// dictionary-join optimization of columnar engines.
func (t *Table) KeyDictValues(col int) []value.Value {
	c := &t.cols[col]
	out := make([]value.Value, 0, c.mainDict.Len()+c.deltaDict.Len())
	out = append(out, c.mainDict.Values()...)
	out = append(out, c.deltaDict.Values()...)
	return out
}

// JoinProbe streams every live row matching pred as (key code, extra
// column values) under an ordered reduction (see exec.Reduce): ranges of
// per blocks each accumulate into a partial of their own and the partials
// reach merge in block order, so an aggregating consumer's sums do not
// depend on the pool size. Key codes live in the combined space of
// KeyDictValues; NULL keys yield code -1. extraVals is reused between
// calls — fn must not retain it — and fn must be safe for concurrent
// calls with distinct worker ids. Returning false stops the scan.
//
// The probe is vectorized: the match bitmap is computed once, key codes
// are bulk-decoded per block and the extra columns are gathered
// column-at-a-time, so the per-row work is an array read plus the
// callback.
func JoinProbe[P any](t *Table, keyCol int, extra []int, pred expr.Predicate, ex *exec.Ctx, per int, newPartial func() P, fn func(w int, p P, keyCode int64, extraVals []value.Value) bool, merge func(P)) {
	s := t.acquireScratch()
	defer t.releaseScratch(s)
	match := t.matchBitmapExec(pred, s, ex)
	kc := &t.cols[keyCol]
	mainRows := t.mainRows
	mainLen := int64(kc.mainDict.Len())
	type jpState struct {
		keyCodes  []uint32
		extraVals []value.Value
	}
	states := make([]*jpState, ex.Workers(t.NumBlocks()))
	reduceColumns(t, match, extra, ex, per, newPartial, func(w int, p P, rids []int32, extraCols [][]value.Value) bool {
		st := states[w]
		if st == nil {
			st = &jpState{
				keyCodes:  make([]uint32, blockRows),
				extraVals: make([]value.Value, len(extra)),
			}
			states[w] = st
		}
		b0 := int(rids[0]) / blockRows * blockRows
		if b0 < mainRows {
			kc.mainCodes.UnpackBlock(b0, st.keyCodes[:min(blockRows, mainRows-b0)])
		}
		for k, rid32 := range rids {
			rid := int(rid32)
			var code int64
			if rid < mainRows {
				if kc.mainNulls != nil && kc.mainNulls[rid] {
					code = -1
				} else {
					code = int64(st.keyCodes[rid-b0])
				}
			} else {
				d := rid - mainRows
				if kc.deltaNulls != nil && kc.deltaNulls[d] {
					code = -1
				} else {
					code = mainLen + int64(kc.deltaCodes[d])
				}
			}
			for j := range extra {
				st.extraVals[j] = extraCols[j][k]
			}
			if !fn(w, p, code, st.extraVals) {
				return false
			}
		}
		return true
	}, merge)
}
