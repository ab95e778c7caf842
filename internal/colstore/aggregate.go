package colstore

import (
	"hybridstore/internal/agg"
	"hybridstore/internal/bitset"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/value"
)

// Aggregate computes the given aggregates over live rows matching pred,
// grouped by the groupBy columns. It is the column store's analytical fast
// path: predicate evaluation happens on dictionary codes (matchBitmap),
// group and value columns are bulk-decoded block-at-a-time, and ungrouped
// aggregates use per-code counting — one decode per distinct value instead
// of one per row — which is how compression speeds up aggregation in the
// paper's column store (f_compression).
func (t *Table) Aggregate(specs []agg.Spec, groupBy []int, pred expr.Predicate) *agg.Result {
	return t.AggregateExec(specs, groupBy, pred, nil)
}

// AggregateExec is Aggregate with an execution context: ex carries the
// cancellation hook — polled once per blockRows-sized block; when it
// fires the aggregation is abandoned and the partial result must be
// discarded — and the worker pool the morsel loops draw helpers from. A
// nil ex (or nil ex.Pool) runs serially. Either way partial sums are
// combined per fixed block range in block order (exec.Reduce), so the
// result does not depend on the pool size.
func (t *Table) AggregateExec(specs []agg.Spec, groupBy []int, pred expr.Predicate, ex *exec.Ctx) *agg.Result {
	res := agg.NewResult(specs, groupBy)
	res.SetOutputTypes(t.sch.ColTypes())
	s := t.acquireScratch()
	defer t.releaseScratch(s)
	match := t.matchBitmapExec(pred, s, ex) // nil means all live rows
	switch {
	case len(groupBy) == 0:
		t.aggregateGlobal(res, specs, match, ex)
	case len(groupBy) == 1:
		t.aggregateSingleGroup(res, specs, groupBy[0], match, ex)
	case len(groupBy) == 2 && t.pairGroupFeasible(groupBy):
		t.aggregatePairGroup(res, specs, groupBy, match, ex)
	default:
		t.aggregateGeneric(res, specs, groupBy, match, ex)
	}
	return res
}

// pairGroupDenseLimit bounds the dense bucket array used for two-column
// group-bys (product of the two dictionaries' sizes).
const pairGroupDenseLimit = 1 << 18

// pairGroupFeasible reports whether the two group columns' combined code
// space is small enough for the dense fast path.
func (t *Table) pairGroupFeasible(groupBy []int) bool {
	prod := 1
	for _, g := range groupBy {
		c := &t.cols[g]
		d := c.mainDict.Len() + c.deltaDict.Len() + 1 // +1 for NULL
		if d == 0 {
			d = 1
		}
		if prod > pairGroupDenseLimit/d {
			return false
		}
		prod *= d
	}
	return prod <= pairGroupDenseLimit
}

// rowSource returns the bitset the aggregation iterates: the match bitmap,
// or the tombstone mask when the whole table participates.
func (t *Table) rowSource(match bitset.Bits) bitset.Bits {
	if match == nil {
		return t.liveSet
	}
	return match
}

// countMatches counts contributing rows.
func (t *Table) countMatches(match bitset.Bits) int64 {
	if match == nil {
		return int64(t.live)
	}
	return int64(match.Count())
}

// codeAcc accumulates one (group, spec) cell over main-fragment rows:
// Float-sum plus count, with MIN/MAX tracked as dictionary codes (the
// sorted main dictionary makes code order value order). The empty cell
// has minC all-ones.
type codeAcc struct {
	sum        float64
	cnt        int64
	minC, maxC uint32
}

var emptyCodeAcc = codeAcc{minC: ^uint32(0)}

func newCodeAccs(n int) []codeAcc {
	accs := make([]codeAcc, n)
	for i := range accs {
		accs[i] = emptyCodeAcc
	}
	return accs
}

// add folds one row whose value has main code code and float value f.
// The extrema update is branchless: a range's partial starts empty, so
// the branches would mispredict on a good share of its rows.
func (a *codeAcc) add(f float64, code uint32) {
	a.sum += f
	a.cnt++
	a.minC = min(a.minC, code)
	a.maxC = max(a.maxC, code)
}

// addSum is add for a SUM, AVG or COUNT cell, whose extrema nobody reads.
func (a *codeAcc) addSum(f float64) {
	a.sum += f
	a.cnt++
}

// drain folds b into a and empties b.
func (a *codeAcc) drain(b *codeAcc) {
	if b.cnt == 0 {
		return
	}
	a.sum += b.sum
	a.cnt += b.cnt
	if b.minC < a.minC {
		a.minC = b.minC
	}
	if b.maxC > a.maxC {
		a.maxC = b.maxC
	}
	*b = emptyCodeAcc
}

// reduceRowsPerCell sizes the block ranges of the ordered reduction: a
// range covers at least this many rows per accumulator cell of its
// partial, so folding the partial costs a fraction of scanning the range.
const reduceRowsPerCell = 32

// RangeBlocks returns how many consecutive scan blocks share one partial
// of the given number of accumulator cells in an ordered reduction (see
// exec.Reduce). It depends on the cell count alone, so the ranges of a
// table — and with them the association of every float SUM — are a
// function of the data, not of the worker pool.
func RangeBlocks(cells int) int {
	return max(1, (reduceRowsPerCell*cells+blockRows-1)/blockRows)
}

// denseGroupAgg is the shared engine of the dense grouped fast paths:
// per-(group, spec) scalar accumulators indexed by a caller-computed dense
// group code. Per-row work over the main fragment is integer and float
// scalar ops only — no value comparisons, no per-row decode. Delta rows
// (unsorted dictionaries, few rows) fall back to value-based accumulators
// merged at fold time. The accumulators themselves live in densePartials,
// one per block range, drained into total in range order.
type denseGroupAgg struct {
	t       *Table
	specs   []agg.Spec
	gTotal  int
	fvals   [][]float64 // per spec: main dictionary pre-decoded to floats
	extrema []bool      // per spec: MIN or MAX, the cell tracks code extrema
	valCols []int       // distinct value columns
	valBuf  []int       // per spec: index of its column in valCols (-1: COUNT(*))
	total   densePartial
}

// densePartial is one block range's accumulators. The arrays are
// allocated on first use and given away when drained into an empty total,
// so a reduction with a single range pays for one set.
type densePartial struct {
	accs      []codeAcc   // gTotal x len(specs)
	counts    []int64     // participating rows per group (COUNT(*))
	deltaAccs [][]agg.Acc // per group: value-based delta accumulators
}

// denseScratch is one worker's staging buffers for the dense grouped
// paths: block decode buffers per value column and per group column, and
// the dense group index per batch row.
type denseScratch struct {
	valCodes [][]uint32
	gcodes   []uint32
	gcode2   []uint32 // second group column (pair path), allocated there
	gidx     []uint32
}

func (t *Table) newDenseGroupAgg(specs []agg.Spec, gTotal int) *denseGroupAgg {
	da := &denseGroupAgg{
		t:       t,
		specs:   specs,
		gTotal:  gTotal,
		fvals:   make([][]float64, len(specs)),
		extrema: make([]bool, len(specs)),
		valBuf:  make([]int, len(specs)),
	}
	bufOf := make(map[int]int)
	for si, s := range specs {
		da.valBuf[si] = -1
		if s.Col < 0 {
			continue
		}
		if _, ok := bufOf[s.Col]; !ok {
			bufOf[s.Col] = len(da.valCols)
			da.valCols = append(da.valCols, s.Col)
		}
		da.valBuf[si] = bufOf[s.Col]
		da.extrema[si] = s.Func == agg.Min || s.Func == agg.Max
		mv := t.cols[s.Col].mainDict.Values()
		f := make([]float64, len(mv))
		for i, v := range mv {
			f[i] = v.Float()
		}
		da.fvals[si] = f
	}
	return da
}

// rangeBlocks is the block-range size of this aggregation's reduction.
func (da *denseGroupAgg) rangeBlocks() int {
	return RangeBlocks(da.gTotal * max(1, len(da.specs)))
}

func (da *denseGroupAgg) newPartial() *densePartial { return &densePartial{} }

// scratch returns worker w's staging buffers, allocating them on first use.
func (da *denseGroupAgg) scratch(states []*denseScratch, w int) *denseScratch {
	sc := states[w]
	if sc == nil {
		sc = &denseScratch{
			valCodes: make([][]uint32, len(da.valCols)),
			gcodes:   make([]uint32, blockRows),
			gidx:     make([]uint32, blockRows),
		}
		for i := range sc.valCodes {
			sc.valCodes[i] = make([]uint32, blockRows)
		}
		states[w] = sc
	}
	return sc
}

// addBatch folds one scan batch into p: rids[k] participates in group
// sc.gidx[k]. nm is the count of main-resident rows, mainN the block's
// main span.
func (da *denseGroupAgg) addBatch(p *densePartial, sc *denseScratch, rids []int32, b0, nm, mainN int) {
	t := da.t
	nspec := len(da.specs)
	gidx := sc.gidx
	if p.counts == nil {
		p.accs = newCodeAccs(da.gTotal * nspec)
		p.counts = make([]int64, da.gTotal)
	}
	accs, counts := p.accs, p.counts
	for k := range rids {
		counts[gidx[k]]++
	}
	// Bulk-decode each distinct value column once per block, then
	// accumulate per spec (repeated columns — SUM(x) + AVG(x) — share
	// the decode).
	if nm > 0 {
		for i, col := range da.valCols {
			t.cols[col].mainCodes.UnpackBlock(b0, sc.valCodes[i][:mainN])
		}
	}
	for si := range da.specs {
		s := &da.specs[si]
		if s.Col < 0 || nm == 0 {
			continue
		}
		c := &t.cols[s.Col]
		vcodes := sc.valCodes[da.valBuf[si]]
		f := da.fvals[si]
		switch nulls, extrema := c.mainNulls, da.extrema[si]; {
		case nulls == nil && !extrema:
			for k := 0; k < nm; k++ {
				accs[int(gidx[k])*nspec+si].addSum(f[vcodes[int(rids[k])-b0]])
			}
		case nulls == nil:
			for k := 0; k < nm; k++ {
				code := vcodes[int(rids[k])-b0]
				accs[int(gidx[k])*nspec+si].add(f[code], code)
			}
		default:
			for k := 0; k < nm; k++ {
				rid := int(rids[k])
				if nulls[rid] {
					continue
				}
				code := vcodes[rid-b0]
				if extrema {
					accs[int(gidx[k])*nspec+si].add(f[code], code)
				} else {
					accs[int(gidx[k])*nspec+si].addSum(f[code])
				}
			}
		}
	}
	// Delta rows: value-based accumulation (unsorted dictionary).
	if nm < len(rids) && p.deltaAccs == nil {
		p.deltaAccs = make([][]agg.Acc, da.gTotal)
	}
	for k := nm; k < len(rids); k++ {
		d := int(rids[k]) - t.mainRows
		b := p.deltaAccs[gidx[k]]
		if b == nil {
			b = make([]agg.Acc, nspec)
			p.deltaAccs[gidx[k]] = b
		}
		for si := range da.specs {
			s := &da.specs[si]
			if s.Col < 0 {
				continue
			}
			c := &t.cols[s.Col]
			if c.deltaNulls != nil && c.deltaNulls[d] {
				continue
			}
			b[si].Add(c.deltaDict.Value(c.deltaCodes[d]))
		}
	}
}

// merge drains a finished range's partial into the running total.
// Counts and sums add; code-space min/max transfer only from cells that
// saw rows.
func (da *denseGroupAgg) merge(p *densePartial) {
	tot := &da.total
	if p.counts == nil {
		return // the range had no participating rows
	}
	if tot.counts == nil {
		*tot, *p = *p, densePartial{}
		return
	}
	for g, c := range p.counts {
		tot.counts[g] += c
		p.counts[g] = 0
	}
	for i := range p.accs {
		tot.accs[i].drain(&p.accs[i])
	}
	if p.deltaAccs == nil {
		return
	}
	if tot.deltaAccs == nil {
		tot.deltaAccs, p.deltaAccs = p.deltaAccs, nil
		return
	}
	for g, b := range p.deltaAccs {
		if b == nil {
			continue
		}
		if tot.deltaAccs[g] == nil {
			tot.deltaAccs[g] = b
		} else {
			for si := range b {
				tot.deltaAccs[g][si].Merge(&b[si])
			}
		}
		p.deltaAccs[g] = nil
	}
}

// fold materializes every non-empty group of the total into res. groupKey
// may reuse its returned slice (GroupFor copies).
func (da *denseGroupAgg) fold(res *agg.Result, groupKey func(g uint32) []value.Value) {
	t := da.t
	tot := &da.total
	nspec := len(da.specs)
	for g := range tot.counts {
		if tot.counts[g] == 0 {
			continue
		}
		grp := res.GroupFor(groupKey(uint32(g)))
		for si := range da.specs {
			s := &da.specs[si]
			if s.Col < 0 {
				grp.Accs[si].AddCount(tot.counts[g])
				continue
			}
			if a := &tot.accs[g*nspec+si]; a.cnt > 0 && da.extrema[si] {
				dict := t.cols[s.Col].mainDict
				grp.Accs[si].AddSummary(a.sum, a.cnt, dict.Value(a.minC), dict.Value(a.maxC))
			} else {
				grp.Accs[si].AddSum(a.sum, a.cnt)
			}
			if tot.deltaAccs != nil && tot.deltaAccs[g] != nil {
				grp.Accs[si].Merge(&tot.deltaAccs[g][si])
			}
		}
	}
}

// forBatches iterates the participating rows of match (nil = all live) in
// blockRows batches, handing each batch's ascending rids plus its
// main/delta split to fn: nm rids are main-resident, and the block's main
// span holds mainN rows starting at b0. fn returning false stops the
// iteration. It is the single block-iteration skeleton under scanBatches,
// JoinProbe and the grouped aggregates.
func (t *Table) forBatches(match bitset.Bits, fn func(rids []int32, b0, nm, mainN int) bool) {
	src := t.rowSource(match)
	total := t.totalRows()
	rids := make([]int32, 0, blockRows)
	for b0 := 0; b0 < total; b0 += blockRows {
		n := min(blockRows, total-b0)
		rids = src.AppendSet(rids[:0], b0, b0+n)
		if len(rids) == 0 {
			continue
		}
		nm, mainN := t.splitBatch(rids, b0, n)
		if !fn(rids, b0, nm, mainN) {
			return
		}
	}
}

// aggregateGlobalDelta folds the delta fragment of one value column into
// an ungrouped accumulator by per-code counting. Shared by the serial and
// morsel-parallel global paths (the delta is small and always serial).
func (t *Table) aggregateGlobalDelta(acc *agg.Acc, c *column, match bitset.Bits, dense bool) {
	if t.deltaRows == 0 {
		return
	}
	counts := make([]int64, c.deltaDict.Len())
	if dense && c.deltaNulls == nil {
		for _, code := range c.deltaCodes {
			counts[code]++
		}
	} else {
		src := t.rowSource(match)
		for d, code := range c.deltaCodes {
			rid := t.mainRows + d
			if !src.Get(rid) {
				continue
			}
			if c.deltaNulls != nil && c.deltaNulls[d] {
				continue
			}
			counts[code]++
		}
	}
	for code, cnt := range counts {
		if cnt > 0 {
			acc.AddWeighted(c.deltaDict.Value(uint32(code)), cnt)
		}
	}
}

// aggregateSingleGroup groups by one column. The group column's combined
// codes (main, then delta offset by the main dictionary's size, then a
// NULL slot) index the dense accumulator engine directly.
func (t *Table) aggregateSingleGroup(res *agg.Result, specs []agg.Spec, gcol int, match bitset.Bits, ex *exec.Ctx) {
	gc := &t.cols[gcol]
	gMain := gc.mainDict.Len()
	gTotal := gMain + gc.deltaDict.Len() + 1 // +1: NULL group slot
	gNull := uint32(gTotal - 1)

	da := t.newDenseGroupAgg(specs, gTotal)
	states := make([]*denseScratch, ex.Workers(t.NumBlocks()))
	reduceBatches(t, match, ex, da.rangeBlocks(), da.newPartial, func(w int, p *densePartial, rids []int32, b0, nm, mainN int) bool {
		sc := da.scratch(states, w)
		gcodes, gidx := sc.gcodes, sc.gidx
		if mainN > 0 {
			gc.mainCodes.UnpackBlock(b0, gcodes[:mainN])
		}
		if gc.mainNulls == nil {
			for k := 0; k < nm; k++ {
				gidx[k] = gcodes[int(rids[k])-b0]
			}
		} else {
			for k := 0; k < nm; k++ {
				rid := int(rids[k])
				if gc.mainNulls[rid] {
					gidx[k] = gNull
				} else {
					gidx[k] = gcodes[rid-b0]
				}
			}
		}
		for k := nm; k < len(rids); k++ {
			d := int(rids[k]) - t.mainRows
			if gc.deltaNulls != nil && gc.deltaNulls[d] {
				gidx[k] = gNull
			} else {
				gidx[k] = uint32(gMain) + gc.deltaCodes[d]
			}
		}
		da.addBatch(p, sc, rids, b0, nm, mainN)
		return true
	}, da.merge)
	if ex.Stopped() {
		return
	}

	key := make([]value.Value, 1)
	da.fold(res, func(g uint32) []value.Value {
		switch {
		case g == gNull:
			key[0] = value.Null(gc.typ)
		case int(g) < gMain:
			key[0] = gc.mainDict.Value(g)
		default:
			key[0] = gc.deltaDict.Value(g - uint32(gMain))
		}
		return key
	})
}

// aggregatePairGroup groups by two low-cardinality columns using the dense
// accumulator engine indexed by the combined codes — the typical shape of
// analytical queries like TPC-H Q1 (GROUP BY l_returnflag, l_linestatus).
// Both group columns' codes are bulk-decoded per block.
func (t *Table) aggregatePairGroup(res *agg.Result, specs []agg.Spec, groupBy []int, match bitset.Bits, ex *exec.Ctx) {
	g0, g1 := &t.cols[groupBy[0]], &t.cols[groupBy[1]]
	// Combined code: local code offset by fragment (delta codes follow
	// main codes; the extra slot at the end is the NULL key).
	d0 := g0.mainDict.Len() + g0.deltaDict.Len() + 1
	d1 := g1.mainDict.Len() + g1.deltaDict.Len() + 1
	null0, null1 := uint32(d0-1), uint32(d1-1)
	mainLen0, mainLen1 := uint32(g0.mainDict.Len()), uint32(g1.mainDict.Len())

	da := t.newDenseGroupAgg(specs, d0*d1)
	states := make([]*denseScratch, ex.Workers(t.NumBlocks()))
	reduceBatches(t, match, ex, da.rangeBlocks(), da.newPartial, func(w int, p *densePartial, rids []int32, b0, nm, mainN int) bool {
		sc := da.scratch(states, w)
		if sc.gcode2 == nil {
			sc.gcode2 = make([]uint32, blockRows)
		}
		codes0, codes1, gidx := sc.gcodes, sc.gcode2, sc.gidx
		if mainN > 0 {
			g0.mainCodes.UnpackBlock(b0, codes0[:mainN])
			g1.mainCodes.UnpackBlock(b0, codes1[:mainN])
		}
		for k := 0; k < nm; k++ {
			rid := int(rids[k])
			k0, k1 := codes0[rid-b0], codes1[rid-b0]
			if g0.mainNulls != nil && g0.mainNulls[rid] {
				k0 = null0
			}
			if g1.mainNulls != nil && g1.mainNulls[rid] {
				k1 = null1
			}
			gidx[k] = k0*uint32(d1) + k1
		}
		for k := nm; k < len(rids); k++ {
			d := int(rids[k]) - t.mainRows
			k0, k1 := null0, null1
			if g0.deltaNulls == nil || !g0.deltaNulls[d] {
				k0 = mainLen0 + g0.deltaCodes[d]
			}
			if g1.deltaNulls == nil || !g1.deltaNulls[d] {
				k1 = mainLen1 + g1.deltaCodes[d]
			}
			gidx[k] = k0*uint32(d1) + k1
		}
		da.addBatch(p, sc, rids, b0, nm, mainN)
		return true
	}, da.merge)
	if ex.Stopped() {
		return
	}

	valueOf := func(c *column, code, null uint32) value.Value {
		if code == null {
			return value.Null(c.typ)
		}
		if int(code) < c.mainDict.Len() {
			return c.mainDict.Value(code)
		}
		return c.deltaDict.Value(code - uint32(c.mainDict.Len()))
	}
	key := make([]value.Value, 2)
	da.fold(res, func(g uint32) []value.Value {
		key[0] = valueOf(g0, g/uint32(d1), null0)
		key[1] = valueOf(g1, g%uint32(d1), null1)
		return key
	})
}

// aggregateGeneric handles multi-column group-bys by materializing the key
// per row through the batched scan, hash-grouping each block range into a
// partial result that is merged into res in range order. Group order
// follows first appearance in block order.
func (t *Table) aggregateGeneric(res *agg.Result, specs []agg.Spec, groupBy []int, match bitset.Bits, ex *exec.Ctx) {
	colIdx := make(map[int]int)
	var cols []int
	need := func(c int) int {
		if _, ok := colIdx[c]; !ok {
			colIdx[c] = len(cols)
			cols = append(cols, c)
		}
		return colIdx[c]
	}
	// Positional indices keep the per-row loop free of map lookups. The
	// group count is bounded by the product of the group dictionaries and
	// by the row count.
	groupPos := make([]int, len(groupBy))
	groups := 1
	for i, c := range groupBy {
		groupPos[i] = need(c)
		d := t.cols[c].mainDict.Len() + t.cols[c].deltaDict.Len() + 1
		groups = min(groups*d, t.totalRows())
	}
	specPos := make([]int, len(specs))
	for si, s := range specs {
		specPos[si] = -1
		if s.Col >= 0 {
			specPos[si] = need(s.Col)
		}
	}
	type partial struct{ res *agg.Result }
	key := make([][]value.Value, ex.Workers(t.NumBlocks()))
	per := RangeBlocks(groups * max(1, len(specs)))
	reduceColumns(t, match, cols, ex, per, func() *partial { return &partial{} },
		func(w int, p *partial, rids []int32, colVals [][]value.Value) bool {
			if p.res == nil {
				p.res = agg.NewResult(specs, groupBy)
			}
			if key[w] == nil {
				key[w] = make([]value.Value, len(groupBy))
			}
			for k := range rids {
				for i, pos := range groupPos {
					key[w][i] = colVals[pos][k]
				}
				g := p.res.GroupFor(key[w])
				for si, pos := range specPos {
					if pos < 0 {
						g.Accs[si].AddCount(1)
					} else {
						g.Accs[si].Add(colVals[pos][k])
					}
				}
			}
			return true
		},
		func(p *partial) {
			res.Merge(p.res)
			p.res = nil
		})
}
