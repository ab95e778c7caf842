package colstore

import (
	"hybridstore/internal/agg"
	"hybridstore/internal/bitset"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/value"
)

// AggregateExec computes the given aggregates over live rows matching
// pred, grouped by the groupBy columns. It is the column store's
// analytical fast path: predicate evaluation happens on dictionary codes
// (matchBitmap), and every aggregation the dense kernel can number —
// ungrouped, or grouped on one column or on two with a small combined code
// space — runs on it (DenseAgg), value columns decoded and gathered
// block-at-a-time; only wider group-bys take the generic hash fold. ex
// carries the cancellation hook — polled once per blockRows-sized block; when it
// fires the aggregation is abandoned and the partial result must be
// discarded — and the worker pool the morsel loops draw helpers from. A
// nil ex (or nil ex.Pool) runs serially. Either way partial sums are
// combined per fixed block range in block order (exec.Reduce), so the
// result does not depend on the pool size.
func (t *Table) AggregateExec(specs []agg.Spec, groupBy []int, pred expr.Predicate, ex *exec.Ctx) *agg.Result {
	res := agg.NewResult(specs, groupBy)
	res.SetOutputTypes(t.sch.ColTypes())
	if t.AggregateDense(res, &DenseAgg{Specs: specs, GroupBy: groupBy}, pred, ex) {
		return res
	}
	s := t.acquireScratch()
	defer t.releaseScratch(s)
	match := t.matchBitmapExec(pred, s, ex) // nil means all live rows
	res.Fold(RangeBlocks(t.groupBound(groupBy)*max(1, len(specs))), func(cols []int) exec.Blocks {
		b, _ := t.matchBlocks(match, cols, ex)
		return b
	})
	return res
}

// AggregateDense folds the aggregation q over live rows matching pred into
// res through the dense kernel (see DenseAgg). It reports false, leaving
// res alone, when the kernel cannot number the groups of q.GroupBy densely
// — more than two columns, or two with too large a combined code space. A
// stopped ex leaves res without the aggregation, to be discarded.
func (t *Table) AggregateDense(res *agg.Result, q *DenseAgg, pred expr.Predicate, ex *exec.Ctx) bool {
	da, ok := t.newDenseGroupAgg(q)
	if !ok {
		return false
	}
	s := t.acquireScratch()
	defer t.releaseScratch(s)
	da.run(res, t.matchBitmapExec(pred, s, ex), ex)
	return true
}

// pairGroupDenseLimit bounds the dense bucket array used for two-column
// group-bys (product of the two columns' code spaces).
const pairGroupDenseLimit = 1 << 18

// pairGroupFeasible reports whether the two group columns' combined code
// space is small enough for the dense kernel.
func (t *Table) pairGroupFeasible(groupBy []int) bool {
	return t.CodeSpace(groupBy[0])*t.CodeSpace(groupBy[1]) <= pairGroupDenseLimit
}

// rowSource returns the bitset the aggregation iterates: the match bitmap,
// or the tombstone mask when the whole table participates.
func (t *Table) rowSource(match bitset.Bits) bitset.Bits {
	if match == nil {
		return t.liveSet
	}
	return match
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

// DenseAgg describes one aggregation for the dense kernel — ungrouped
// aggregates are its one-group case: per-(group, spec) scalar accumulators
// indexed by a dense group id and fed block-at-a-time from unpacked code
// vectors, partials per block range merged in block order. Per-row work
// over the main fragment is integer and float scalar ops only — no value
// comparisons, no per-row decode.
// The kernel has two extension points, which is how a star-join probe and
// the spanning aggregate of a vertical split run on it: the caller may
// number the groups itself from the codes of columns it names, and a spec
// whose column does not live in the scanned table is fed as a
// caller-filled float vector per batch.
type DenseAgg struct {
	// Specs are the aggregates over columns of the scanned table (Col -1:
	// COUNT(*)). Ext, when non-nil, names per spec the external vector
	// that feeds it instead (-1: the table column); extrema have no
	// external form, so only SUM, AVG and COUNT can be fed that way.
	Specs []agg.Spec
	Ext   []int
	// GroupBy are grouping columns of the scanned table, numbered by
	// dictionary code (at most two, with a small combined code space). A
	// caller that sets Key numbers the groups itself: Fill assigns every
	// batch row a group below Groups (or drops it), and Key returns a
	// group's key (it may reuse the slice).
	GroupBy []int
	Groups  int
	Key     func(g uint32) []value.Value
	// Fill, when set, sees every batch before it is accumulated, with the
	// codes of the columns Cols decoded.
	Cols []int
	Fill func(b *DenseBatch)
}

// DenseBatch is one scan batch on its way into the dense kernel.
type DenseBatch struct {
	W     int        // the worker staging it, an id below the scan context's Workers(NumBlocks())
	Rids  []int32    // row ids, ascending
	Codes [][]uint32 // Codes[j][k]: code of column Cols[j] at row Rids[k] (see CodeSpace)
	Group []uint32   // dense group of row k
	Drop  uint32     // the group that takes a row out of the aggregation (DenseAgg.Groups when the caller numbers them)
	Ext   []ExtVec   // the external vectors, one value per batch row
}

// ExtVec is one external vector. The kernel hands it to Fill without
// NULLs; Fill marks a NULL at row k by setting Null[k].
type ExtVec struct {
	Vals []float64
	Null []bool
}

// CodeSpace returns the size of column col's code space: main-dictionary
// codes first (in value order), then delta-dictionary codes offset by the
// main dictionary's size, then one code — the last — for NULL.
func (t *Table) CodeSpace(col int) int {
	c := &t.cols[col]
	return c.mainDict.Len() + c.deltaDict.Len() + 1
}

// CodeValue returns the value behind a code of column col's code space.
func (t *Table) CodeValue(col int, code uint32) value.Value {
	c := &t.cols[col]
	switch mainLen := uint32(c.mainDict.Len()); {
	case code < mainLen:
		return c.mainDict.Value(code)
	case int(code-mainLen) < c.deltaDict.Len():
		return c.deltaDict.Value(code - mainLen)
	}
	return value.Null(c.typ)
}

// CodeWords sets dst[k] to the payload (Value.Bits) of the value behind
// codes[k] of column col's code space; false, with dst untouched, for a
// VARCHAR or nullable column, whose values a payload does not tell apart.
func (t *Table) CodeWords(col int, codes []uint32, dst []uint64) bool {
	c := &t.cols[col]
	if c.typ == value.Varchar || t.sch.Columns[col].Nullable {
		return false
	}
	mainLen := uint32(c.mainDict.Len())
	for k, code := range codes {
		if code < mainLen {
			dst[k] = c.mainDict.Word(code)
		} else {
			dst[k] = c.deltaDict.Word(code - mainLen)
		}
	}
	return true
}

// LookupCodes returns the codes under which v, a non-NULL value of the
// column's type, occurs in column col's code space: one from the main and
// one from the delta dictionary, each -1 when v is not in it. hint is a
// guess at the main code — callers resolving ascending values pass the
// code after their last hit and skip the binary search when it is right.
func (t *Table) LookupCodes(col int, v value.Value, hint int) (main, delta int) {
	c := &t.cols[col]
	main, delta = -1, -1
	if hint >= 0 && hint < c.mainDict.Len() && value.Equal(c.mainDict.Value(uint32(hint)), v) {
		main = hint
	} else if code, ok := c.mainDict.Code(v); ok {
		main = int(code)
	}
	if c.deltaDict.Len() > 0 {
		if code, ok := c.deltaDict.Code(v); ok {
			delta = c.mainDict.Len() + int(code)
		}
	}
	return main, delta
}

// gatherCodes fills dst[k] with column c's code (see CodeSpace) at rids[k];
// b0, nm and mainN describe the batch (see batchWalker.block), block is a
// blockRows decode buffer.
func (t *Table) gatherCodes(c *column, rids []int32, b0, nm, mainN int, block, dst []uint32) {
	mainLen := uint32(c.mainDict.Len())
	null := mainLen + uint32(c.deltaDict.Len())
	switch {
	case nm == 0:
	case nm == mainN && c.mainNulls == nil:
		c.mainCodes.UnpackBlock(b0, dst[:mainN]) // every main row of the block participates
	case c.mainNulls == nil:
		c.mainCodes.UnpackBlock(b0, block[:mainN])
		for k := 0; k < nm; k++ {
			dst[k] = block[int(rids[k])-b0]
		}
	default:
		c.mainCodes.UnpackBlock(b0, block[:mainN])
		for k := 0; k < nm; k++ {
			if rid := int(rids[k]); c.mainNulls[rid] {
				dst[k] = null
			} else {
				dst[k] = block[rid-b0]
			}
		}
	}
	for k := nm; k < len(rids); k++ {
		if d := int(rids[k]) - t.mainRows; c.deltaNulls != nil && c.deltaNulls[d] {
			dst[k] = null
		} else {
			dst[k] = mainLen + c.deltaCodes[d]
		}
	}
}

// denseGroupAgg is one run of the dense kernel. Delta rows (unsorted
// dictionaries, few rows) fall back to value-based accumulators merged at
// fold time. The accumulators themselves live in densePartials, one per
// block range, drained into total in range order.
type denseGroupAgg struct {
	t        *Table
	q        *DenseAgg
	gTotal   int   // groups; the accumulators have one more slot, DenseBatch.Drop
	global   bool  // no grouping and no Fill: every row lands in group 0
	codeCols []int // columns decoded per batch: the kernel's own grouping columns, then q.Cols
	key      func(g uint32) []value.Value
	extrema  []bool // per spec: MIN or MAX, the cell tracks code extrema
	ext      []int  // per spec: its external vector, -1 for none
	valCols  []int  // distinct value columns
	valBuf   []int  // per spec: index of its column in valCols (-1: COUNT(*) or external)
	total    densePartial
}

// densePartial is one block range's accumulators. The arrays are
// allocated on first use and given away when drained into an empty total,
// so a reduction with a single range pays for one set.
type densePartial struct {
	accs      []codeAcc   // (gTotal+1) x len(specs)
	counts    []int64     // participating rows per group (COUNT(*))
	deltaAccs [][]agg.Acc // per group: value-based delta accumulators
}

// denseScratch is one worker's staging buffers for the dense kernel: the
// batch's codes per code column, one value column's codes and floats, a
// block decode buffer and the batch itself.
type denseScratch struct {
	codes  [][]uint32
	vcodes []uint32
	vals   []float64
	block  []uint32
	gidx   []uint32
	batch  DenseBatch
}

// newDenseGroupAgg prepares a run of q; ok is false when the kernel cannot
// number the groups of q.GroupBy densely.
func (t *Table) newDenseGroupAgg(q *DenseAgg) (da *denseGroupAgg, ok bool) {
	specs := q.Specs
	da = &denseGroupAgg{
		t: t, q: q, gTotal: q.Groups, codeCols: q.Cols, key: q.Key,
		extrema: make([]bool, len(specs)),
		ext:     make([]int, len(specs)),
		valBuf:  make([]int, len(specs)),
	}
	if q.Key == nil {
		da.codeCols = append(append([]int{}, q.GroupBy...), q.Cols...)
		key := make([]value.Value, len(q.GroupBy))
		switch len(q.GroupBy) {
		case 0:
			da.gTotal, da.global = 1, q.Fill == nil // Fill may drop rows
		case 1:
			da.gTotal = t.CodeSpace(q.GroupBy[0])
		case 2:
			if !t.pairGroupFeasible(q.GroupBy) {
				return nil, false
			}
			da.gTotal = t.CodeSpace(q.GroupBy[0]) * t.CodeSpace(q.GroupBy[1])
		default:
			return nil, false
		}
		da.key = func(g uint32) []value.Value {
			// The last column's code varies fastest (see index).
			for i := len(key) - 1; i >= 0; i-- {
				d := uint32(t.CodeSpace(q.GroupBy[i]))
				key[i] = t.CodeValue(q.GroupBy[i], g%d)
				g /= d
			}
			return key
		}
	}
	bufOf := make(map[int]int)
	for si, s := range specs {
		da.valBuf[si], da.ext[si] = -1, -1
		if q.Ext != nil && q.Ext[si] >= 0 {
			da.ext[si] = q.Ext[si]
			continue
		}
		if s.Col < 0 {
			continue
		}
		if _, ok := bufOf[s.Col]; !ok {
			bufOf[s.Col] = len(da.valCols)
			da.valCols = append(da.valCols, s.Col)
		}
		da.valBuf[si] = bufOf[s.Col]
		da.extrema[si] = s.Func == agg.Min || s.Func == agg.Max
	}
	return da, true
}

// scratch returns worker w's staging buffers, allocating them on first use.
func (da *denseGroupAgg) scratch(states []*denseScratch, w int) *denseScratch {
	sc := states[w]
	if sc == nil {
		nExt := 0
		for _, e := range da.ext {
			nExt = max(nExt, e+1)
		}
		sc = &denseScratch{
			codes:  make([][]uint32, len(da.codeCols)),
			vcodes: make([]uint32, blockRows),
			vals:   make([]float64, blockRows),
			block:  make([]uint32, blockRows),
			gidx:   make([]uint32, blockRows),
			batch: DenseBatch{W: w, Drop: uint32(da.gTotal),
				Codes: make([][]uint32, len(da.q.Cols)), Ext: make([]ExtVec, nExt)},
		}
		for i := range sc.codes {
			sc.codes[i] = make([]uint32, blockRows)
		}
		for e := range sc.batch.Ext {
			sc.batch.Ext[e] = ExtVec{Vals: make([]float64, blockRows), Null: make([]bool, blockRows)}
		}
		states[w] = sc
	}
	return sc
}

// run accumulates the rows of match (nil = all live) and folds the groups
// into res; a stopped run leaves res untouched.
func (da *denseGroupAgg) run(res *agg.Result, match bitset.Bits, ex *exec.Ctx) {
	t := da.t
	states := make([]*denseScratch, ex.Workers(t.NumBlocks()))
	per := RangeBlocks(da.gTotal * max(1, len(da.q.Specs)))
	bw, run := t.walkBatches(match, ex)
	exec.Reduce(run, t.NumBlocks(), per, func() *densePartial { return &densePartial{} }, func(w int, p *densePartial, b int) bool {
		if rids, b0, nm, mainN := bw.block(w, b); len(rids) > 0 {
			sc := da.scratch(states, w)
			da.index(sc, rids, b0, nm, mainN)
			da.addBatch(p, sc, rids, b0, nm, mainN)
		}
		return true
	}, da.merge)
	bw.report(run.Tracer())
	if !ex.Stopped() {
		da.fold(res)
	}
}

// index stages one batch in sc.batch: the code columns decoded, every row
// numbered with its dense group and the external vectors filled.
func (da *denseGroupAgg) index(sc *denseScratch, rids []int32, b0, nm, mainN int) {
	t, n := da.t, len(rids)
	for j, col := range da.codeCols {
		t.gatherCodes(&t.cols[col], rids, b0, nm, mainN, sc.block, sc.codes[j])
	}
	b := &sc.batch
	b.Rids, b.Group = rids, sc.gidx[:n]
	own := len(da.codeCols) - len(b.Codes) // the kernel's own grouping columns
	for j := range b.Codes {
		b.Codes[j] = sc.codes[own+j][:n]
	}
	switch {
	case own == 1:
		b.Group = sc.codes[0][:n]
	case own == 2:
		d1 := uint32(t.CodeSpace(da.codeCols[1]))
		for k := range b.Group {
			b.Group[k] = sc.codes[0][k]*d1 + sc.codes[1][k]
		}
	case da.q.Key == nil:
		clear(b.Group) // the one global group; Fill may have dropped rows of the last batch
	}
	if da.q.Fill == nil {
		return
	}
	for e := range b.Ext {
		clear(b.Ext[e].Null[:n])
	}
	da.q.Fill(b)
}

// addBatch folds the batch staged in sc into p. nm is the count of
// main-resident rows, mainN the block's main span. A value column is
// decoded once for the specs that share it (SUM(x) + AVG(x)) and its
// dictionary floats gathered into sc.vals, then added: in register
// partials when the batch is the one global group (sumBatch), into each
// row's group cell otherwise. MIN and MAX track code extrema; delta rows
// (unsorted dictionary) keep value accumulators.
func (da *denseGroupAgg) addBatch(p *densePartial, sc *denseScratch, rids []int32, b0, nm, mainN int) {
	t := da.t
	specs := da.q.Specs
	nspec := len(specs)
	gidx := sc.batch.Group
	if p.counts == nil {
		p.accs = newCodeAccs((da.gTotal + 1) * nspec)
		p.counts = make([]int64, da.gTotal+1)
	}
	accs, counts := p.accs, p.counts
	if da.global {
		counts[0] += int64(len(rids))
	} else {
		for _, g := range gidx {
			counts[g]++
		}
	}
	for si, e := range da.ext {
		if e < 0 {
			continue
		}
		v := &sc.batch.Ext[e]
		for k, g := range gidx {
			if !v.Null[k] {
				accs[int(g)*nspec+si].addSum(v.Vals[k])
			}
		}
	}
	for i := 0; i < len(da.valCols) && nm > 0; i++ {
		c := &t.cols[da.valCols[i]]
		codes, vals, f := sc.vcodes[:nm], sc.vals[:nm], c.mainDict.Floats()
		t.gatherCodes(c, rids[:nm], b0, nm, mainN, sc.block, codes)
		nulls, mainLen := 0, uint32(len(f)) // a NULL's code is past the main dictionary
		if c.mainNulls == nil {
			for k, code := range codes {
				vals[k] = f[code]
			}
		} else {
			for k, code := range codes {
				vals[k] = 0 // a NULL adds nothing to the global sum
				if code < mainLen {
					vals[k] = f[code]
				} else {
					nulls++
				}
			}
		}
		for si := range specs {
			if da.valBuf[si] != i {
				continue
			}
			switch a, extrema := &accs[si], da.extrema[si]; {
			case da.global && !extrema:
				a.sum += sumBatch(vals)
				a.cnt += int64(nm - nulls)
			case da.global && nulls == 0:
				lo, hi := a.minC, a.maxC
				for _, code := range codes {
					lo, hi = min(lo, code), max(hi, code)
				}
				a.minC, a.maxC = lo, hi
				a.cnt += int64(nm)
			default:
				for k, code := range codes {
					if code >= mainLen {
						continue
					}
					if a := &accs[int(gidx[k])*nspec+si]; extrema {
						a.add(vals[k], code)
					} else {
						a.addSum(vals[k])
					}
				}
			}
		}
	}
	// Delta rows: value-based accumulation (unsorted dictionary).
	if nm < len(rids) && p.deltaAccs == nil {
		p.deltaAccs = make([][]agg.Acc, da.gTotal+1)
	}
	for k := nm; k < len(rids); k++ {
		d := int(rids[k]) - t.mainRows
		b := p.deltaAccs[gidx[k]]
		if b == nil {
			b = make([]agg.Acc, nspec)
			p.deltaAccs[gidx[k]] = b
		}
		for si := range specs {
			s := &specs[si]
			if s.Col < 0 || da.ext[si] >= 0 {
				continue
			}
			c := &t.cols[s.Col]
			if c.deltaNulls != nil && c.deltaNulls[d] {
				continue
			}
			b[si].AddFor(s.Func, c.deltaDict.Value(c.deltaCodes[d]))
		}
	}
}

// sumBatch adds vals in four register partials, one per position mod 4,
// joined in a fixed order: a batch's sum depends on its values alone.
func sumBatch(vals []float64) float64 {
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= len(vals); k += 4 {
		s0 += vals[k]
		s1 += vals[k+1]
		s2 += vals[k+2]
		s3 += vals[k+3]
	}
	for ; k < len(vals); k++ {
		s0 += vals[k]
	}
	return (s0 + s1) + (s2 + s3)
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

// fold materializes every non-empty group of the total into res; what was
// dropped stays behind in the slot past the last group.
func (da *denseGroupAgg) fold(res *agg.Result) {
	t := da.t
	tot := &da.total
	nspec := len(da.q.Specs)
	if tot.counts == nil {
		return
	}
	for g := 0; g < da.gTotal; g++ {
		if tot.counts[g] == 0 {
			continue
		}
		var grp *agg.Group
		if len(res.GroupCols) == 0 {
			grp = res.Global()
		} else {
			grp = res.GroupFor(da.key(uint32(g)))
		}
		for si := range da.q.Specs {
			s := &da.q.Specs[si]
			if s.Col < 0 && da.ext[si] < 0 {
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

// groupBound bounds the group count of a grouping on cols: the product of
// their code spaces, and the row count.
func (t *Table) groupBound(cols []int) int {
	groups := 1
	for _, c := range cols {
		groups = min(groups*t.CodeSpace(c), t.totalRows())
	}
	return groups
}
