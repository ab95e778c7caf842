package colstore

import (
	"sort"

	"hybridstore/internal/agg"
	"hybridstore/internal/bitset"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/trace"
	"hybridstore/internal/value"
)

// parallelMinRows is the table size below which scans and aggregations
// stay serial: the per-worker state setup outweighs the work.
const parallelMinRows = 8 * blockRows

// globalCountsLimit is the largest main dictionary for which the
// parallel ungrouped path keeps per-worker per-code count arrays (the
// compression-aware fast path); larger dictionaries switch to scalar
// code accumulators so memory stays bounded.
const globalCountsLimit = 1 << 16

// callerOnly returns ex stripped of its pool — same cancellation hook and
// trace, no helper goroutines — when rows is too few to be worth them.
func callerOnly(ex *exec.Ctx, rows int) *exec.Ctx {
	if rows < parallelMinRows {
		return ex.Serial()
	}
	return ex
}

// NumBlocks returns the number of blockRows-sized scan blocks (the
// morsel count of a full scan over this table).
func (t *Table) NumBlocks() int { return (t.totalRows() + blockRows - 1) / blockRows }

func (t *Table) numMainBlocks() int { return (t.mainRows + blockRows - 1) / blockRows }

// matchBitmapExec evaluates pred over all row slots, returning a per-slot
// match bitset that already excludes tombstoned rows; nil means "all live
// rows match". Compiled matchers run block-at-a-time over bulk-decoded code
// buffers with zone-map skipping, every conjunct on a block — most
// selective first, so later ones skip words that are already zero — before
// the next; on a table worth it the blocks are morsels. Blocks are
// bitset-word aligned, so concurrent workers write disjoint words; the
// delta passes and the tombstone AND run serially afterwards (the delta
// shares its first word with the last main block). A predicate naming the
// whole key sets the one bit of its row (keyedRow) and walks no block. The
// bitset is backed by s and valid until s is released. Zone-map outcomes go
// to ex's trace and always to the cumulative package metrics.
func (t *Table) matchBitmapExec(pred expr.Predicate, s *scanScratch, ex *exec.Ctx) bitset.Bits {
	if rid, ok := t.keyedRow(pred); ok {
		match := s.bits(t.totalRows())
		match.Zero()
		if rid >= 0 {
			match.Set(rid)
		}
		return match
	}
	nb := t.numMainBlocks()
	run := ex // what the blocks run on: nothing (a plain loop) unless the table is worth helpers
	if t.totalRows() < parallelMinRows || !ex.Parallel(nb) {
		run = nil
	}
	matchers, ok := t.compileMatchers(pred)
	if !ok {
		return t.fallbackBitmapExec(pred, s, run)
	}
	if len(matchers) == 0 {
		return nil
	}
	sort.Slice(matchers, func(i, j int) bool {
		return t.matcherSelectivity(&matchers[i]) < t.matcherSelectivity(&matchers[j])
	})
	match := s.bits(t.totalRows())
	blockWords := make([][]uint64, run.Workers(nb))
	counts := make([]scanCounts, len(blockWords))
	run.Morsels(nb, func(w, b int) bool {
		bw := blockWords[w]
		if bw == nil {
			bw = make([]uint64, blockRows/64)
			blockWords[w] = bw
		}
		sc := &counts[w]
		b0 := b * blockRows
		sc.count(t.fillMatcherBlock(&matchers[0], match, b0, true, bw))
		for i := 1; i < len(matchers); i++ {
			sc.count(t.fillMatcherBlock(&matchers[i], match, b0, false, bw))
		}
		return true
	})
	var sc scanCounts
	for w := range counts {
		sc.add(counts[w])
	}
	sc.report(ex.Tracer())
	for i := range matchers {
		t.fillMatcherDelta(&matchers[i], match, i == 0)
	}
	if t.live != t.totalRows() {
		match.And(t.liveSet[:len(match)])
	}
	return match
}

// fallbackBitmapExec evaluates an arbitrary predicate by materializing the
// referenced columns, one block per morsel: each worker gathers them for the
// block's live rows, runs the predicate per row over a scratch row and sets
// bits in its block's (word-disjoint) region of the shared bitmap.
func (t *Table) fallbackBitmapExec(pred expr.Predicate, s *scanScratch, ex *exec.Ctx) bitset.Bits {
	cols := expr.ColumnSet(pred)
	match := s.bits(t.totalRows())
	match.Zero()
	cg := t.gatherColumns(cols, ex)
	defer cg.release()
	bw, ex := t.walkBatches(nil, ex)
	rows := make([][]value.Value, len(bw.states))
	ex.Morsels(t.NumBlocks(), func(w, b int) bool {
		rids, b0, nm, mainN := bw.block(w, b)
		if len(rids) == 0 {
			return true
		}
		if rows[w] == nil {
			rows[w] = make([]value.Value, len(t.cols))
		}
		colVals := cg.gather(w, rids, b0, nm, mainN)
		for k, rid := range rids {
			for j, c := range cols {
				rows[w][c] = colVals[j][k]
			}
			if pred.Matches(rows[w]) {
				match.Set(int(rid))
			}
		}
		return true
	})
	return match
}

// batchWalker is the block-iteration skeleton of every context-driven
// scan: it hands out the participating rows of match (nil = all live) one
// blockRows batch at a time, each worker building its rid list in a
// private buffer, and keeps the delta-vs-main row counts of the walk.
type batchWalker struct {
	t      *Table
	src    bitset.Bits
	states []batchWorker
}

type batchWorker struct {
	rids        []int32
	main, delta int64
}

// walkBatches prepares a walk over match. Small tables are not worth
// helper goroutines: the returned context runs them on the caller alone.
func (t *Table) walkBatches(match bitset.Bits, ex *exec.Ctx) (*batchWalker, *exec.Ctx) {
	ex = callerOnly(ex, t.totalRows())
	return &batchWalker{t: t, src: t.rowSource(match), states: make([]batchWorker, ex.Workers(t.NumBlocks()))}, ex
}

// block returns block b's batch for worker w: the ascending rids (empty
// when no row of the block participates) plus the main/delta split — nm
// rids are main-resident, and the block's main span holds mainN rows
// starting at b0.
func (bw *batchWalker) block(w, b int) (rids []int32, b0, nm, mainN int) {
	st := &bw.states[w]
	if st.rids == nil {
		st.rids = make([]int32, 0, blockRows)
	}
	b0 = b * blockRows
	n := min(blockRows, bw.t.totalRows()-b0)
	st.rids = bw.src.AppendSet(st.rids[:0], b0, b0+n)
	if len(st.rids) == 0 {
		return nil, b0, 0, 0
	}
	nm, mainN = bw.t.splitBatch(st.rids, b0, n)
	st.main += int64(nm)
	st.delta += int64(len(st.rids) - nm)
	return st.rids, b0, nm, mainN
}

// report folds the walk's delta-vs-main split into the cumulative metrics
// and the statement trace.
func (bw *batchWalker) report(tr *trace.Trace) {
	var mainRows, deltaRows int64
	for w := range bw.states {
		mainRows += bw.states[w].main
		deltaRows += bw.states[w].delta
	}
	reportFragmentRows(tr, mainRows, deltaRows)
}

// forBatchesExec is forBatches driven by the execution context: one scan
// block per morsel. fn must be safe for concurrent calls with distinct
// worker ids; batch order across workers is not defined (on one worker it
// is ascending), and the cancellation hook is polled between blocks.
func (t *Table) forBatchesExec(match bitset.Bits, ex *exec.Ctx, fn func(w int, rids []int32, b0, nm, mainN int) bool) {
	bw, ex := t.walkBatches(match, ex)
	ex.Morsels(t.NumBlocks(), func(w, b int) bool {
		rids, b0, nm, mainN := bw.block(w, b)
		return len(rids) == 0 || fn(w, rids, b0, nm, mainN)
	})
	bw.report(ex.Tracer())
}

// reduceBatches is forBatchesExec under exec.Reduce's ordered reduction:
// ranges of per blocks each accumulate, block by block in ascending
// order, into a partial of their own, and the partials reach merge in
// block order — so what add sums up does not depend on the pool size.
func reduceBatches[P any](t *Table, match bitset.Bits, ex *exec.Ctx, per int, newPartial func() P, add func(w int, p P, rids []int32, b0, nm, mainN int) bool, merge func(P)) {
	bw, ex := t.walkBatches(match, ex)
	exec.Reduce(ex, t.NumBlocks(), per, newPartial, func(w int, p P, b int) bool {
		rids, b0, nm, mainN := bw.block(w, b)
		return len(rids) == 0 || add(w, p, rids, b0, nm, mainN)
	}, merge)
	bw.report(ex.Tracer())
}

// columnGatherer decodes the requested columns of a batch column-at-a-time
// into per-worker buffers.
type columnGatherer struct {
	t      *Table
	cols   []int
	states []*gatherWorker
}

type gatherWorker struct {
	s     *scanScratch
	views [][]value.Value
}

func (t *Table) gatherColumns(cols []int, ex *exec.Ctx) *columnGatherer {
	return &columnGatherer{t: t, cols: cols, states: make([]*gatherWorker, ex.Workers(t.NumBlocks()))}
}

// gather returns colVals with colVals[j][k] the value of column cols[j] at
// row rids[k]. The slices are reused by worker w's next batch.
func (cg *columnGatherer) gather(w int, rids []int32, b0, nm, mainN int) [][]value.Value {
	st := cg.states[w]
	if st == nil {
		st = &gatherWorker{s: cg.t.acquireScratch(), views: make([][]value.Value, len(cg.cols))}
		cg.states[w] = st
	}
	bufs := st.s.colBufs(len(cg.cols))
	codes := st.s.codeBuf()
	for j, cidx := range cg.cols {
		st.views[j] = bufs[j][:len(rids)]
		cg.t.gatherColumn(&cg.t.cols[cidx], rids, b0, nm, mainN, codes, st.views[j])
	}
	return st.views
}

// release returns the workers' scratch buffers to the table's pool.
func (cg *columnGatherer) release() {
	for _, st := range cg.states {
		if st != nil {
			cg.t.releaseScratch(st.s)
		}
	}
}

// reduceColumns is reduceBatches with the requested columns of every
// batch decoded (see columnGatherer.gather) — add must not retain them.
func reduceColumns[P any](t *Table, match bitset.Bits, cols []int, ex *exec.Ctx, per int, newPartial func() P, add func(w int, p P, rids []int32, colVals [][]value.Value) bool, merge func(P)) {
	cg := t.gatherColumns(cols, ex)
	defer cg.release()
	reduceBatches(t, match, ex, per, newPartial, func(w int, p P, rids []int32, b0, nm, mainN int) bool {
		return add(w, p, rids, cg.gather(w, rids, b0, nm, mainN))
	}, merge)
}

// reportFragmentRows folds one batch stream's delta-vs-main split into
// the cumulative metrics and the statement trace.
func reportFragmentRows(tr *trace.Trace, mainRows, deltaRows int64) {
	if mainRows == 0 && deltaRows == 0 {
		return
	}
	mScanMainRows.Add(mainRows)
	mScanDeltaRows.Add(deltaRows)
	if tr != nil {
		tr.Add("main_rows", mainRows)
		tr.Add("delta_rows", deltaRows)
	}
}

// aggregateGlobal computes ungrouped aggregates over the main fragment
// block-at-a-time, then folds the (small, serial) delta. A column with a
// small dictionary is counted per code — one decode per distinct value
// instead of one per row, and the integer counts of all workers add up
// exactly whatever the pool size; a column with a large dictionary keeps
// a scalar accumulator per block instead, merged in block order, so
// memory stays bounded and the float sum is pool-size independent too.
func (t *Table) aggregateGlobal(res *agg.Result, specs []agg.Spec, match bitset.Bits, ex *exec.Ctx) {
	nb := t.numMainBlocks()
	ex = callerOnly(ex, t.mainRows)
	g := res.Global()
	dense := match == nil && t.live == t.totalRows()
	src := t.rowSource(match)

	// Per-spec plan, shared read-only by all workers.
	counting := make([]bool, len(specs))
	fvals := make([][]float64, len(specs))
	for si, sp := range specs {
		if sp.Col < 0 {
			g.Accs[si].AddCount(t.countMatches(match))
			continue
		}
		c := &t.cols[sp.Col]
		if c.mainDict.Len() <= globalCountsLimit {
			counting[si] = true
			continue
		}
		fvals[si] = c.mainDict.Floats()
	}

	type gState struct {
		counts [][]int64 // per counting-mode spec: rows per main code
		codes  []uint32
		rids   []int32
	}
	states := make([]*gState, ex.Workers(nb))
	total := newCodeAccs(len(specs)) // per large-dictionary spec
	exec.Reduce(ex, nb, 1, func() []codeAcc { return newCodeAccs(len(specs)) }, func(w int, accs []codeAcc, b int) bool {
		st := states[w]
		if st == nil {
			st = &gState{
				counts: make([][]int64, len(specs)),
				codes:  make([]uint32, blockRows),
				rids:   make([]int32, 0, blockRows),
			}
			for si, sp := range specs {
				if sp.Col >= 0 && counting[si] {
					st.counts[si] = make([]int64, t.cols[sp.Col].mainDict.Len())
				}
			}
			states[w] = st
		}
		b0 := b * blockRows
		n := min(blockRows, t.mainRows-b0)
		haveRids := false
		for si := range specs {
			sp := &specs[si]
			if sp.Col < 0 {
				continue
			}
			c := &t.cols[sp.Col]
			fast := dense && c.mainNulls == nil
			if !fast && !haveRids {
				st.rids = src.AppendSet(st.rids[:0], b0, b0+n)
				haveRids = true
			}
			if !fast && len(st.rids) == 0 {
				continue
			}
			c.mainCodes.UnpackBlock(b0, st.codes[:n])
			codes := st.codes[:n]
			if counting[si] {
				cnts := st.counts[si]
				switch {
				case fast:
					for _, code := range codes {
						cnts[code]++
					}
				case c.mainNulls == nil:
					for _, rid := range st.rids {
						cnts[codes[int(rid)-b0]]++
					}
				default:
					for _, rid := range st.rids {
						if !c.mainNulls[rid] {
							cnts[codes[int(rid)-b0]]++
						}
					}
				}
				continue
			}
			a := &accs[si]
			f := fvals[si]
			switch {
			case fast:
				for _, code := range codes {
					a.add(f[code], code)
				}
			case c.mainNulls == nil:
				for _, rid := range st.rids {
					code := codes[int(rid)-b0]
					a.add(f[code], code)
				}
			default:
				for _, rid := range st.rids {
					if !c.mainNulls[rid] {
						code := codes[int(rid)-b0]
						a.add(f[code], code)
					}
				}
			}
		}
		return true
	}, func(accs []codeAcc) {
		for si := range accs {
			total[si].drain(&accs[si])
		}
	})
	if ex.Stopped() {
		return
	}
	for si, sp := range specs {
		if sp.Col < 0 {
			continue
		}
		c := &t.cols[sp.Col]
		if counting[si] {
			var sum []int64
			for _, st := range states {
				if st == nil {
					continue
				}
				if sum == nil {
					sum = st.counts[si]
					continue
				}
				for code, cnt := range st.counts[si] {
					sum[code] += cnt
				}
			}
			for code, cnt := range sum {
				if cnt > 0 {
					g.Accs[si].AddWeighted(c.mainDict.Value(uint32(code)), cnt)
				}
			}
		} else if m := &total[si]; m.cnt > 0 {
			g.Accs[si].AddSummary(m.sum, m.cnt, c.mainDict.Value(m.minC), c.mainDict.Value(m.maxC))
		}
		t.aggregateGlobalDelta(&g.Accs[si], c, match, dense)
	}
}

// ScanBatchesExec is ScanBatches driven by the execution context: batches
// are claimed one scan block per morsel and decoded into per-worker
// buffers. fn additionally receives the worker id (for per-worker
// downstream state) and the batch's block index (block order is the
// serial batch order, so callers can reassemble deterministic output);
// it must be safe for concurrent calls with distinct worker ids. A predicate
// naming the whole key hands its row over alone, on the caller.
func (t *Table) ScanBatchesExec(pred expr.Predicate, cols []int, ex *exec.Ctx, fn func(w, block int, rids []int32, colVals [][]value.Value) bool) {
	if cols == nil {
		cols = t.allColumns()
	}
	if rid, ok := t.keyedRow(pred); ok {
		if rid >= 0 {
			inMain := int64(0)
			if rid < t.mainRows {
				inMain = 1
			}
			reportFragmentRows(ex.Tracer(), inMain, 1-inMain)
			rids, colVals := t.keyedBatch(rid, cols)
			fn(0, rid/blockRows, rids, colVals)
		}
		return
	}
	s := t.acquireScratch()
	defer t.releaseScratch(s)
	match := t.matchBitmapExec(pred, s, ex)
	cg := t.gatherColumns(cols, ex)
	defer cg.release()
	t.forBatchesExec(match, ex, func(w int, rids []int32, b0, nm, mainN int) bool {
		return fn(w, b0/blockRows, rids, cg.gather(w, rids, b0, nm, mainN))
	})
}
