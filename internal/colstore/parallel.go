package colstore

import (
	"math"
	"sort"

	"hybridstore/internal/bitset"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/trace"
	"hybridstore/internal/value"
)

// parallelMinRows is the table size below which scans and aggregations
// stay serial: the per-worker state setup outweighs the work.
const parallelMinRows = 8 * blockRows

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
	if t.totalRows() < parallelMinRows || ex.Workers(nb) <= 1 {
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
// referenced columns, one block per morsel: each worker runs the predicate
// per row of its block over a scratch row and sets bits in the block's
// (word-disjoint) region of the shared bitmap.
func (t *Table) fallbackBitmapExec(pred expr.Predicate, s *scanScratch, ex *exec.Ctx) bitset.Bits {
	cols := expr.ColumnSet(pred)
	match := s.bits(t.totalRows())
	match.Zero()
	b, rids := t.matchBlocks(nil, cols, ex)
	rows := make([][]value.Value, b.Ctx.Workers(b.N))
	b.Each(func(w, _ int, colVals [][]value.Value) bool {
		if rows[w] == nil {
			rows[w] = make([]value.Value, len(t.cols))
		}
		for k, rid := range rids(w) {
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

// walkBatches prepares a walk over match for any worker of ex. Small tables
// are not worth helper goroutines: the returned context runs them on the
// caller alone.
func (t *Table) walkBatches(match bitset.Bits, ex *exec.Ctx) (*batchWalker, *exec.Ctx) {
	return &batchWalker{t: t, src: t.rowSource(match), states: make([]batchWorker, ex.Workers(math.MaxInt))}, callerOnly(ex, t.totalRows())
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

// Blocks returns the live rows matching pred as numbered blocks of columns
// cols (nil = every column; see exec.Blocks), one scan block each, the
// columns decoded column-at-a-time into per-worker buffers. A predicate
// naming the whole key yields its row alone, in one block.
func (t *Table) Blocks(pred expr.Predicate, cols []int, ex *exec.Ctx) exec.Blocks {
	b, _ := t.scanBlocks(pred, cols, ex)
	return b
}

// scanBlocks is Blocks, and what returns the row ids of worker w's last
// block.
func (t *Table) scanBlocks(pred expr.Predicate, cols []int, ex *exec.Ctx) (exec.Blocks, func(w int) []int32) {
	if cols == nil {
		cols = t.allColumns()
	}
	if rid, ok := t.keyedRow(pred); ok {
		if rid < 0 {
			return exec.Blocks{Ctx: ex}, nil
		}
		inMain := int64(0)
		if rid < t.mainRows {
			inMain = 1
		}
		reportFragmentRows(ex.Tracer(), inMain, 1-inMain)
		rids := []int32{int32(rid)}
		return exec.Blocks{N: 1, Ctx: ex, Block: func(int, int) [][]value.Value {
			vals, colVals := make([]value.Value, len(cols)), make([][]value.Value, len(cols))
			for j, c := range cols {
				vals[j] = t.cols[c].valueAt(rid, t.mainRows)
				colVals[j] = vals[j : j+1 : j+1]
			}
			return colVals
		}}, func(int) []int32 { return rids }
	}
	s := t.acquireScratch()
	b, rids := t.matchBlocks(t.matchBitmapExec(pred, s, ex), cols, ex)
	done := b.Done
	b.Done = func() {
		done()
		t.releaseScratch(s)
	}
	return b, rids
}

// matchBlocks cuts the rows of match (nil = all live) into numbered blocks
// of columns cols, one scan block each, decoded column-at-a-time into
// per-worker buffers; rids returns the row ids of worker w's last block.
func (t *Table) matchBlocks(match bitset.Bits, cols []int, ex *exec.Ctx) (b exec.Blocks, rids func(w int) []int32) {
	bw, run := t.walkBatches(match, ex)
	type gatherWorker struct {
		s     *scanScratch
		views [][]value.Value
	}
	gather := make([]*gatherWorker, len(bw.states))
	return exec.Blocks{N: t.NumBlocks(), Ctx: run,
			Block: func(w, i int) [][]value.Value {
				rids, b0, nm, mainN := bw.block(w, i)
				if len(rids) == 0 {
					return nil
				}
				g := gather[w]
				if g == nil {
					g = &gatherWorker{s: t.acquireScratch(), views: make([][]value.Value, len(cols))}
					gather[w] = g
				}
				bufs, codes := g.s.colBufs(len(cols)), g.s.codeBuf()
				for j, c := range cols {
					g.views[j] = bufs[j][:len(rids)]
					t.gatherColumn(&t.cols[c], rids, b0, nm, mainN, codes, g.views[j])
				}
				return g.views
			},
			Done: func() {
				bw.report(run.Tracer())
				// A scan without an execution context is a one-off copy of
				// the table (a checkpoint's, a migration's): its buffers,
				// one per column scanned, go to the collector instead of
				// staying in the pool for the table's lifetime.
				for _, g := range gather {
					if g != nil && ex != nil {
						t.releaseScratch(g.s)
					}
				}
			}},
		func(w int) []int32 { return bw.states[w].rids }
}
