package colstore

import (
	"hybridstore/internal/bitset"
	"hybridstore/internal/compress"
	"hybridstore/internal/expr"
	"hybridstore/internal/trace"
	"hybridstore/internal/value"
)

// colMatcher is a compiled per-column predicate test operating directly on
// dictionary codes: an order-preserving code range for the sorted main
// dictionary and a per-code boolean table for the unsorted delta
// dictionary. This is the column store's "implicit index" — predicates are
// answered without decoding values.
type colMatcher struct {
	col            int
	mainLo, mainHi uint32 // half-open code interval in the main dictionary
	deltaMatch     []bool // indexed by delta code
}

// compileMatchers turns a conjunction of column-vs-constant comparisons
// into code-level matchers. ok is false when the predicate shape is not
// supported (the caller falls back to row materialization).
func (t *Table) compileMatchers(pred expr.Predicate) ([]colMatcher, bool) {
	if pred == nil {
		return nil, true
	}
	if _, isTrue := pred.(expr.True); isTrue {
		return nil, true
	}
	conj := expr.Conjuncts(pred)
	// An *And containing unsupported children must fall back entirely.
	matchers := make([]colMatcher, 0, len(conj))
	for _, c := range conj {
		switch q := c.(type) {
		case *expr.Comparison:
			if q.Op == expr.Ne || q.Val.IsNull() {
				return nil, false
			}
			m, ok := t.compileComparison(q)
			if !ok {
				return nil, false
			}
			matchers = append(matchers, m)
		case *expr.Between:
			if q.Lo.IsNull() || q.Hi.IsNull() {
				return nil, false
			}
			m, ok := t.compileBetween(q)
			if !ok {
				return nil, false
			}
			matchers = append(matchers, m)
		default:
			return nil, false
		}
	}
	return matchers, true
}

func (t *Table) compileComparison(q *expr.Comparison) (colMatcher, bool) {
	if q.Col < 0 || q.Col >= len(t.cols) {
		return colMatcher{}, false
	}
	c := &t.cols[q.Col]
	var op compress.CodeRangeOp
	switch q.Op {
	case expr.Eq:
		op = compress.RangeEq
	case expr.Lt:
		op = compress.RangeLt
	case expr.Le:
		op = compress.RangeLe
	case expr.Gt:
		op = compress.RangeGt
	case expr.Ge:
		op = compress.RangeGe
	default:
		return colMatcher{}, false
	}
	lo, hi := c.mainDict.CodeRange(op, q.Val)
	m := colMatcher{col: q.Col, mainLo: lo, mainHi: hi}
	m.deltaMatch = make([]bool, c.deltaDict.Len())
	for code := range m.deltaMatch {
		m.deltaMatch[code] = q.Op.Apply(value.Compare(c.deltaDict.Value(uint32(code)), q.Val))
	}
	return m, true
}

func (t *Table) compileBetween(q *expr.Between) (colMatcher, bool) {
	if q.Col < 0 || q.Col >= len(t.cols) {
		return colMatcher{}, false
	}
	c := &t.cols[q.Col]
	lo, _ := c.mainDict.CodeRange(compress.RangeGe, q.Lo)
	_, hi := c.mainDict.CodeRange(compress.RangeLe, q.Hi)
	m := colMatcher{col: q.Col, mainLo: lo, mainHi: hi}
	m.deltaMatch = make([]bool, c.deltaDict.Len())
	for code := range m.deltaMatch {
		v := c.deltaDict.Value(uint32(code))
		m.deltaMatch[code] = value.Compare(v, q.Lo) >= 0 && value.Compare(v, q.Hi) <= 0
	}
	return m, true
}

// matcherSelectivity estimates the fraction of main-fragment rows a
// matcher keeps (code-range width over dictionary size) to order
// conjuncts cheapest-result-first.
func (t *Table) matcherSelectivity(m *colMatcher) float64 {
	d := t.cols[m.col].mainDict.Len()
	if d == 0 || m.mainHi <= m.mainLo {
		return 0
	}
	return float64(m.mainHi-m.mainLo) / float64(d)
}

// scanScratch bundles the reusable buffers of one in-flight scan,
// aggregate or join probe: the predicate match bitset, the block decode
// buffer, and the batch column buffers. Scratches are pooled per table
// behind a mutex, so concurrent readers — the engine executes reads
// under a shared lock — and re-entrant scans from batch callbacks each
// work on private buffers.
type scanScratch struct {
	match bitset.Bits
	codes []uint32
	bufs  [][]value.Value
}

// acquireScratch checks a scratch out of the table's pool (allocating a
// fresh one when the pool is empty). Callers must releaseScratch it.
func (t *Table) acquireScratch() *scanScratch {
	t.scratchMu.Lock()
	if n := len(t.scratchPool); n > 0 {
		s := t.scratchPool[n-1]
		t.scratchPool = t.scratchPool[:n-1]
		t.scratchMu.Unlock()
		return s
	}
	t.scratchMu.Unlock()
	return &scanScratch{}
}

func (t *Table) releaseScratch(s *scanScratch) {
	t.scratchMu.Lock()
	if len(t.scratchPool) < 16 {
		t.scratchPool = append(t.scratchPool, s)
	}
	t.scratchMu.Unlock()
}

// bits returns the scratch's match bitset sized to rows slots. Every code
// path that uses it overwrites every word, so no zeroing is needed.
func (s *scanScratch) bits(rows int) bitset.Bits {
	w := bitset.Words(rows)
	if cap(s.match) < w {
		s.match = make(bitset.Bits, w+64)
	}
	return s.match[:w]
}

// codeBuf returns the scratch's block decode buffer.
func (s *scanScratch) codeBuf() []uint32 {
	if s.codes == nil {
		s.codes = make([]uint32, blockRows)
	}
	return s.codes
}

// colBufs returns ncols batch column buffers.
func (s *scanScratch) colBufs(ncols int) [][]value.Value {
	for len(s.bufs) < ncols {
		s.bufs = append(s.bufs, make([]value.Value, blockRows))
	}
	return s.bufs[:ncols]
}

// scanCounts accumulates per-scan zone-map outcomes locally — one plain
// add per 1024-row block — and is folded into the cumulative package
// metrics (and the statement trace, when one is attached) exactly once
// per scan, so the hot path never touches an atomic or a mutex.
type scanCounts struct {
	decoded, skipped, wholesale int64
}

func (sc *scanCounts) count(outcome int) {
	switch outcome {
	case blockZoneSkipped:
		sc.skipped++
	case blockZoneWholesale:
		sc.wholesale++
	default:
		sc.decoded++
	}
}

func (sc *scanCounts) add(o scanCounts) {
	sc.decoded += o.decoded
	sc.skipped += o.skipped
	sc.wholesale += o.wholesale
}

// report folds the finished scan's counts into the cumulative codec
// metrics and, when the statement is traced, its trace counters.
func (sc *scanCounts) report(tr *trace.Trace) {
	total := sc.decoded + sc.skipped + sc.wholesale
	if total == 0 {
		return
	}
	mBlocksDecoded.Add(sc.decoded)
	mBlocksZoneSkipped.Add(sc.skipped)
	mBlocksZoneWholesale.Add(sc.wholesale)
	if tr != nil {
		tr.Add("blocks_decoded", sc.decoded)
		tr.Add("blocks_zone_skipped", sc.skipped)
		tr.Add("blocks_zone_wholesale", sc.wholesale)
	}
}

// Zone-map outcomes of one fillMatcherBlock call, reported per block so
// traces and metrics can show how much decode the zone maps avoided.
const (
	blockZoneSkipped   = iota // zone map excluded the block: zero words, no decode
	blockZoneWholesale        // zone map accepted the block wholesale: word fills, no decode
	blockDecoded              // ambiguous: fused decode+test kernels ran
)

// fillMatcherBlock evaluates one matcher over the single main-fragment
// block starting at b0, returning the zone-map outcome. Blocks are
// bitset-word aligned (blockRows is a multiple of 64), so distinct
// blocks write disjoint words — the morsel parallel scan runs this
// concurrently, one block per morsel, as long as every matcher is
// applied to a block before moving on and the delta passes run
// afterwards. blockWords is a per-caller (n+63)/64-word staging buffer
// for nullable columns.
func (t *Table) fillMatcherBlock(m *colMatcher, match bitset.Bits, b0 int, first bool, blockWords []uint64) int {
	c := &t.cols[m.col]
	lo, hi := m.mainLo, m.mainHi
	if hi < lo {
		hi = lo // empty code range (e.g. inverted BETWEEN bounds)
	}
	mainRows := t.mainRows
	{
		n := min(blockRows, mainRows-b0)
		w0 := b0 >> 6
		z := c.mainZones[b0/blockRows]
		if hi == lo || !z.overlaps(lo, hi) {
			// No code in the block can match: the block's bits become 0.
			// The final word may be shared with the first delta rows; when
			// ANDing, those bits were already written and must survive
			// (with first=true they are rewritten afterwards).
			for w, end := w0, (b0+n)>>6; w < end; w++ {
				match[w] = 0
			}
			if rem := uint(n) & 63; rem != 0 {
				if first {
					match[(b0+n)>>6] = 0
				} else {
					match[(b0+n)>>6] &= ^uint64(0) << rem
				}
			}
			return blockZoneSkipped
		}
		if !z.hasNull && z.within(lo, hi) {
			// Every row in the block matches: ANDing is a no-op,
			// initializing is a word fill.
			if first {
				full := n >> 6
				for w := 0; w < full; w++ {
					match[w0+w] = ^uint64(0)
				}
				if rem := uint(n) & 63; rem != 0 {
					match[w0+full] = 1<<rem - 1
				}
			}
			return blockZoneWholesale
		}
		// Ambiguous block: fused decode+test kernels write bitset words
		// straight into the match bitmap. The AND kernel skips decode for
		// words an earlier conjunct already zeroed and preserves the final
		// word's delta bits above the block.
		if nulls := c.mainNulls; nulls == nil {
			if first {
				c.mainCodes.RangeMatchWords(b0, n, lo, hi, match[w0:])
			} else {
				c.mainCodes.RangeMatchWordsAnd(b0, n, lo, hi, match[w0:])
			}
			return blockDecoded
		}
		// Nullable column: mask NULL rows out of a block buffer first.
		bw := blockWords[:(n+63)>>6]
		c.mainCodes.RangeMatchWords(b0, n, lo, hi, bw)
		nulls := c.mainNulls
		for i := 0; i < n; i++ {
			if nulls[b0+i] {
				bw[i>>6] &^= 1 << (uint(i) & 63)
			}
		}
		full := n >> 6
		if first {
			for w := 0; w < full; w++ {
				match[w0+w] = bw[w]
			}
			if uint(n)&63 != 0 {
				match[w0+full] = bw[full]
			}
		} else {
			for w := 0; w < full; w++ {
				match[w0+w] &= bw[w]
			}
			if rem := uint(n) & 63; rem != 0 {
				// Preserve the shared word's delta bits above the block.
				match[w0+full] &= bw[full] | ^uint64(0)<<rem
			}
		}
	}
	return blockDecoded
}

// fillMatcherDelta evaluates one matcher over the delta fragment (small,
// append-only): per-row over the plain code slice and the matcher's
// per-code table. It must run after every main-fragment block pass — the
// word shared between the last main block and the first delta rows holds
// only main bits until then.
func (t *Table) fillMatcherDelta(m *colMatcher, match bitset.Bits, first bool) {
	c := &t.cols[m.col]
	mainRows := t.mainRows
	if first {
		for w := (mainRows + 63) >> 6; w < len(match); w++ {
			match[w] = 0
		}
		for d, code := range c.deltaCodes {
			if (c.deltaNulls == nil || !c.deltaNulls[d]) && m.deltaMatch[code] {
				match.Set(mainRows + d)
			}
		}
		return
	}
	for d, code := range c.deltaCodes {
		rid := mainRows + d
		if !match.Get(rid) {
			continue
		}
		if (c.deltaNulls != nil && c.deltaNulls[d]) || !m.deltaMatch[code] {
			match.Clear(rid)
		}
	}
}

// allColumns returns [0, len(t.cols)).
func (t *Table) allColumns() []int {
	cols := make([]int, len(t.cols))
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// keyedRow answers a predicate that pins the whole primary key through the
// PK index, before any bitmap or block walk: ok reports whether pred has
// that shape, and rid is then the one live row satisfying all of pred, or
// -1. The remaining conjuncts are checked on that row's predicate columns
// alone.
func (t *Table) keyedRow(pred expr.Predicate) (rid int, ok bool) {
	key, ok := expr.PKEquality(pred, t.sch.PrimaryKey)
	if !ok {
		return 0, false
	}
	rid, found := t.LookupPK(key)
	if !found {
		return -1, true
	}
	row := make([]value.Value, len(t.cols))
	t.materialize(rid, expr.ColumnSet(pred), row)
	if !pred.Matches(row) {
		return -1, true
	}
	return rid, true
}

// ScanBatches is the vectorized scan, Blocks on the caller alone: matching
// live rows are streamed to fn in ascending batches of up to blockRows, with
// the requested columns decoded column-at-a-time into reused column buffers.
// rids holds the batch's global row ids in ascending order; colVals[j][k]
// is the value of column cols[j] at row rids[k]. Both slices are reused
// between batches — fn must not retain them. Returning false stops the
// scan. nil cols requests every column.
func (t *Table) ScanBatches(pred expr.Predicate, cols []int, fn func(rids []int32, colVals [][]value.Value) bool) {
	b, rids := t.scanBlocks(pred, cols, nil)
	defer b.Release()
	for i := 0; i < b.N; i++ {
		if colVals := b.Block(0, i); colVals != nil && !fn(rids(0), colVals) {
			return
		}
	}
}

// splitBatch returns the number nm of main-resident rids (ascending order
// puts them first) and the row count mainN of the block's main-fragment
// span starting at b0.
func (t *Table) splitBatch(rids []int32, b0, n int) (nm, mainN int) {
	mainRows := t.mainRows
	nm = len(rids)
	if b0+n > mainRows {
		nm = 0
		for nm < len(rids) && int(rids[nm]) < mainRows {
			nm++
		}
	}
	if nm > 0 {
		mainN = min(n, mainRows-b0)
	}
	return nm, mainN
}

// gatherColumn fills dst[k] with column c's value at rids[k]. All rids lie
// in the block [b0, b0+mainN+...) and are ascending; nm and mainN come
// from splitBatch. When the batch covers enough of the block's
// main-fragment span, the span's codes are bulk-decoded once and gathered
// by offset; sparse batches extract codes individually.
func (t *Table) gatherColumn(c *column, rids []int32, b0, nm, mainN int, codes []uint32, dst []value.Value) {
	mainRows := t.mainRows
	if nm > 0 {
		blockN := mainN
		if nm*4 >= blockN {
			c.mainCodes.UnpackBlock(b0, codes[:blockN])
			if c.mainNulls == nil {
				for k := 0; k < nm; k++ {
					dst[k] = c.mainDict.Value(codes[int(rids[k])-b0])
				}
			} else {
				for k := 0; k < nm; k++ {
					rid := int(rids[k])
					if c.mainNulls[rid] {
						dst[k] = value.Null(c.typ)
					} else {
						dst[k] = c.mainDict.Value(codes[rid-b0])
					}
				}
			}
		} else {
			for k := 0; k < nm; k++ {
				rid := int(rids[k])
				if c.mainNulls != nil && c.mainNulls[rid] {
					dst[k] = value.Null(c.typ)
				} else {
					dst[k] = c.mainDict.Value(c.mainCodes.Get(rid))
				}
			}
		}
	}
	for k := nm; k < len(rids); k++ {
		d := int(rids[k]) - mainRows
		if c.deltaNulls != nil && c.deltaNulls[d] {
			dst[k] = value.Null(c.typ)
		} else {
			dst[k] = c.deltaDict.Value(c.deltaCodes[d])
		}
	}
}
