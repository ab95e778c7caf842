package compress

// forBlock is the frame size: per-block minima are stored alongside
// bit-packed deltas. It matches the column store's scan block so block
// kernels never straddle a frame.
const forBlock = 1024

// FoR is a frame-of-reference code vector: each forBlock-sized block
// stores its minimum code, and every code is kept as a bit-packed delta
// from its block's base. When codes cluster locally — sorted columns,
// time-correlated loads — the delta width is far below the global code
// width, and predicates still evaluate directly on the coded data: a
// range test against [lo, hi) becomes a per-block test against
// [lo-base, hi-base) on the packed deltas, with no decode.
type FoR struct {
	n      int
	base   []uint32 // per-block minimum code
	deltas *Packed  // code - base[i/forBlock], single global width
}

// NewFoR builds a frame-of-reference vector from codes.
func NewFoR(codes []uint32) *FoR {
	f := &FoR{n: len(codes)}
	var maxDelta uint32
	for b0 := 0; b0 < len(codes); b0 += forBlock {
		end := min(b0+forBlock, len(codes))
		lo, hi := codes[b0], codes[b0]
		for _, c := range codes[b0+1 : end] {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		f.base = append(f.base, lo)
		if d := hi - lo; d > maxDelta {
			maxDelta = d
		}
	}
	deltas := make([]uint32, len(codes))
	for i, c := range codes {
		deltas[i] = c - f.base[i/forBlock]
	}
	f.deltas = Pack(deltas, int(maxDelta)+1)
	return f
}

// Len returns the number of codes.
func (f *FoR) Len() int { return f.n }

// Get returns the i-th code.
func (f *FoR) Get(i int) uint32 { return f.base[i/forBlock] + f.deltas.Get(i) }

// UnpackBlock bulk-decodes positions [start, start+len(dst)) into dst.
func (f *FoR) UnpackBlock(start int, dst []uint32) {
	f.deltas.UnpackBlock(start, dst)
	end := start + len(dst)
	for s := start; s < end; {
		blockEnd := min((s/forBlock+1)*forBlock, end)
		b := f.base[s/forBlock]
		if b != 0 {
			for i := s; i < blockEnd; i++ {
				dst[i-start] += b
			}
		}
		s = blockEnd
	}
}

// blockRange clamps the global range [lo, hi) into block blk's delta
// space: a delta d in the block matches iff d is in [dlo, dhi).
func (f *FoR) blockRange(blk int, lo, hi uint32) (dlo, dhi uint32) {
	b := f.base[blk]
	if hi <= b {
		return 0, 0
	}
	dhi = hi - b
	if lo > b {
		dlo = lo - b
	}
	return dlo, dhi
}

// RangeMatchWords writes the [lo, hi) match bits for positions
// [start, start+n). Block segments map the range into delta space and
// reuse the bit-packed kernel; a 64-aligned start keeps every segment
// word-aligned in out (the column store's block scans always are), and
// unaligned starts take a per-position path.
func (f *FoR) RangeMatchWords(start, n int, lo, hi uint32, out []uint64) {
	if start&63 != 0 {
		f.matchSlow(start, n, lo, hi, out, false)
		return
	}
	end := start + n
	for s := start; s < end; {
		segEnd := min((s/forBlock+1)*forBlock, end)
		dlo, dhi := f.blockRange(s/forBlock, lo, hi)
		f.deltas.RangeMatchWords(s, segEnd-s, dlo, dhi, out[(s-start)>>6:])
		s = segEnd
	}
}

// RangeMatchWordsAnd is RangeMatchWords ANDed into out; bits at
// positions >= n in the final word are preserved.
func (f *FoR) RangeMatchWordsAnd(start, n int, lo, hi uint32, out []uint64) {
	if start&63 != 0 {
		f.matchSlow(start, n, lo, hi, out, true)
		return
	}
	end := start + n
	for s := start; s < end; {
		segEnd := min((s/forBlock+1)*forBlock, end)
		dlo, dhi := f.blockRange(s/forBlock, lo, hi)
		f.deltas.RangeMatchWordsAnd(s, segEnd-s, dlo, dhi, out[(s-start)>>6:])
		s = segEnd
	}
}

// matchSlow is the per-position fallback for starts that are not
// 64-aligned (never hit by the column store's block-aligned scans).
func (f *FoR) matchSlow(start, n int, lo, hi uint32, out []uint64, and bool) {
	for i := 0; i < n; i++ {
		bit := uint64(1) << (uint(i) & 63)
		m := f.Get(start+i)-lo < hi-lo && hi > lo
		if and {
			if !m {
				out[i>>6] &^= bit
			}
		} else if m {
			out[i>>6] |= bit
		} else {
			out[i>>6] &^= bit
		}
	}
	if !and {
		// Zero trailing bits of the final word, matching the fast path.
		if rem := uint(n) & 63; rem != 0 {
			out[n>>6] &= 1<<rem - 1
		}
	}
}

// SizeBytes returns the in-memory payload size.
func (f *FoR) SizeBytes() int { return len(f.base)*4 + f.deltas.SizeBytes() }
