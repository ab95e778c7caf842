package compress

import "math/bits"

// Packed is a fixed-width bit-packed vector of uint32 codes. With a
// dictionary of d distinct values each code occupies ceil(log2(d)) bits,
// which is the compression the column store's main fragment gets from
// dictionary encoding.
type Packed struct {
	words []uint64
	width uint // bits per code; 0 means all codes are 0
	n     int
}

// BitsFor returns the number of bits needed to represent codes in
// [0, distinct).
func BitsFor(distinct int) uint {
	if distinct <= 1 {
		return 0
	}
	return uint(bits.Len64(uint64(distinct - 1)))
}

// Pack builds a packed vector from codes, sized for distinct codes. A code
// may straddle two words; every reader tests for that (off+width > 64)
// before it touches the second one, so the word array ends with the last
// code's bits.
func Pack(codes []uint32, distinct int) *Packed {
	w := BitsFor(distinct)
	p := &Packed{width: w, n: len(codes)}
	if w == 0 {
		return p
	}
	totalBits := uint64(len(codes)) * uint64(w)
	p.words = make([]uint64, (totalBits+63)/64)
	for i, c := range codes {
		p.set(i, c)
	}
	return p
}

func (p *Packed) set(i int, c uint32) {
	bitPos := uint64(i) * uint64(p.width)
	word := bitPos / 64
	off := bitPos % 64
	p.words[word] |= uint64(c) << off
	if spill := off + uint64(p.width); spill > 64 {
		p.words[word+1] |= uint64(c) >> (64 - off)
	}
}

// Len returns the number of codes.
func (p *Packed) Len() int { return p.n }

// Get returns the i-th code.
func (p *Packed) Get(i int) uint32 {
	if p.width == 0 {
		return 0
	}
	bitPos := uint64(i) * uint64(p.width)
	word := bitPos / 64
	off := bitPos % 64
	v := p.words[word] >> off
	if spill := off + uint64(p.width); spill > 64 {
		v |= p.words[word+1] << (64 - off)
	}
	return uint32(v & ((1 << p.width) - 1))
}

// UnpackBlock bulk-decodes the codes at positions [start, start+len(dst))
// into dst. It is the vectorized scan's decode primitive: callers decode a
// block of rows once into a reused buffer and then evaluate predicates or
// gather values over plain uint32 slices, instead of paying per-row Get
// calls with repeated bit-position math. start+len(dst) must not exceed
// Len().
func (p *Packed) UnpackBlock(start int, dst []uint32) {
	if p.width == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	width := uint64(p.width)
	mask := uint64(1)<<width - 1
	bitPos := uint64(start) * width
	words := p.words
	for i := range dst {
		word := bitPos >> 6
		off := bitPos & 63
		v := words[word] >> off
		if off+width > 64 {
			v |= words[word+1] << (64 - off)
		}
		dst[i] = uint32(v & mask)
		bitPos += width
	}
}

// RangeMatchWords is the fused predicate-scan kernel: for positions
// [start, start+n) it sets bit i of out iff code(start+i) lies in
// [lo, hi), packing 64 results per word. Decode and test happen in one
// pass with a branchless in-range check (unsigned code-lo < hi-lo), so
// the loop has no data-dependent branches. out must hold (n+63)/64
// words; trailing bits of the final word are zeroed. start must be
// word-aligned-free — any position works.
func (p *Packed) RangeMatchWords(start, n int, lo, hi uint32, out []uint64) {
	nw := n >> 6
	if hi <= lo {
		for i := range out[:(n+63)>>6] {
			out[i] = 0
		}
		return
	}
	if p.width == 0 {
		// Only code 0 exists; it matches iff lo == 0 (hi > lo >= 0).
		var fill uint64
		if lo == 0 {
			fill = ^uint64(0)
		}
		for i := 0; i < nw; i++ {
			out[i] = fill
		}
		if rem := uint(n) & 63; rem != 0 {
			out[nw] = fill & (1<<rem - 1)
		}
		return
	}
	width := uint64(p.width)
	mask := uint64(1)<<width - 1
	span := hi - lo
	words := p.words
	bitPos := uint64(start) * width
	for wi := 0; wi < nw; wi++ {
		var w uint64
		for j := 0; j < 64; j++ {
			word := bitPos >> 6
			off := bitPos & 63
			v := words[word] >> off
			if off+width > 64 {
				v |= words[word+1] << (64 - off)
			}
			var b uint64
			if uint32(v&mask)-lo < span {
				b = 1
			}
			w |= b << uint(j)
			bitPos += width
		}
		out[wi] = w
	}
	if rem := n & 63; rem != 0 {
		var w uint64
		for j := 0; j < rem; j++ {
			word := bitPos >> 6
			off := bitPos & 63
			v := words[word] >> off
			if off+width > 64 {
				v |= words[word+1] << (64 - off)
			}
			var b uint64
			if uint32(v&mask)-lo < span {
				b = 1
			}
			w |= b << uint(j)
			bitPos += width
		}
		out[nw] = w
	}
}

// RangeMatchWordsAnd is RangeMatchWords ANDed into an already-initialized
// bitmap: out[wi] &= <64 match bits>. Output words that are already zero
// skip their 64 decodes entirely, which is why callers evaluate the most
// selective conjunct first. Bits at positions >= n in the final word are
// preserved.
func (p *Packed) RangeMatchWordsAnd(start, n int, lo, hi uint32, out []uint64) {
	nw := n >> 6
	rem := n & 63
	if hi <= lo || p.width == 0 {
		all := hi > lo && lo == 0 // width 0: every code is 0
		if all {
			return // AND with all-ones
		}
		for i := 0; i < nw; i++ {
			out[i] = 0
		}
		if rem != 0 {
			out[nw] &= ^uint64(0) << uint(rem)
		}
		return
	}
	width := uint64(p.width)
	mask := uint64(1)<<width - 1
	span := hi - lo
	words := p.words
	bitPos := uint64(start) * width
	for wi := 0; wi < nw; wi++ {
		cur := out[wi]
		if cur == 0 {
			bitPos += 64 * width
			continue
		}
		var w uint64
		for j := 0; j < 64; j++ {
			word := bitPos >> 6
			off := bitPos & 63
			v := words[word] >> off
			if off+width > 64 {
				v |= words[word+1] << (64 - off)
			}
			var b uint64
			if uint32(v&mask)-lo < span {
				b = 1
			}
			w |= b << uint(j)
			bitPos += width
		}
		out[wi] = cur & w
	}
	if rem != 0 {
		lowMask := uint64(1)<<uint(rem) - 1
		if out[nw]&lowMask == 0 {
			return
		}
		var w uint64
		for j := 0; j < rem; j++ {
			word := bitPos >> 6
			off := bitPos & 63
			v := words[word] >> off
			if off+width > 64 {
				v |= words[word+1] << (64 - off)
			}
			var b uint64
			if uint32(v&mask)-lo < span {
				b = 1
			}
			w |= b << uint(j)
			bitPos += width
		}
		out[nw] &= w | ^lowMask
	}
}

// SizeBytes returns the in-memory size of the packed payload.
func (p *Packed) SizeBytes() int { return 8 * len(p.words) }
