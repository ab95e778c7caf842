// Package bitset provides the dense uint64 bitmap the column store's
// vectorized scan pipeline operates on. A Bits value holds one bit per row
// slot packed 64 to a word, so predicate conjunctions combine with
// word-at-a-time AND instead of per-row boolean writes, and set-bit
// iteration advances with trailing-zero counts instead of testing every
// slot.
//
// Invariant: bits at positions >= the logical length are always zero, so
// word-level iteration never sees ghost rows. All writers in this
// package maintain the invariant; code that fills words directly (the
// column store's block scan) is responsible for masking its final partial
// word.
package bitset

import "math/bits"

// Bits is a dense bitmap. The logical length is tracked by the caller; the
// slice holds Words(n) words for n bits.
type Bits []uint64

// Words returns the number of uint64 words needed for n bits.
func Words(n int) int { return (n + 63) / 64 }

// New returns a zeroed bitmap with capacity for n bits.
func New(n int) Bits { return make(Bits, Words(n)) }

// Grow returns a bitmap with capacity for at least n bits, preserving the
// contents of b. Newly added words are zero.
func Grow(b Bits, n int) Bits {
	w := Words(n)
	if w <= len(b) {
		return b
	}
	if w <= cap(b) {
		nb := b[:w]
		for i := len(b); i < w; i++ {
			nb[i] = 0
		}
		return nb
	}
	nb := make(Bits, w, w+w/2+64)
	copy(nb, b)
	return nb
}

// Get reports whether bit i is set.
func (b Bits) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (b Bits) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bits) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Zero clears every word.
func (b Bits) Zero() {
	for i := range b {
		b[i] = 0
	}
}

// FillOnes sets bits [0, n) and zeroes any remaining words.
func (b Bits) FillOnes(n int) {
	full := n >> 6
	for i := 0; i < full; i++ {
		b[i] = ^uint64(0)
	}
	if full < len(b) {
		if rem := uint(n) & 63; rem != 0 {
			b[full] = 1<<rem - 1
			full++
		}
		for i := full; i < len(b); i++ {
			b[i] = 0
		}
	}
}

// And intersects b with o word-at-a-time (b &= o).
func (b Bits) And(o Bits) {
	for i := range b {
		b[i] &= o[i]
	}
}

// AppendSet appends the positions of set bits in [lo, hi) to dst, skipping
// zero words and advancing within a word by trailing-zero counts.
func (b Bits) AppendSet(dst []int32, lo, hi int) []int32 {
	if lo >= hi {
		return dst
	}
	for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
		w := b[wi]
		if w == 0 {
			continue
		}
		base := wi << 6
		if base < lo {
			w &= ^uint64(0) << (uint(lo) & 63)
		}
		if base+63 >= hi {
			w &= ^uint64(0) >> (63 - uint(hi-1)&63)
		}
		for w != 0 {
			dst = append(dst, int32(base+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}
