package compress

import "hybridstore/internal/metrics"

// Codec-mix counters: one increment per Encode decision, so /metrics
// shows which codings the merged main fragments actually ended up with.
var (
	mEncodePacked = metrics.Default().Counter("hs_compress_encode_packed_total",
		"main-fragment columns encoded bit-packed")
	mEncodeRLE = metrics.Default().Counter("hs_compress_encode_rle_total",
		"main-fragment columns encoded run-length")
	mEncodeFoR = metrics.Default().Counter("hs_compress_encode_for_total",
		"main-fragment columns encoded frame-of-reference")
)

// CodeVector is the read interface of a main-fragment code vector: a
// sequence of dictionary codes supporting bulk decode and the fused
// predicate kernels. Pack (bit-packed), NewRLE (run-length) and NewFoR
// (frame-of-reference) all produce one; Encode picks the smallest.
type CodeVector interface {
	// Len returns the number of codes.
	Len() int
	// Get returns the i-th code.
	Get(i int) uint32
	// UnpackBlock bulk-decodes positions [start, start+len(dst)) into dst.
	UnpackBlock(start int, dst []uint32)
	// RangeMatchWords sets bit i of out iff code(start+i) is in [lo, hi),
	// for i in [0, n), 64 results per word. out must hold (n+63)/64
	// words; trailing bits of the final word are zeroed.
	RangeMatchWords(start, n int, lo, hi uint32, out []uint64)
	// RangeMatchWordsAnd is RangeMatchWords ANDed into out; bits at
	// positions >= n in the final word are preserved.
	RangeMatchWordsAnd(start, n int, lo, hi uint32, out []uint64)
	// SizeBytes returns the in-memory payload size.
	SizeBytes() int
}

// encodeMinRows is the vector length below which Encode does not bother
// considering alternative codings: the absolute savings are tiny.
const encodeMinRows = 2 * forBlock

// encode-wins threshold: an alternative coding must save at least 25%
// over bit-packing to be chosen.
func beats(candidate, packed int) bool { return candidate*4 <= packed*3 }

// Encode builds the smallest code vector for codes drawn from a
// dictionary of `distinct` values: bit-packed by default, run-length when
// long runs dominate, frame-of-reference when codes cluster locally
// (e.g. sorted or time-correlated columns) so per-block deltas need
// fewer bits than global codes. The alternative codings answer range
// predicates directly on coded data — RLE kernels skip whole runs
// without unpacking.
func Encode(codes []uint32, distinct int) CodeVector {
	p := Pack(codes, distinct)
	if len(codes) < encodeMinRows || p.SizeBytes() == 0 {
		mEncodePacked.Inc()
		return p
	}
	packedSize := p.SizeBytes()

	// Candidate sizes from one metadata pass each.
	runs := 1
	for i := 1; i < len(codes); i++ {
		if codes[i] != codes[i-1] {
			runs++
		}
	}
	rleSize := runs * 8

	var maxDelta uint32
	nblocks := 0
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
		if d := hi - lo; d > maxDelta {
			maxDelta = d
		}
		nblocks++
	}
	forSize := nblocks*4 + int((uint64(len(codes))*uint64(BitsFor(int(maxDelta)+1))+63)/64*8)

	switch {
	case beats(rleSize, packedSize) && rleSize <= forSize:
		mEncodeRLE.Inc()
		return NewRLE(codes)
	case beats(forSize, packedSize):
		mEncodeFoR.Inc()
		return NewFoR(codes)
	default:
		mEncodePacked.Inc()
		return p
	}
}
