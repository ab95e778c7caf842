package compress

import "sort"

// RLE is a run-length-encoded code vector: maximal runs of equal codes
// stored as (code, cumulative exclusive end). Merged column-store
// fragments of clustered data (few distinct values, or sorted arrival)
// collapse to a handful of runs, and the predicate kernels then work
// run-at-a-time — a whole run matches or misses with one comparison and
// a word-wide bit fill, so morsels over RLE data skip entire runs
// without unpacking a single code.
type RLE struct {
	n     int
	codes []uint32 // value of each run
	ends  []int32  // exclusive cumulative end of each run, ascending
}

// NewRLE run-length-encodes codes.
func NewRLE(codes []uint32) *RLE {
	r := &RLE{n: len(codes)}
	for i := 0; i < len(codes); {
		j := i + 1
		for j < len(codes) && codes[j] == codes[i] {
			j++
		}
		r.codes = append(r.codes, codes[i])
		r.ends = append(r.ends, int32(j))
		i = j
	}
	return r
}

// Len returns the number of codes.
func (r *RLE) Len() int { return r.n }

// runAt returns the index of the run containing position i.
func (r *RLE) runAt(i int) int {
	return sort.Search(len(r.ends), func(k int) bool { return int(r.ends[k]) > i })
}

// runStart returns the first position of run k.
func (r *RLE) runStart(k int) int {
	if k == 0 {
		return 0
	}
	return int(r.ends[k-1])
}

// Get returns the i-th code.
func (r *RLE) Get(i int) uint32 { return r.codes[r.runAt(i)] }

// UnpackBlock bulk-decodes positions [start, start+len(dst)) into dst.
func (r *RLE) UnpackBlock(start int, dst []uint32) {
	if len(dst) == 0 {
		return
	}
	end := start + len(dst)
	for k := r.runAt(start); k < len(r.ends); k++ {
		runEnd := min(int(r.ends[k]), end)
		c := r.codes[k]
		for i := max(r.runStart(k), start); i < runEnd; i++ {
			dst[i-start] = c
		}
		if runEnd == end {
			return
		}
	}
}

// setBits sets bits [from, to) of out (word-wide fills).
func setBits(out []uint64, from, to int) {
	if from >= to {
		return
	}
	fw, tw := from>>6, (to-1)>>6
	loMask := ^uint64(0) << (uint(from) & 63)
	hiMask := ^uint64(0) >> (63 - uint(to-1)&63)
	if fw == tw {
		out[fw] |= loMask & hiMask
		return
	}
	out[fw] |= loMask
	for w := fw + 1; w < tw; w++ {
		out[w] = ^uint64(0)
	}
	out[tw] |= hiMask
}

// clearBits clears bits [from, to) of out.
func clearBits(out []uint64, from, to int) {
	if from >= to {
		return
	}
	fw, tw := from>>6, (to-1)>>6
	loMask := ^uint64(0) << (uint(from) & 63)
	hiMask := ^uint64(0) >> (63 - uint(to-1)&63)
	if fw == tw {
		out[fw] &^= loMask & hiMask
		return
	}
	out[fw] &^= loMask
	for w := fw + 1; w < tw; w++ {
		out[w] = 0
	}
	out[tw] &^= hiMask
}

// RangeMatchWords writes the [lo, hi) match bits for positions
// [start, start+n): the output is zeroed, then each overlapping run
// whose code matches fills its clipped bit range — runs that miss cost
// one comparison regardless of their length.
func (r *RLE) RangeMatchWords(start, n int, lo, hi uint32, out []uint64) {
	for i := range out[:(n+63)>>6] {
		out[i] = 0
	}
	if hi <= lo || n <= 0 {
		return
	}
	end := start + n
	for k := r.runAt(start); k < len(r.ends); k++ {
		rs := max(r.runStart(k), start)
		re := min(int(r.ends[k]), end)
		if c := r.codes[k]; c-lo < hi-lo {
			setBits(out, rs-start, re-start)
		}
		if re == end {
			return
		}
	}
}

// RangeMatchWordsAnd ANDs the match bits into out: runs whose code
// misses clear their clipped bit range, matching runs leave out
// untouched. Bits at positions >= n in the final word are preserved.
func (r *RLE) RangeMatchWordsAnd(start, n int, lo, hi uint32, out []uint64) {
	if n <= 0 {
		return
	}
	if hi <= lo {
		clearBits(out, 0, n)
		return
	}
	end := start + n
	for k := r.runAt(start); k < len(r.ends); k++ {
		rs := max(r.runStart(k), start)
		re := min(int(r.ends[k]), end)
		if c := r.codes[k]; c-lo >= hi-lo {
			clearBits(out, rs-start, re-start)
		}
		if re == end {
			return
		}
	}
}

// SizeBytes returns the in-memory payload size.
func (r *RLE) SizeBytes() int { return len(r.codes)*4 + len(r.ends)*4 }
