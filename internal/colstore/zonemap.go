package colstore

// blockRows is the unit of vectorized execution: match bitmaps are built,
// code vectors bulk-decoded and batches emitted in blocks of this many row
// slots. It must be a multiple of 64 so blocks align to bitset words.
const blockRows = 1024

// codeZone is the zone-map summary of one blockRows-sized block of a
// main-fragment code vector: the min/max code present (over non-NULL rows)
// plus NULL presence. Because the main dictionary is sorted, a code range
// check against [lo, hi) decides block relevance without decoding it:
// blocks whose zone misses the predicate range are skipped, and blocks
// fully inside it (with no NULLs) match wholesale. lo > hi encodes a block
// with no non-NULL rows.
type codeZone struct {
	lo, hi  uint32
	hasNull bool
}

// overlaps reports whether any code in the block can lie in [lo, hi).
func (z codeZone) overlaps(lo, hi uint32) bool {
	return z.lo <= z.hi && z.hi >= lo && z.lo < hi
}

// within reports whether every code in the block lies in [lo, hi).
func (z codeZone) within(lo, hi uint32) bool {
	return z.lo <= z.hi && z.lo >= lo && z.hi < hi
}

// buildZones computes per-block zones for a freshly packed code vector.
// nulls may be nil (no NULLs).
func buildZones(codes []uint32, nulls []bool) []codeZone {
	zones := make([]codeZone, (len(codes)+blockRows-1)/blockRows)
	for b := range zones {
		start := b * blockRows
		end := min(start+blockRows, len(codes))
		z := codeZone{lo: ^uint32(0), hi: 0}
		for i := start; i < end; i++ {
			if nulls != nil && nulls[i] {
				z.hasNull = true
				continue
			}
			c := codes[i]
			if c < z.lo {
				z.lo = c
			}
			if c > z.hi {
				z.hi = c
			}
		}
		zones[b] = z
	}
	return zones
}
