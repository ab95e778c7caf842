// Package pkindex is the key index of both stores: an open-addressing hash
// table of row ids in one pointer-free []uint64, so an index costs 8 bytes
// per slot and the garbage collector never scans it.
//
// A slot holds the upper 32 bits of the key's 64-bit hash (its tag) above
// the row id plus one; 0 is an empty slot. An entry's home slot is derived
// from its tag alone, so the table grows, shrinks and renumbers its row ids
// without hashing a key again. Collisions probe linearly, and a delete
// shifts the rest of its cluster back (no tombstones). Keys are not stored:
// a lookup yields every row whose tag matches, in insertion order, and the
// caller compares the key. Many rows may share a key, which makes the same
// table a secondary index.
package pkindex

import "math/bits"

// minSlots is the size of a non-empty table.
const minSlots = 8

// Index maps key hashes to row ids. The zero value is an empty index, and
// so is a nil *Index to every method but Add.
type Index struct {
	slots []uint64
	n     int
	shift uint // 64 - log2(len(slots))
}

// Build indexes row i under hashes[i], for every i, in one pass over a
// table sized for them.
func Build(hashes []uint64) *Index {
	x := &Index{}
	x.resize(sizeFor(len(hashes)))
	for rid, h := range hashes {
		x.place(entry(h, int32(rid)))
	}
	x.n = len(hashes)
	return x
}

// sizeFor is the smallest table that holds n entries at most 3/4 full.
func sizeFor(n int) int {
	size := minSlots
	for 4*n > 3*size {
		size *= 2
	}
	return size
}

func entry(h uint64, rid int32) uint64 { return h>>32<<32 | uint64(uint32(rid)+1) }

func ridOf(s uint64) int32 { return int32(uint32(s) - 1) }

// home is the first slot probed for the tag in the upper half of s, a slot
// or a hash: a Fibonacci hash of the tag.
func (x *Index) home(s uint64) int {
	tag := s >> 32
	return int(tag * 0x9E3779B97F4A7C15 >> x.shift)
}

// Len returns the number of entries.
func (x *Index) Len() int {
	if x == nil {
		return 0
	}
	return x.n
}

// Bytes is the memory the table occupies: 8 bytes per slot.
func (x *Index) Bytes() int {
	if x == nil {
		return 0
	}
	return 8 * cap(x.slots)
}

// Add indexes row rid under hash h.
func (x *Index) Add(h uint64, rid int32) {
	if 4*(x.n+1) > 3*len(x.slots) {
		x.resize(max(minSlots, 2*len(x.slots)))
	}
	x.place(entry(h, rid))
	x.n++
}

// place stores s in the first free slot from its home.
func (x *Index) place(s uint64) {
	mask := len(x.slots) - 1
	i := x.home(s)
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = s
}

// resize moves every entry into a table of size slots. The old table is
// walked from the start of a cluster, so the entries of one tag arrive in
// probe order and keep it.
func (x *Index) resize(size int) {
	old := x.slots
	x.slots = make([]uint64, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	start := 0
	for start < len(old) && old[start] != 0 {
		start++
	}
	for k := range old {
		if s := old[(start+k)&(len(old)-1)]; s != 0 {
			x.place(s)
		}
	}
}

// Lookup returns the first row under h's tag for which match reports true.
func (x *Index) Lookup(h uint64, match func(rid int32) bool) (int32, bool) {
	if x.Len() == 0 {
		return 0, false
	}
	mask := len(x.slots) - 1
	for i := x.home(h); ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			return 0, false
		}
		if s>>32 == h>>32 && match(ridOf(s)) {
			return ridOf(s), true
		}
	}
}

// Append appends every row under h's tag to dst, in insertion order.
func (x *Index) Append(dst []int32, h uint64) []int32 {
	x.Lookup(h, func(rid int32) bool {
		dst = append(dst, rid)
		return false
	})
	return dst
}

// Remove takes row rid, indexed under hash h, out of the index; it reports
// whether the row was there. A table left less than a quarter full halves.
func (x *Index) Remove(h uint64, rid int32) bool {
	if x.Len() == 0 {
		return false
	}
	want, mask := entry(h, rid), len(x.slots)-1
	i := x.home(want)
	for x.slots[i] != want {
		if x.slots[i] == 0 {
			return false
		}
		i = (i + 1) & mask
	}
	// Backward shift: every later entry of the cluster that may live at i
	// (its home is not cyclically in (i, j]) moves there, and i follows it.
	for j := (i + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		if k := x.home(x.slots[j]); (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = 0
	if x.n--; 4*x.n < len(x.slots) && len(x.slots) > minSlots {
		x.resize(len(x.slots) / 2)
	}
	return true
}

// Renumber replaces every row id r by remap[r], in place.
func (x *Index) Renumber(remap []int32) {
	if x == nil {
		return
	}
	for i, s := range x.slots {
		if s != 0 {
			x.slots[i] = s>>32<<32 | uint64(uint32(remap[ridOf(s)])+1)
		}
	}
}
