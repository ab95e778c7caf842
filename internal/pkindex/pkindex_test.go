package pkindex

import (
	"math/rand"
	"reflect"
	"testing"
)

// oracle is the index the package replaces: a map from full hash to the
// rows under it, in insertion order, plus each row's hash.
type oracle struct {
	chains map[uint64][]int32
	hashOf map[int32]uint64
}

func newOracle() *oracle {
	return &oracle{chains: map[uint64][]int32{}, hashOf: map[int32]uint64{}}
}

func (o *oracle) add(h uint64, rid int32) {
	o.chains[h] = append(o.chains[h], rid)
	o.hashOf[rid] = h
}

func (o *oracle) remove(rid int32) uint64 {
	h := o.hashOf[rid]
	chain := o.chains[h]
	for i, r := range chain {
		if r == rid {
			chain = append(chain[:i:i], chain[i+1:]...)
			break
		}
	}
	if len(chain) == 0 {
		delete(o.chains, h)
	} else {
		o.chains[h] = chain
	}
	delete(o.hashOf, rid)
	return h
}

// check compares x with o: the same number of entries; under every hash the
// oracle holds, exactly its rows in its order, and no row whose tag differs;
// a table between a quarter and three quarters full (or of minimum size).
func check(t *testing.T, x *Index, o *oracle, label string) {
	t.Helper()
	if x.Len() != len(o.hashOf) {
		t.Fatalf("%s: Len %d, oracle %d", label, x.Len(), len(o.hashOf))
	}
	slots := x.Bytes() / 8
	if 4*x.Len() > 3*slots || (slots > minSlots && 4*x.Len() < slots) {
		t.Fatalf("%s: %d entries in %d slots", label, x.Len(), slots)
	}
	for h, want := range o.chains {
		var got []int32
		for _, rid := range x.Append(nil, h) {
			rh, ok := o.hashOf[rid]
			if !ok || rh>>32 != h>>32 {
				t.Fatalf("%s: lookup of %#x yields row %d, indexed under %#x (live %v)", label, h, rid, rh, ok)
			}
			if rh == h {
				got = append(got, rid)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rows under %#x: %v, oracle %v", label, h, got, want)
		}
		last := want[len(want)-1]
		if rid, ok := x.Lookup(h, func(r int32) bool { return r == last }); !ok || rid != last {
			t.Fatalf("%s: Lookup of row %d under %#x: %d, %v", label, last, h, rid, ok)
		}
	}
}

// hashPool draws the hashes a run indexes: distinct keys, keys many rows
// share (a secondary index's values), and keys that share a tag but differ
// below it (forced tag collisions).
func hashPool(rng *rand.Rand) []uint64 {
	var pool []uint64
	for i := 0; i < 400; i++ {
		pool = append(pool, rng.Uint64())
	}
	for i := 0; i < 8; i++ {
		h := rng.Uint64()
		for j := 0; j < 20; j++ {
			pool = append(pool, h) // drawn 20 times as often
		}
	}
	for i := 0; i < 10; i++ {
		tag := rng.Uint64() >> 32 << 32
		for low := uint64(0); low < 6; low++ {
			pool = append(pool, tag|low)
		}
	}
	return pool
}

// TestIndexAgainstMapOracle drives random adds, removes (of present and
// absent rows), compacting renumbers and one-pass builds through the index
// and a map oracle, growing and shrinking the table on the way.
func TestIndexAgainstMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := hashPool(rng)
		x, o := &Index{}, newOracle()
		var live []int32
		next := int32(0)
		for step := 0; step < 4000; step++ {
			// Phases of growth and of shrinkage, so the table resizes both ways.
			addBias := 6
			if step/1000%2 == 1 {
				addBias = 3
			}
			switch r := rng.Intn(10); {
			case r < addBias:
				h := pool[rng.Intn(len(pool))]
				x.Add(h, next)
				o.add(h, next)
				live = append(live, next)
				next++
			case r < 9 && len(live) > 0:
				i := rng.Intn(len(live))
				rid := live[i]
				live = append(live[:i], live[i+1:]...)
				if h := o.remove(rid); !x.Remove(h, rid) {
					t.Fatalf("seed %d step %d: Remove of row %d under %#x found nothing", seed, step, rid, h)
				}
			case r == 9:
				if x.Remove(pool[rng.Intn(len(pool))], next+1) {
					t.Fatalf("seed %d step %d: Remove of an absent row succeeded", seed, step)
				}
				if rng.Intn(8) == 0 {
					// Compaction: live rows take the ids 0..n-1 in ascending order.
					remap := make([]int32, next)
					hashOf := o.hashOf
					n := int32(0)
					for rid := int32(0); rid < next; rid++ {
						if _, ok := hashOf[rid]; ok {
							remap[rid] = n
							n++
						}
					}
					x.Renumber(remap)
					o2 := newOracle()
					for h, chain := range o.chains {
						for _, rid := range chain {
							o2.add(h, remap[rid])
						}
					}
					o = o2
					for i, rid := range live {
						live[i] = remap[rid]
					}
					next = n
				}
			}
			if step%50 == 0 {
				check(t, x, o, "incremental")
			}
		}
		check(t, x, o, "incremental")

		// One-pass build of rows 0..n-1 against an oracle filled in row order.
		hashes := make([]uint64, 3000)
		built := newOracle()
		for rid := range hashes {
			hashes[rid] = pool[rng.Intn(len(pool))]
			built.add(hashes[rid], int32(rid))
		}
		check(t, Build(hashes), built, "build")
	}
}

// TestIndexProbeWrapAround fills the end of a minimum-size table with
// entries whose home is its last slot, so their cluster wraps to the front,
// and removes them in every order: each removal must shift the wrapped rest
// back without losing or reordering one.
func TestIndexProbeWrapAround(t *testing.T) {
	probe := &Index{}
	probe.resize(minSlots)
	var tags []uint64
	for h := uint64(1); len(tags) < 5; h++ {
		if probe.home(h<<32) == minSlots-1 {
			tags = append(tags, h<<32)
		}
	}
	tags[4] = tags[3] // two rows under one key: their order must survive the shifts
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}, {1, 3, 0, 4, 2}} {
		x, o := &Index{}, newOracle()
		for rid, h := range tags {
			x.Add(h, int32(rid))
			o.add(h, int32(rid))
		}
		if x.Bytes() != 8*minSlots {
			t.Fatalf("five entries grew the table to %d bytes", x.Bytes())
		}
		if x.slots[0] == 0 || x.slots[minSlots-1] == 0 {
			t.Fatalf("cluster does not wrap: %x", x.slots)
		}
		check(t, x, o, "wrapped")
		for _, rid := range order {
			if !x.Remove(o.remove(int32(rid)), int32(rid)) {
				t.Fatalf("order %v: row %d not found", order, rid)
			}
			check(t, x, o, "after removal")
		}
	}
}
