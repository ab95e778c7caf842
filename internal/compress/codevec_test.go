package compress

import (
	"math/rand"
	"testing"
)

// genCodes produces code vectors with the distributions each coding
// targets: runny (RLE), locally clustered (FoR) and uniform (Packed).
func genCodes(rng *rand.Rand, n, distinct int, shape string) []uint32 {
	codes := make([]uint32, n)
	switch shape {
	case "runs":
		c := uint32(rng.Intn(distinct))
		for i := range codes {
			if rng.Intn(200) == 0 {
				c = uint32(rng.Intn(distinct))
			}
			codes[i] = c
		}
	case "clustered":
		for i := range codes {
			base := uint32(i / forBlock * 7 % distinct)
			codes[i] = (base + uint32(rng.Intn(16))) % uint32(distinct)
		}
	default:
		for i := range codes {
			codes[i] = uint32(rng.Intn(distinct))
		}
	}
	return codes
}

func vectorsFor(t *testing.T, codes []uint32, distinct int) map[string]CodeVector {
	t.Helper()
	return map[string]CodeVector{
		"packed": Pack(codes, distinct),
		"rle":    NewRLE(codes),
		"for":    NewFoR(codes),
		"encode": Encode(codes, distinct),
	}
}

// TestCodeVectorRoundTrip: Get and UnpackBlock reproduce the source codes
// for every coding.
func TestCodeVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []string{"runs", "clustered", "uniform"} {
		for _, n := range []int{0, 1, 63, 64, 1000, 1024, 5000} {
			codes := genCodes(rng, n, 300, shape)
			for name, v := range vectorsFor(t, codes, 300) {
				if v.Len() != n {
					t.Fatalf("%s/%s n=%d: Len=%d", name, shape, n, v.Len())
				}
				for i, want := range codes {
					if got := v.Get(i); got != want {
						t.Fatalf("%s/%s n=%d: Get(%d)=%d want %d", name, shape, n, i, got, want)
					}
				}
				// UnpackBlock at assorted offsets and lengths.
				for trial := 0; trial < 20 && n > 0; trial++ {
					start := rng.Intn(n)
					ln := rng.Intn(n - start + 1)
					dst := make([]uint32, ln)
					v.UnpackBlock(start, dst)
					for i, got := range dst {
						if got != codes[start+i] {
							t.Fatalf("%s/%s: UnpackBlock(%d)[%d]=%d want %d", name, shape, start, i, got, codes[start+i])
						}
					}
				}
			}
		}
	}
}

// TestRangeMatchKernelEquivalence: every coding's fused kernels agree with
// decode-then-filter, including trailing-bit handling and the And
// variant's preservation of bits at positions >= n.
func TestRangeMatchKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const distinct = 120
	for _, shape := range []string{"runs", "clustered", "uniform"} {
		codes := genCodes(rng, 4096+257, distinct, shape)
		vectors := vectorsFor(t, codes, distinct)
		for trial := 0; trial < 200; trial++ {
			// Block-aligned and word-aligned starts (the scan's shapes)
			// plus arbitrary ones.
			var start int
			switch trial % 3 {
			case 0:
				start = (rng.Intn(4) * 1024)
			case 1:
				start = rng.Intn(60) * 64
			default:
				start = rng.Intn(len(codes))
			}
			n := rng.Intn(len(codes) - start + 1)
			lo := uint32(rng.Intn(distinct + 2))
			hi := uint32(rng.Intn(distinct + 2))
			if trial%7 == 0 {
				hi = lo // empty range edge case
			}
			nw := (n + 63) / 64
			want := make([]uint64, nw+1)
			for i := 0; i < n; i++ {
				c := codes[start+i]
				if hi > lo && c >= lo && c < hi {
					want[i>>6] |= 1 << (uint(i) & 63)
				}
			}
			for name, v := range vectors {
				got := make([]uint64, nw+1)
				for i := range got {
					got[i] = 0xdeadbeefdeadbeef // kernels must overwrite [0, nw)
				}
				v.RangeMatchWords(start, n, lo, hi, got)
				for w := 0; w < nw; w++ {
					if got[w] != want[w] {
						t.Fatalf("%s/%s RangeMatchWords(start=%d n=%d lo=%d hi=%d) word %d = %x want %x",
							name, shape, start, n, lo, hi, w, got[w], want[w])
					}
				}

				// And variant over a random pre-bitmap: result must equal
				// pre & match below n and preserve pre at/above n.
				pre := make([]uint64, nw+1)
				for i := range pre {
					pre[i] = rng.Uint64()
				}
				gotAnd := append([]uint64(nil), pre...)
				v.RangeMatchWordsAnd(start, n, lo, hi, gotAnd)
				for w := 0; w <= nw; w++ {
					mask := ^uint64(0)
					var expect uint64
					if w < nw {
						if rem := n & 63; w == nw-1 && rem != 0 {
							low := uint64(1)<<uint(rem) - 1
							expect = pre[w]&want[w]&low | pre[w]&^low
						} else {
							expect = pre[w] & want[w]
						}
					} else {
						expect = pre[w] // untouched word past the range
					}
					if gotAnd[w]&mask != expect {
						t.Fatalf("%s/%s RangeMatchWordsAnd(start=%d n=%d lo=%d hi=%d) word %d = %x want %x",
							name, shape, start, n, lo, hi, w, gotAnd[w], expect)
					}
				}
			}
		}
	}
}

// TestEncodeChoosesByShape: Encode returns the coding that fits the data
// and never loses information.
func TestEncodeChoosesByShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 8 * forBlock

	runs := genCodes(rng, n, 1000, "runs")
	if _, ok := Encode(runs, 1000).(*RLE); !ok {
		t.Errorf("runny data: Encode did not choose RLE")
	}
	clustered := make([]uint32, n)
	for i := range clustered {
		clustered[i] = uint32(i/forBlock*5000) + uint32(rng.Intn(16))
	}
	if _, ok := Encode(clustered, 5000*(n/forBlock)+16).(*FoR); !ok {
		t.Errorf("clustered data: Encode did not choose FoR")
	}
	uniform := genCodes(rng, n, 60000, "uniform")
	if _, ok := Encode(uniform, 60000).(*Packed); !ok {
		t.Errorf("uniform data: Encode did not choose Packed")
	}

	// Whatever is chosen, the payload must round-trip.
	for _, codes := range [][]uint32{runs, clustered, uniform} {
		distinct := 0
		for _, c := range codes {
			if int(c) >= distinct {
				distinct = int(c) + 1
			}
		}
		v := Encode(codes, distinct)
		for i, want := range codes {
			if got := v.Get(i); got != want {
				t.Fatalf("Encode round-trip: Get(%d)=%d want %d (%T)", i, got, want, v)
			}
		}
	}

	// Small vectors always stay bit-packed.
	small := genCodes(rng, forBlock, 4, "runs")
	if _, ok := Encode(small, 4).(*Packed); !ok {
		t.Errorf("small vector: Encode did not stay Packed")
	}
}

// TestEncodeSizes: a chosen alternative coding is actually smaller.
func TestEncodeSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, shape := range []string{"runs", "clustered", "uniform"} {
		codes := genCodes(rng, 8*forBlock, 2000, shape)
		v := Encode(codes, 2000)
		if _, ok := v.(*Packed); ok {
			continue
		}
		packed := Pack(codes, 2000)
		if v.SizeBytes() >= packed.SizeBytes() {
			t.Errorf("%s: Encode chose %T with %d bytes >= packed %d", shape, v, v.SizeBytes(), packed.SizeBytes())
		}
	}
}
