package colstore_test

import (
	"math/rand"
	"testing"

	"hybridstore/internal/colstore"
	"hybridstore/internal/value"
	"hybridstore/internal/workload"
)

// BenchmarkColMerge measures the delta merge on the standard 30-attribute
// table at 30 k rows: grow loads it in 1 k-row batches with auto-merge on
// (every merge the load triggers), steady merges a delta of a tenth of the
// table into a merged main.
func BenchmarkColMerge(b *testing.B) {
	const rows = 30000
	spec := workload.StandardTable("t")
	gen := func(rng *rand.Rand, lo, hi int) [][]value.Value {
		batch := make([][]value.Value, 0, hi-lo)
		for id := lo; id < hi; id++ {
			batch = append(batch, spec.RowGen(rng, int64(id)))
		}
		return batch
	}
	b.Run("grow", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2012))
		var batches [][][]value.Value
		for lo := 0; lo < rows; lo += 1000 {
			batches = append(batches, gen(rng, lo, lo+1000))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb := colstore.New(spec.Schema)
			for _, batch := range batches {
				if err := tb.Insert(batch); err != nil {
					b.Fatal(err)
				}
			}
			tb.Merge()
		}
	})
	b.Run("steady", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2012))
		main, delta := gen(rng, 0, rows), gen(rng, rows, rows+rows/10)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tb := colstore.New(spec.Schema)
			tb.AutoMerge = false
			if err := tb.Insert(main); err != nil {
				b.Fatal(err)
			}
			tb.Merge()
			if err := tb.Insert(delta); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			tb.Merge()
		}
	})
}
