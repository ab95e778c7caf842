package rowstore

import (
	"math/rand"
	"testing"

	"hybridstore/internal/expr"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

func pkSchema() *schema.Table {
	return schema.MustNew("t", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "v", Type: value.Integer},
	}, "id")
}

func TestOrderedPKRangeScan(t *testing.T) {
	tb := New(pkSchema())
	for i := 0; i < 1000; i++ {
		if err := tb.Insert([][]value.Value{{value.NewBigint(int64(i)), value.NewInt(int64(i % 7))}}); err != nil {
			t.Fatal(err)
		}
	}
	pred := &expr.Between{Col: 0, Lo: value.NewBigint(100), Hi: value.NewBigint(149)}
	visited := 0
	tb.Scan(pred, func(rid int, row []value.Value) bool {
		if row[0].Int() < 100 || row[0].Int() > 149 {
			t.Fatalf("out-of-range row %v", row[0])
		}
		visited++
		return true
	})
	if visited != 50 {
		t.Errorf("range scan visited %d, want 50", visited)
	}
	// Half-open ranges work too.
	count := 0
	tb.Scan(&expr.Comparison{Col: 0, Op: expr.Ge, Val: value.NewBigint(990)}, func(rid int, row []value.Value) bool {
		count++
		return true
	})
	if count != 10 {
		t.Errorf("open range matched %d", count)
	}
}

func TestOrderedPKOutOfOrderInserts(t *testing.T) {
	tb := New(pkSchema())
	keys := []int64{50, 10, 90, 30, 70, 20, 80, 40, 60, 100}
	for _, k := range keys {
		if err := tb.Insert([][]value.Value{{value.NewBigint(k), value.NewInt(0)}}); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	tb.Scan(&expr.Between{Col: 0, Lo: value.NewBigint(20), Hi: value.NewBigint(80)}, func(rid int, row []value.Value) bool {
		got = append(got, row[0].Int())
		return true
	})
	if len(got) != 7 {
		t.Fatalf("matched %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("range scan not in key order: %v", got)
		}
	}
}

func TestOrderedPKAfterDeleteAndUpdate(t *testing.T) {
	tb := New(pkSchema())
	for i := 0; i < 100; i++ {
		if err := tb.Insert([][]value.Value{{value.NewBigint(int64(i)), value.NewInt(0)}}); err != nil {
			t.Fatal(err)
		}
	}
	deleteWhere(tb, &expr.Between{Col: 0, Lo: value.NewBigint(10), Hi: value.NewBigint(19)})
	// Move key 5 to 500.
	if _, err := tb.Update(&expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(5)},
		map[int]value.Value{0: value.NewBigint(500)}); err != nil {
		t.Fatal(err)
	}
	count := 0
	tb.Scan(&expr.Between{Col: 0, Lo: value.NewBigint(0), Hi: value.NewBigint(29)}, func(rid int, row []value.Value) bool {
		count++
		return true
	})
	// 0..29 minus deleted 10..19 minus moved 5 = 19 rows.
	if count != 19 {
		t.Errorf("after delete/update: %d, want 19", count)
	}
	found := 0
	tb.Scan(&expr.Comparison{Col: 0, Op: expr.Ge, Val: value.NewBigint(400)}, func(rid int, row []value.Value) bool {
		found++
		return true
	})
	if found != 1 {
		t.Errorf("moved key not found via range: %d", found)
	}
	// Compact rebuilds the ordered index.
	tb.Compact()
	count = 0
	tb.Scan(&expr.Between{Col: 0, Lo: value.NewBigint(0), Hi: value.NewBigint(29)}, func(rid int, row []value.Value) bool {
		count++
		return true
	})
	if count != 19 {
		t.Errorf("after compact: %d, want 19", count)
	}
}

// Property: range scans through the ordered index agree with full scans
// under random mutations.
func TestOrderedPKEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tb := New(pkSchema())
	live := map[int64]bool{}
	for step := 0; step < 500; step++ {
		switch rng.Intn(3) {
		case 0, 1:
			k := rng.Int63n(2000)
			if !live[k] {
				if err := tb.Insert([][]value.Value{{value.NewBigint(k), value.NewInt(0)}}); err != nil {
					t.Fatal(err)
				}
				live[k] = true
			}
		case 2:
			k := rng.Int63n(2000)
			if live[k] {
				deleteWhere(tb, &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(k)})
				delete(live, k)
			}
		}
		if step%50 == 0 {
			lo, hi := rng.Int63n(1000), 1000+rng.Int63n(1000)
			want := 0
			for k := range live {
				if k >= lo && k <= hi {
					want++
				}
			}
			got := 0
			tb.Scan(&expr.Between{Col: 0, Lo: value.NewBigint(lo), Hi: value.NewBigint(hi)}, func(rid int, row []value.Value) bool {
				got++
				return true
			})
			if got != want {
				t.Fatalf("step %d: range [%d,%d] got %d want %d", step, lo, hi, got, want)
			}
		}
	}
}
