package colstore

import (
	"fmt"
	"math/rand"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/expr"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

func pairSchema() *schema.Table {
	return schema.MustNew("t", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "flag", Type: value.Varchar, Nullable: true},
		{Name: "status", Type: value.Varchar},
		{Name: "amount", Type: value.Double},
		{Name: "wide", Type: value.Bigint}, // high cardinality
	}, "id")
}

func TestPairGroupMatchesRowStore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cs := New(pairSchema())
	flags := []string{"A", "N", "R"}
	var rows [][]value.Value
	for i := 0; i < 2000; i++ {
		f := value.NewVarchar(flags[rng.Intn(3)])
		if rng.Intn(20) == 0 {
			f = value.Null(value.Varchar) // NULL group keys
		}
		rows = append(rows, []value.Value{
			value.NewBigint(int64(i)),
			f,
			value.NewVarchar([]string{"F", "O"}[rng.Intn(2)]),
			value.NewDouble(float64(rng.Intn(1000))),
			value.NewBigint(rng.Int63n(1 << 40)),
		})
	}
	if err := cs.Insert(rows); err != nil {
		t.Fatal(err)
	}
	cs.Merge()
	// Add delta rows so both fragments contribute codes.
	extra := [][]value.Value{{
		value.NewBigint(99999), value.NewVarchar("A"),
		value.NewVarchar("F"), value.NewDouble(5), value.NewBigint(1),
	}}
	if err := cs.Insert(extra); err != nil {
		t.Fatal(err)
	}
	rows = append(rows, extra...)

	specs := []agg.Spec{{Func: agg.Sum, Col: 3}, {Func: agg.Count, Col: -1}}
	groupBy := []int{1, 2}
	if !cs.pairGroupFeasible(groupBy) {
		t.Fatal("low-cardinality pair should take the dense path")
	}
	for _, pred := range []expr.Predicate{
		nil,
		&expr.Comparison{Col: 3, Op: expr.Ge, Val: value.NewDouble(500)},
	} {
		cres := cs.AggregateExec(specs, groupBy, pred, nil)
		rres := foldRows(cs.Schema(), rows, specs, groupBy, pred)
		if len(cres.Groups) != len(rres.Groups) {
			t.Fatalf("pred=%v: groups cs=%d rs=%d", pred, len(cres.Groups), len(rres.Groups))
		}
		want := map[string][]value.Value{}
		for _, row := range rres.Rows() {
			want[row[0].String()+"|"+row[1].String()] = row
		}
		for _, row := range cres.Rows() {
			w, ok := want[row[0].String()+"|"+row[1].String()]
			if !ok {
				t.Fatalf("pred=%v: unexpected group %v/%v", pred, row[0], row[1])
			}
			if row[2].Float() != w[2].Float() || row[3].Int() != w[3].Int() {
				t.Fatalf("pred=%v group %v/%v: cs=%v,%v rs=%v,%v",
					pred, row[0], row[1], row[2], row[3], w[2], w[3])
			}
		}
	}
}

func TestPairGroupFeasibility(t *testing.T) {
	cs := New(pairSchema())
	var rows [][]value.Value
	for i := 0; i < 1000; i++ {
		rows = append(rows, []value.Value{
			value.NewBigint(int64(i)),
			value.NewVarchar(fmt.Sprintf("f%d", i)), // 1000 distinct
			value.NewVarchar("s"),
			value.NewDouble(1),
			value.NewBigint(int64(i)), // 1000 distinct
		})
	}
	if err := cs.Insert(rows); err != nil {
		t.Fatal(err)
	}
	cs.Merge()
	if !cs.pairGroupFeasible([]int{1, 2}) {
		t.Error("1000×1 product should be feasible")
	}
	// 1000 × 1000 = 1e6 > limit: must fall back.
	if cs.pairGroupFeasible([]int{1, 4}) {
		t.Error("1e6 code product should not take the dense path")
	}
	// The generic fallback must still be correct.
	res := cs.AggregateExec([]agg.Spec{{Func: agg.Count, Col: -1}}, []int{1, 4}, nil, nil)
	if len(res.Groups) != 1000 {
		t.Errorf("fallback groups = %d", len(res.Groups))
	}
}
