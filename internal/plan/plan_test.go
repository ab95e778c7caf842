package plan

import (
	"strings"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// testEnv builds a two-table environment: "big" (10k rows) and "small"
// (100 rows), both without collected statistics so selectivity falls
// back to the textbook default.
func testEnv() Env {
	big := schema.MustNew("big", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "k", Type: value.Integer},
		{Name: "v", Type: value.Double, Nullable: true},
	}, "id")
	small := schema.MustNew("small", []schema.Column{
		{Name: "dkey", Type: value.Integer},
		{Name: "grp", Type: value.Integer},
	}, "dkey")
	meta := map[string]TableMeta{
		"big":   {Schema: big, Store: catalog.ColumnStore, Rows: 10_000},
		"small": {Schema: small, Store: catalog.RowStore, Rows: 100},
	}
	return Env{
		Meta: func(table string) (TableMeta, bool) {
			m, ok := meta[strings.ToLower(table)]
			return m, ok
		},
		CatalogVersion: 42,
	}
}

func kinds(p *Plan) []string {
	var out []string
	Walk(p.Root, func(n Node, _ int) { out = append(out, n.Kind()) })
	return out
}

func TestBuildStampsVersionAndIDs(t *testing.T) {
	p, err := BuildOptions(&query.Query{Kind: query.Select, Table: "big"}, testEnv(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.CatalogVersion != 42 {
		t.Fatalf("CatalogVersion = %d, want 42", p.CatalogVersion)
	}
	seen := map[int]bool{}
	Walk(p.Root, func(n Node, _ int) {
		if n.ID() <= 0 || seen[n.ID()] {
			t.Fatalf("node %s has invalid/duplicate id %d", n.Kind(), n.ID())
		}
		seen[n.ID()] = true
	})
}

func TestBuildSideFollowsEstimates(t *testing.T) {
	// Without a predicate the 100-row table is the build side, whichever
	// side of the join it sits on.
	q := &query.Query{
		Kind: query.Select, Table: "big",
		Join: &query.Join{Table: "small", LeftCol: 1, RightCol: 0},
	}
	p, err := BuildOptions(q, testEnv(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if buildLeft(p) {
		t.Fatal("small right side should build, got the left")
	}

	// A selective predicate on the big (left) side — estimated from the
	// key range in its statistics — shrinks it below the small side and
	// flips the decision.
	env := testEnv()
	meta := env.Meta
	env.Meta = func(table string) (TableMeta, bool) {
		m, ok := meta(table)
		if table == "big" {
			m.Stats = &catalog.TableStats{
				NumRows:  10_000,
				MinV:     []value.Value{value.NewBigint(0)},
				MaxV:     []value.Value{value.NewBigint(9_999)},
				HasRange: []bool{true},
			} // id < 10 → ~10 estimated rows
		}
		return m, ok
	}
	q2 := &query.Query{
		Kind: query.Select, Table: "big",
		Join: &query.Join{Table: "small", LeftCol: 1, RightCol: 0},
		Pred: &expr.Comparison{Col: 0, Op: expr.Lt, Val: value.NewBigint(10)},
	}
	p2, err := BuildOptions(q2, env, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !buildLeft(p2) {
		t.Fatal("selective left side should build after pushdown")
	}

	// Forcing the build side overrides the estimate.
	force := false
	p3, err := BuildOptions(q2, env, Options{ForceBuildLeft: &force})
	if err != nil {
		t.Fatal(err)
	}
	if buildLeft(p3) {
		t.Fatal("ForceBuildLeft=false ignored")
	}
}

// buildLeft reports the build side p's hash join records.
func buildLeft(p *Plan) bool {
	var left bool
	Walk(p.Root, func(n Node, _ int) {
		if j, ok := n.(*HashJoin); ok {
			left = j.BuildIsLeft
		}
	})
	return left
}

func TestPushdownMovesPredIntoScans(t *testing.T) {
	// One conjunct per side plus a cross-side disjunction that must stay
	// above the join.
	pred := &expr.And{Preds: []expr.Predicate{
		&expr.Comparison{Col: 1, Op: expr.Lt, Val: value.NewInt(5)},     // left
		&expr.Comparison{Col: 3 + 1, Op: expr.Ge, Val: value.NewInt(2)}, // right (grp)
		&expr.Or{Preds: []expr.Predicate{ // mixed
			&expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(1)},
			&expr.Comparison{Col: 3, Op: expr.Eq, Val: value.NewInt(1)},
		}},
	}}
	q := &query.Query{
		Kind: query.Select, Table: "big",
		Join: &query.Join{Table: "small", LeftCol: 1, RightCol: 0},
		Pred: pred,
	}
	p, err := BuildOptions(q, testEnv(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var scansWithPred, filters int
	Walk(p.Root, func(n Node, _ int) {
		switch v := n.(type) {
		case *Scan:
			if v.Pred != nil {
				scansWithPred++
			}
		case *Filter:
			filters++
			if len(expr.Conjuncts(v.Pred)) != 1 {
				t.Fatalf("post-join filter should keep only the mixed conjunct, got %s", v.Pred)
			}
		}
	})
	if scansWithPred != 2 {
		t.Fatalf("want both scans predicated after pushdown, got %d", scansWithPred)
	}
	if filters != 1 {
		t.Fatalf("want exactly one residual filter, got %d", filters)
	}

	// Disabled: scans are bare and everything evaluates post-join.
	pd, err := BuildOptions(q, testEnv(), Options{DisablePushdown: true})
	if err != nil {
		t.Fatal(err)
	}
	Walk(pd.Root, func(n Node, _ int) {
		if s, ok := n.(*Scan); ok && s.Pred != nil {
			t.Fatalf("scan on %q predicated despite DisablePushdown", s.Table)
		}
	})
}

func TestOrderLimitOperatorChoice(t *testing.T) {
	base := func() *query.Query {
		return &query.Query{Kind: query.Select, Table: "big", Cols: []int{0, 1}}
	}
	cases := []struct {
		name string
		mut  func(*query.Query)
		opts Options
		want []string
	}{
		{"plain", func(q *query.Query) {}, Options{}, []string{"project", "scan"}},
		{"topk", func(q *query.Query) {
			q.OrderBy = []query.Order{{Col: 1}}
			q.Limit = 10
		}, Options{}, []string{"project", "topk", "scan"}},
		{"topk-disabled", func(q *query.Query) {
			q.OrderBy = []query.Order{{Col: 1}}
			q.Limit = 10
		}, Options{DisableTopK: true}, []string{"project", "limit", "sort", "scan"}},
		{"bare-sort", func(q *query.Query) {
			q.OrderBy = []query.Order{{Col: 1, Desc: true}}
		}, Options{}, []string{"project", "sort", "scan"}},
		{"bare-limit", func(q *query.Query) { q.Limit = 10 }, Options{}, []string{"project", "limit", "scan"}},
	}
	for _, tc := range cases {
		q := base()
		tc.mut(q)
		p, err := BuildOptions(q, testEnv(), tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := kinds(p)
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%s: plan shape %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTopKEstimateBounded(t *testing.T) {
	q := &query.Query{
		Kind: query.Select, Table: "big", Cols: []int{0},
		OrderBy: []query.Order{{Col: 1}}, Limit: 7,
	}
	p, err := BuildOptions(q, testEnv(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	Walk(p.Root, func(n Node, _ int) {
		if tk, ok := n.(*TopK); ok {
			if tk.Estimate().Rows > 7 {
				t.Fatalf("topk row estimate %.1f exceeds k", tk.Estimate().Rows)
			}
		}
	})
}

func TestAggregatePlanShape(t *testing.T) {
	q := &query.Query{
		Kind: query.Aggregate, Table: "big",
		Aggs:    []agg.Spec{{Func: agg.Sum, Col: 2}, {Func: agg.Count, Col: -1}},
		GroupBy: []int{1},
		Pred:    &expr.Comparison{Col: 1, Op: expr.Ge, Val: value.NewInt(1)},
	}
	p, err := BuildOptions(q, testEnv(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := kinds(p)
	if strings.Join(got, ",") != "aggregate,scan" {
		t.Fatalf("aggregate plan shape %v", got)
	}
	// A grouped aggregate's estimate must not exceed its input estimate.
	var a *Aggregate
	Walk(p.Root, func(n Node, _ int) {
		if v, ok := n.(*Aggregate); ok {
			a = v
		}
	})
	if a.Estimate().Rows > a.Input.Estimate().Rows {
		t.Fatalf("groups %.1f exceed input rows %.1f", a.Estimate().Rows, a.Input.Estimate().Rows)
	}
}

func TestBuildValidation(t *testing.T) {
	env := testEnv()
	cases := []struct {
		name string
		q    *query.Query
		want string
	}{
		{"non-read", &query.Query{Kind: query.Insert, Table: "big"}, "cannot plan"},
		{"unknown-table", &query.Query{Kind: query.Select, Table: "nope"}, "unknown table"},
		{"bad-col", &query.Query{Kind: query.Select, Table: "big", Cols: []int{9}}, "out of range"},
		{"bad-order", &query.Query{Kind: query.Select, Table: "big",
			OrderBy: []query.Order{{Col: -1}}}, "out of range"},
		{"bad-join-col", &query.Query{Kind: query.Select, Table: "big",
			Join: &query.Join{Table: "small", LeftCol: 7, RightCol: 0}}, "out of range"},
		{"bad-pred-col", &query.Query{Kind: query.Select, Table: "big",
			Pred: &expr.Comparison{Col: 5, Op: expr.Eq, Val: value.NewInt(1)}}, "out of range"},
	}
	for _, tc := range cases {
		_, err := BuildOptions(tc.q, env, Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestPlanStringRendersTree(t *testing.T) {
	q := &query.Query{
		Kind: query.Aggregate, Table: "big",
		Join:    &query.Join{Table: "small", LeftCol: 1, RightCol: 0},
		Aggs:    []agg.Spec{{Func: agg.Count, Col: -1}},
		GroupBy: []int{4},
	}
	p, err := BuildOptions(q, testEnv(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, want := range []string{"aggregate", "hashjoin", "big store=", "small store="} {
		if !strings.Contains(s, want) {
			t.Errorf("Plan.String missing %q:\n%s", want, s)
		}
	}
}
