package costmodel

import (
	"encoding/json"
	"math"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

func testSchema() *schema.Table {
	return schema.MustNew("t", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "grp", Type: value.Integer},
		{Name: "amount", Type: value.Double},
		{Name: "name", Type: value.Varchar},
	}, "id")
}

type fixedStats struct {
	rows     int
	distinct map[int]int
}

func (f *fixedStats) Rows() int            { return f.rows }
func (f *fixedStats) Distinct(col int) int { return f.distinct[col] }
func (f *fixedStats) MinMax(col int) (value.Value, value.Value, bool) {
	return value.NewBigint(0), value.NewBigint(int64(f.rows - 1)), true
}

func infoFor(rows int) InfoSource {
	sch := testSchema()
	ti := TableInfo{
		Schema:      sch,
		Rows:        rows,
		Compression: 0.6,
		Stats:       &fixedStats{rows: rows, distinct: map[int]int{0: rows, 1: 10, 2: rows / 2}},
	}
	dim := schema.MustNew("dim", []schema.Column{
		{Name: "rid", Type: value.Integer},
		{Name: "label", Type: value.Varchar},
	}, "rid")
	di := TableInfo{Schema: dim, Rows: 1000, Compression: 0.6,
		Stats: &fixedStats{rows: 1000, distinct: map[int]int{0: 1000, 1: 50}}}
	return func(table string) (TableInfo, bool) {
		switch table {
		case "t":
			return ti, true
		case "dim":
			return di, true
		default:
			return TableInfo{}, false
		}
	}
}

func placeBoth(s catalog.StoreKind) Placement {
	return Placement{"t": s, "dim": s}
}

func aggQuery(n int) *query.Query {
	aggs := make([]agg.Spec, n)
	for i := range aggs {
		aggs[i] = agg.Spec{Func: agg.Sum, Col: 2}
	}
	return &query.Query{Kind: query.Aggregate, Table: "t", Aggs: aggs}
}

func TestLinFn(t *testing.T) {
	f := LinFn{A: 2, B: 3}
	if f.At(5) != 13 {
		t.Errorf("At = %v", f.At(5))
	}
	n := f.Normalized(5)
	if math.Abs(n.At(5)-1) > 1e-12 {
		t.Errorf("normalized At(x0) = %v", n.At(5))
	}
	z := LinFn{}.Normalized(10)
	if z.At(3) != 1 {
		t.Error("degenerate normalization should be constant 1")
	}
}

func TestPiecewiseFn(t *testing.T) {
	f := PiecewiseFn{Xs: []float64{0, 1, 2}, Ys: []float64{10, 20, 40}}
	cases := map[float64]float64{-1: 10, 0: 10, 0.5: 15, 1: 20, 1.5: 30, 2: 40, 3: 40}
	for x, want := range cases {
		if got := f.At(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", x, got, want)
		}
	}
	if (PiecewiseFn{}).At(5) != 1 {
		t.Error("empty piecewise should be 1")
	}
}

func TestFitLinear(t *testing.T) {
	a, b := FitLinear([]float64{1, 2, 3}, []float64{5, 7, 9})
	if math.Abs(a-2) > 1e-9 || math.Abs(b-3) > 1e-9 {
		t.Errorf("fit = %v, %v", a, b)
	}
	// Constant x degenerates to the mean.
	a, b = FitLinear([]float64{2, 2}, []float64{4, 6})
	if a != 0 || b != 5 {
		t.Errorf("degenerate fit = %v, %v", a, b)
	}
	if a, b := FitLinear(nil, nil); a != 0 || b != 0 {
		t.Error("empty fit")
	}
}

func TestFitLinFnClampsNegativeSlope(t *testing.T) {
	f := FitLinFn([]float64{1, 2, 3}, []float64{10, 9, 8})
	if f.A != 0 {
		t.Errorf("negative slope not clamped: %+v", f)
	}
	if math.Abs(f.B-9) > 1e-9 {
		t.Errorf("clamped mean = %v", f.B)
	}
}

func TestFitPiecewise(t *testing.T) {
	f := FitPiecewise([]float64{2, 0, 2}, []float64{30, 10, 50})
	if len(f.Xs) != 2 || f.Xs[0] != 0 {
		t.Fatalf("piecewise fit = %+v", f)
	}
	if f.Ys[1] != 40 { // duplicates averaged
		t.Errorf("duplicate averaging = %v", f.Ys[1])
	}
	n := NormalizePiecewise(f, 0)
	if n.Ys[0] != 1 {
		t.Errorf("normalization = %+v", n)
	}
}

func TestMeanAbsError(t *testing.T) {
	e := MeanAbsError([]float64{110, 90}, []float64{100, 100})
	if math.Abs(e-0.1) > 1e-9 {
		t.Errorf("MAE = %v", e)
	}
	if MeanAbsError(nil, nil) != 0 {
		t.Error("empty MAE")
	}
	if MeanAbsError([]float64{1}, []float64{0}) != 0 {
		t.Error("zero-actual MAE should be skipped")
	}
}

func TestPlacement(t *testing.T) {
	p := Placement{"t": catalog.ColumnStore}
	if p.StoreOf("T") != catalog.ColumnStore {
		t.Error("case-insensitive placement lookup")
	}
	if p.StoreOf("other") != catalog.RowStore {
		t.Error("default placement should be row store")
	}
	c := p.Clone()
	c["t"] = catalog.RowStore
	if p.StoreOf("t") != catalog.ColumnStore {
		t.Error("clone aliases original")
	}
}

func TestAggregateEstimateOrdering(t *testing.T) {
	m := DefaultModel()
	info := infoFor(100_000)
	q := aggQuery(1)
	rs := m.EstimateQuery(q, info, placeBoth(catalog.RowStore))
	cs := m.EstimateQuery(q, info, placeBoth(catalog.ColumnStore))
	if cs >= rs {
		t.Errorf("column store should aggregate faster: cs=%v rs=%v", cs, rs)
	}
}

func TestAggregateEstimateScalesWithRows(t *testing.T) {
	m := DefaultModel()
	q := aggQuery(1)
	small := m.EstimateQuery(q, infoFor(50_000), placeBoth(catalog.ColumnStore))
	large := m.EstimateQuery(q, infoFor(200_000), placeBoth(catalog.ColumnStore))
	if large <= small {
		t.Errorf("estimate should grow with rows: %v vs %v", small, large)
	}
	ratio := large / small
	if ratio < 3 || ratio > 5 {
		t.Errorf("linear f_#rows expected ~4x, got %v", ratio)
	}
}

func TestAggregateEstimateAdditiveInAggs(t *testing.T) {
	m := DefaultModel()
	info := infoFor(100_000)
	place := placeBoth(catalog.ColumnStore)
	one := m.EstimateQuery(aggQuery(1), info, place)
	three := m.EstimateQuery(aggQuery(3), info, place)
	if math.Abs(three-3*one) > 1e-6*one {
		t.Errorf("aggregates should compose additively: 1=%v 3=%v", one, three)
	}
}

func TestGroupByMultiplier(t *testing.T) {
	m := DefaultModel()
	info := infoFor(100_000)
	place := placeBoth(catalog.ColumnStore)
	q := aggQuery(1)
	plain := m.EstimateQuery(q, info, place)
	qg := aggQuery(1)
	qg.GroupBy = []int{1}
	grouped := m.EstimateQuery(qg, info, place)
	if math.Abs(grouped/plain-m.CS.GroupByC) > 1e-9 {
		t.Errorf("grouping multiplier: %v", grouped/plain)
	}
}

func TestCompressionAffectsOnlyColumnStore(t *testing.T) {
	m := DefaultModel()
	q := aggQuery(1)
	mkInfo := func(compr float64) InfoSource {
		base := infoFor(100_000)
		return func(tb string) (TableInfo, bool) {
			ti, ok := base(tb)
			ti.Compression = compr
			return ti, ok
		}
	}
	csLow := m.EstimateQuery(q, mkInfo(0.1), placeBoth(catalog.ColumnStore))
	csHigh := m.EstimateQuery(q, mkInfo(0.9), placeBoth(catalog.ColumnStore))
	if csHigh >= csLow {
		t.Errorf("better compression should reduce CS cost: %v vs %v", csLow, csHigh)
	}
	rsLow := m.EstimateQuery(q, mkInfo(0.1), placeBoth(catalog.RowStore))
	rsHigh := m.EstimateQuery(q, mkInfo(0.9), placeBoth(catalog.RowStore))
	if rsLow != rsHigh {
		t.Errorf("row store should ignore compression: %v vs %v", rsLow, rsHigh)
	}
}

func TestSelectEstimates(t *testing.T) {
	m := DefaultModel()
	info := infoFor(100_000)
	point := &query.Query{
		Kind: query.Select, Table: "t", Cols: []int{0, 2},
		Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(5)},
	}
	// PK point query: the row store's indexed path should beat the column
	// store's reconstruction.
	rs := m.EstimateQuery(point, info, placeBoth(catalog.RowStore))
	cs := m.EstimateQuery(point, info, placeBoth(catalog.ColumnStore))
	if rs >= cs {
		t.Errorf("RS point query should be cheaper: rs=%v cs=%v", rs, cs)
	}
	// Unindexed range scan on the row store is flat in selectivity;
	// the estimate must exceed the indexed point query.
	scan := &query.Query{
		Kind: query.Select, Table: "t", Cols: []int{0, 2},
		Pred: &expr.Comparison{Col: 2, Op: expr.Gt, Val: value.NewBigint(10)},
	}
	rsScan := m.EstimateQuery(scan, info, placeBoth(catalog.RowStore))
	if rsScan <= rs {
		t.Errorf("scan should cost more than indexed point: scan=%v point=%v", rsScan, rs)
	}
	// Column-store cost grows with the number of selected columns (tuple
	// reconstruction).
	narrow := &query.Query{Kind: query.Select, Table: "t", Cols: []int{0},
		Pred: &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(1)}}
	wide := &query.Query{Kind: query.Select, Table: "t", Cols: []int{0, 1, 2, 3},
		Pred: &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(1)}}
	if m.EstimateQuery(wide, info, placeBoth(catalog.ColumnStore)) <= m.EstimateQuery(narrow, info, placeBoth(catalog.ColumnStore)) {
		t.Error("CS select should grow with selected columns")
	}
	// Row store is flat in selected columns.
	rsNarrow := m.EstimateQuery(narrow, info, placeBoth(catalog.RowStore))
	rsWide := m.EstimateQuery(wide, info, placeBoth(catalog.RowStore))
	if rsNarrow != rsWide {
		t.Errorf("RS select should ignore column count: %v vs %v", rsNarrow, rsWide)
	}
}

func TestSelectLimitCapsSelectivity(t *testing.T) {
	m := DefaultModel()
	info := infoFor(100_000)
	unlimited := &query.Query{Kind: query.Select, Table: "t",
		Pred: &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(1)}}
	limited := &query.Query{Kind: query.Select, Table: "t", Limit: 1,
		Pred: &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(1)}}
	cs := placeBoth(catalog.ColumnStore)
	if m.EstimateQuery(limited, info, cs) >= m.EstimateQuery(unlimited, info, cs) {
		t.Error("limit should reduce the estimate")
	}
}

func TestInsertEstimates(t *testing.T) {
	m := DefaultModel()
	info := infoFor(100_000)
	ins := &query.Query{Kind: query.Insert, Table: "t",
		Rows: make([][]value.Value, 10)}
	rs := m.EstimateQuery(ins, info, placeBoth(catalog.RowStore))
	cs := m.EstimateQuery(ins, info, placeBoth(catalog.ColumnStore))
	if rs >= cs {
		t.Errorf("RS inserts should be cheaper: rs=%v cs=%v", rs, cs)
	}
	one := &query.Query{Kind: query.Insert, Table: "t", Rows: make([][]value.Value, 1)}
	if r := m.EstimateQuery(ins, info, placeBoth(catalog.RowStore)) / m.EstimateQuery(one, info, placeBoth(catalog.RowStore)); math.Abs(r-10) > 1e-9 {
		t.Errorf("insert cost should scale with row count: %v", r)
	}
}

func TestUpdateDeleteEstimates(t *testing.T) {
	m := DefaultModel()
	info := infoFor(100_000)
	upd := &query.Query{Kind: query.Update, Table: "t",
		Set:  map[int]value.Value{2: value.NewDouble(1)},
		Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(1)}}
	rs := m.EstimateQuery(upd, info, placeBoth(catalog.RowStore))
	cs := m.EstimateQuery(upd, info, placeBoth(catalog.ColumnStore))
	if rs >= cs {
		t.Errorf("RS updates should be cheaper: rs=%v cs=%v", rs, cs)
	}
	del := &query.Query{Kind: query.Delete, Table: "t",
		Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(1)}}
	if m.EstimateQuery(del, info, placeBoth(catalog.RowStore)) <= 0 {
		t.Error("delete estimate should be positive")
	}
	// Updating more rows costs more.
	broad := &query.Query{Kind: query.Update, Table: "t",
		Set:  map[int]value.Value{2: value.NewDouble(1)},
		Pred: &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(1)}} // sel 0.1
	if m.EstimateQuery(broad, info, placeBoth(catalog.RowStore)) <= rs {
		t.Error("broader update should cost more")
	}
}

func TestJoinEstimates(t *testing.T) {
	m := DefaultModel()
	info := infoFor(100_000)
	jq := &query.Query{
		Kind: query.Aggregate, Table: "t",
		Join: &query.Join{Table: "dim", LeftCol: 1, RightCol: 0},
		Aggs: []agg.Spec{{Func: agg.Sum, Col: 2}},
	}
	costs := map[string]float64{}
	for _, s1 := range []catalog.StoreKind{catalog.RowStore, catalog.ColumnStore} {
		for _, s2 := range []catalog.StoreKind{catalog.RowStore, catalog.ColumnStore} {
			place := Placement{"t": s1, "dim": s2}
			c := m.EstimateQuery(jq, info, place)
			if c <= 0 {
				t.Fatalf("join estimate %v/%v not positive", s1, s2)
			}
			costs[storeKey(s1)+"/"+storeKey(s2)] = c
		}
	}
	if costs["COLUMN/ROW"] >= costs["ROW/ROW"] {
		t.Errorf("OLAP join should favor CS fact table: %v", costs)
	}
}

func TestEstimateWorkload(t *testing.T) {
	m := DefaultModel()
	info := infoFor(100_000)
	w := &query.Workload{}
	w.Add(aggQuery(1), aggQuery(2))
	place := placeBoth(catalog.ColumnStore)
	total := m.EstimateWorkload(w, info, place)
	sum := m.EstimateQuery(w.Queries[0], info, place) + m.EstimateQuery(w.Queries[1], info, place)
	if math.Abs(total-sum) > 1e-9 {
		t.Errorf("workload estimate should sum queries: %v vs %v", total, sum)
	}
}

func TestUnknownTableEstimatesZero(t *testing.T) {
	m := DefaultModel()
	info := infoFor(1000)
	q := &query.Query{Kind: query.Aggregate, Table: "ghost", Aggs: []agg.Spec{{Func: agg.Sum, Col: 0}}}
	if got := m.EstimateQuery(q, info, Placement{}); got != 0 {
		t.Errorf("unknown table estimate = %v", got)
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	m := DefaultModel()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.RefRows != m.RefRows || back.CS.GroupByC != m.CS.GroupByC {
		t.Error("round trip lost data")
	}
	if back.JoinBase["ROW"]["COLUMN"] != m.JoinBase["ROW"]["COLUMN"] {
		t.Error("join base lost")
	}
	if err := json.Unmarshal([]byte(`{"RefRows":0}`), &back); err == nil {
		t.Error("invalid model accepted")
	}
}
