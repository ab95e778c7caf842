package query

import (
	"reflect"
	"strings"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/expr"
	"hybridstore/internal/value"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Aggregate: "AGGREGATE", Select: "SELECT", Insert: "INSERT",
		Update: "UPDATE", Delete: "DELETE",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
}

func TestIsOLAP(t *testing.T) {
	if !(&Query{Kind: Aggregate}).IsOLAP() {
		t.Error("aggregate should be OLAP")
	}
	for _, k := range []Kind{Select, Insert, Update, Delete} {
		if (&Query{Kind: k}).IsOLAP() {
			t.Errorf("%v should be OLTP", k)
		}
	}
}

func TestTables(t *testing.T) {
	q := &Query{Kind: Aggregate, Table: "fact"}
	if got := q.Tables(); !reflect.DeepEqual(got, []string{"fact"}) {
		t.Errorf("Tables = %v", got)
	}
	q.Join = &Join{Table: "dim"}
	if got := q.Tables(); !reflect.DeepEqual(got, []string{"fact", "dim"}) {
		t.Errorf("Tables with join = %v", got)
	}
}

func TestValidate(t *testing.T) {
	good := []*Query{
		{Kind: Aggregate, Table: "t", Aggs: []agg.Spec{{Func: agg.Sum, Col: 0}}},
		{Kind: Select, Table: "t"},
		{Kind: Insert, Table: "t", Rows: [][]value.Value{{value.NewInt(1)}}},
		{Kind: Update, Table: "t", Set: map[int]value.Value{0: value.NewInt(1)}},
		{Kind: Delete, Table: "t"},
	}
	for i, q := range good {
		if err := q.Validate(); err != nil {
			t.Errorf("good query %d rejected: %v", i, err)
		}
	}
	bad := []*Query{
		{Kind: Select},
		{Kind: Aggregate, Table: "t"},
		{Kind: Insert, Table: "t"},
		{Kind: Insert, Table: "t", Rows: [][]value.Value{{}}, Join: &Join{Table: "x"}},
		{Kind: Update, Table: "t"},
		{Kind: Update, Table: "t", Set: map[int]value.Value{0: value.NewInt(1)}, Join: &Join{Table: "x"}},
		{Kind: Delete, Table: "t", Join: &Join{Table: "x"}},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

func TestString(t *testing.T) {
	q := &Query{
		Kind:    Aggregate,
		Table:   "sales",
		Aggs:    []agg.Spec{{Func: agg.Sum, Col: 2}, {Func: agg.Avg, Col: 3}},
		GroupBy: []int{1},
		Pred:    &expr.Comparison{Col: 0, Op: expr.Gt, Val: value.NewInt(5)},
	}
	s := q.String()
	for _, frag := range []string{"SUM(col2)", "AVG(col3)", "FROM sales", "WHERE", "GROUP BY col1"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String missing %q: %s", frag, s)
		}
	}
	sel := &Query{Kind: Select, Table: "t", Cols: []int{0, 2}, Limit: 5}
	if s := sel.String(); !strings.Contains(s, "col0, col2") || !strings.Contains(s, "LIMIT 5") {
		t.Errorf("select String = %s", s)
	}
	selAll := &Query{Kind: Select, Table: "t"}
	if !strings.Contains(selAll.String(), "SELECT *") {
		t.Errorf("select-all String = %s", selAll.String())
	}
	ins := &Query{Kind: Insert, Table: "t", Rows: make([][]value.Value, 3)}
	if !strings.Contains(ins.String(), "3 rows") {
		t.Errorf("insert String = %s", ins.String())
	}
	upd := &Query{Kind: Update, Table: "t", Set: map[int]value.Value{1: value.NewInt(0)}, Pred: expr.True{}}
	if !strings.Contains(upd.String(), "UPDATE t") {
		t.Errorf("update String = %s", upd.String())
	}
	del := &Query{Kind: Delete, Table: "t", Pred: expr.True{}}
	if !strings.Contains(del.String(), "DELETE FROM t") {
		t.Errorf("delete String = %s", del.String())
	}
	jq := &Query{Kind: Select, Table: "a", Join: &Join{Table: "b", LeftCol: 1, RightCol: 0}}
	if !strings.Contains(jq.String(), "JOIN b") {
		t.Errorf("join String = %s", jq.String())
	}
}

func TestWorkload(t *testing.T) {
	w := &Workload{}
	w.Add(
		&Query{Kind: Aggregate, Table: "b"},
		&Query{Kind: Select, Table: "a"},
		&Query{Kind: Insert, Table: "a"},
		&Query{Kind: Aggregate, Table: "a", Join: &Join{Table: "c"}},
	)
	if w.Len() != 4 {
		t.Errorf("Len = %d", w.Len())
	}
	if got := w.OLAPFraction(); got != 0.5 {
		t.Errorf("OLAPFraction = %v", got)
	}
	if got := w.Tables(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Tables = %v", got)
	}
	empty := &Workload{}
	if empty.OLAPFraction() != 0 {
		t.Error("empty workload OLAP fraction")
	}
}
