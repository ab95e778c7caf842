package catalog

import (
	"reflect"
	"strings"
	"testing"

	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

func demoSchema() *schema.Table {
	return schema.MustNew("sales", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "region", Type: value.Integer},
		{Name: "amount", Type: value.Double},
		{Name: "status", Type: value.Varchar, Nullable: true},
	}, "id")
}

func TestStoreKindString(t *testing.T) {
	if RowStore.String() != "ROW" || ColumnStore.String() != "COLUMN" || Partitioned.String() != "PARTITIONED" {
		t.Error("StoreKind names wrong")
	}
}

func TestCatalogAddLookupRemove(t *testing.T) {
	c := New()
	e := &TableEntry{Schema: demoSchema(), Store: RowStore}
	if err := c.Add(e); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(e); err == nil {
		t.Error("duplicate add accepted")
	}
	if got := c.Table("SALES"); got == nil || got.Schema != e.Schema || got.Store != e.Store {
		t.Error("case-insensitive lookup failed")
	}
	if c.Table("nope") != nil {
		t.Error("missing table should be nil")
	}
	names := c.Names()
	if len(names) != 1 || names[0] != "sales" {
		t.Errorf("Names = %v", names)
	}
	if !c.Remove("sales") {
		t.Error("remove failed")
	}
	if c.Remove("sales") {
		t.Error("double remove succeeded")
	}
}

func TestCatalogAddNil(t *testing.T) {
	c := New()
	if err := c.Add(nil); err == nil {
		t.Error("nil entry accepted")
	}
	if err := c.Add(&TableEntry{}); err == nil {
		t.Error("entry without schema accepted")
	}
}

func TestSetPlacement(t *testing.T) {
	c := New()
	if err := c.Add(&TableEntry{Schema: demoSchema(), Store: RowStore}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetPlacement("sales", ColumnStore, nil); err != nil {
		t.Fatal(err)
	}
	if c.Table("sales").Store != ColumnStore {
		t.Error("store not updated")
	}
	if err := c.SetPlacement("ghost", RowStore, nil); err == nil {
		t.Error("unknown table accepted")
	}
	bad := &PartitionSpec{Horizontal: &HorizontalSpec{SplitCol: 99, SplitVal: value.NewInt(1)}}
	if err := c.SetPlacement("sales", Partitioned, bad); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestHorizontalSpecValidate(t *testing.T) {
	sch := demoSchema()
	good := &PartitionSpec{Horizontal: &HorizontalSpec{
		SplitCol: 0, SplitVal: value.NewBigint(1000), HotStore: RowStore, ColdStore: ColumnStore,
	}}
	if err := good.Validate(sch); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	cases := []*PartitionSpec{
		{},
		{Horizontal: &HorizontalSpec{SplitCol: -1, SplitVal: value.NewInt(0)}},
		{Horizontal: &HorizontalSpec{SplitCol: 0, SplitVal: value.Null(value.Bigint)}},
		{Horizontal: &HorizontalSpec{SplitCol: 0, SplitVal: value.NewInt(0), HotStore: Partitioned}},
	}
	for i, spec := range cases {
		if err := spec.Validate(sch); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	var nilSpec *PartitionSpec
	if err := nilSpec.Validate(sch); err != nil {
		t.Errorf("nil spec should validate: %v", err)
	}
}

func TestVerticalSpecValidate(t *testing.T) {
	sch := demoSchema()
	good := &PartitionSpec{Vertical: &VerticalSpec{
		RowCols: []int{0, 3},
		ColCols: []int{0, 1, 2},
	}}
	if err := good.Validate(sch); err != nil {
		t.Errorf("good vertical rejected: %v", err)
	}
	cases := []*VerticalSpec{
		{RowCols: []int{0}, ColCols: nil},                  // empty side
		{RowCols: []int{0, 3}, ColCols: []int{0, 1}},       // col 2 missing
		{RowCols: []int{0, 1, 3}, ColCols: []int{0, 1, 2}}, // non-key dup
		{RowCols: []int{3}, ColCols: []int{0, 1, 2}},       // PK missing from row side
		{RowCols: []int{0, 99}, ColCols: []int{0, 1, 2}},   // out of range
	}
	for i, v := range cases {
		spec := &PartitionSpec{Vertical: v}
		if err := spec.Validate(sch); err == nil {
			t.Errorf("case %d: invalid vertical accepted", i)
		}
	}
}

func TestSpecString(t *testing.T) {
	spec := &PartitionSpec{
		Horizontal: &HorizontalSpec{SplitCol: 0, SplitVal: value.NewBigint(5), HotStore: RowStore, ColdStore: ColumnStore},
		Vertical:   &VerticalSpec{RowCols: []int{0, 3}, ColCols: []int{0, 1, 2}},
	}
	s := spec.String()
	for _, frag := range []string{"HORIZONTAL", "VERTICAL", "ROW", "COLUMN"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String missing %q: %s", frag, s)
		}
	}
	var nilSpec *PartitionSpec
	if nilSpec.String() != "none" {
		t.Error("nil spec string")
	}
}

func TestEntryHasIndex(t *testing.T) {
	e := &TableEntry{Schema: demoSchema(), Indexes: []int{2}}
	if !e.HasIndex(0) {
		t.Error("single-col PK should be indexed")
	}
	if !e.HasIndex(2) {
		t.Error("declared index missing")
	}
	if e.HasIndex(1) {
		t.Error("unindexed column reported indexed")
	}
}

func TestStatsCollector(t *testing.T) {
	types := []value.Type{value.Bigint, value.Integer, value.Varchar}
	sc := NewStatsCollector(types)
	for i := 0; i < 1000; i++ {
		sc.Add([]value.Value{
			value.NewBigint(int64(i)),
			value.NewInt(int64(i % 10)),
			value.NewVarchar("v" + string(rune('a'+i%3))),
		})
	}
	st := sc.Finish()
	if st.NumRows != 1000 {
		t.Errorf("rows = %d", st.NumRows)
	}
	if st.Distinct(0) != 1000 || st.Distinct(1) != 10 || st.Distinct(2) != 3 {
		t.Errorf("distinct = %v", st.DistinctN)
	}
	lo, hi, ok := st.MinMax(0)
	if !ok || lo.Int() != 0 || hi.Int() != 999 {
		t.Errorf("minmax = %v %v %v", lo, hi, ok)
	}
	// Low-cardinality columns compress better.
	if st.Compression[1] <= st.Compression[0] {
		t.Errorf("compression ordering: %v", st.Compression)
	}
	if st.AvgCompression() <= 0 {
		t.Error("avg compression should be positive")
	}
	if st.CompressionOf(1) != st.Compression[1] {
		t.Error("CompressionOf broken")
	}
	if st.CompressionOf(99) != st.AvgCompression() {
		t.Error("CompressionOf fallback broken")
	}
	if !strings.Contains(st.String(), "rows=1000") {
		t.Errorf("String = %s", st.String())
	}
}

func TestStatsCollectorNulls(t *testing.T) {
	sc := NewStatsCollector([]value.Type{value.Double})
	sc.Add([]value.Value{value.Null(value.Double)})
	sc.Add([]value.Value{value.NewDouble(5)})
	st := sc.Finish()
	if st.Distinct(0) != 1 {
		t.Errorf("distinct with null = %d", st.Distinct(0))
	}
	lo, hi, ok := st.MinMax(0)
	if !ok || lo.Double() != 5 || hi.Double() != 5 {
		t.Errorf("minmax with null = %v %v", lo, hi)
	}
}

func TestStatsCollectorCapExtrapolation(t *testing.T) {
	sc := NewStatsCollector([]value.Type{value.Bigint})
	sc.distinctCap = 100
	for i := 0; i < 1000; i++ {
		sc.Add([]value.Value{value.NewBigint(int64(i))})
	}
	st := sc.Finish()
	// All values distinct: extrapolation should land near 1000.
	if st.Distinct(0) < 500 || st.Distinct(0) > 1000 {
		t.Errorf("extrapolated distinct = %d", st.Distinct(0))
	}
}

// Regression: the cap is a bound on what Add remembers, not a value it
// estimates from — a column with exactly distinctCap values, all seen
// early, was reported at several times its cardinality.
func TestStatsCollectorExactAtCap(t *testing.T) {
	sc := NewStatsCollector([]value.Type{value.Bigint})
	sc.distinctCap = 100
	for i := 0; i < 1000; i++ {
		sc.Add([]value.Value{value.NewBigint(int64(i % 100))})
	}
	if d := sc.Finish().Distinct(0); d != 100 {
		t.Errorf("distinct = %d for 100 values at a cap of 100, want exact", d)
	}
}

// TestStatsCollectorRuns feeds the same column as rows and as runs (a
// dictionary's read-out): below the cap the statistics agree field for
// field, above it the runs stay exact while rows extrapolate.
func TestStatsCollectorRuns(t *testing.T) {
	types := []value.Type{value.Varchar, value.Integer}
	val := func(i int) value.Value {
		if i%7 == 0 {
			return value.Null(value.Varchar)
		}
		return value.NewVarchar(strings.Repeat("x", i%5))
	}
	byRows, byRuns := NewStatsCollector(types), NewStatsCollector(types)
	for i := 0; i < 700; i++ {
		byRows.Add([]value.Value{val(i), value.NewInt(int64(i % 300))})
	}
	byRuns.AddRun(0, value.Null(value.Varchar), 100)
	for n := 0; n < 5; n++ {
		byRuns.AddRun(0, value.NewVarchar(strings.Repeat("x", n)), 120)
	}
	for v := 0; v < 300; v++ {
		rows := 2
		if v < 100 {
			rows = 3
		}
		byRuns.AddRun(1, value.NewInt(int64(v)), rows)
	}
	if got, want := byRuns.Finish(), byRows.Finish(); !reflect.DeepEqual(got, want) {
		t.Errorf("statistics from runs %+v, from rows %+v", got, want)
	}

	rows, runs := NewStatsCollector(types[1:]), NewStatsCollector(types[1:])
	rows.distinctCap, runs.distinctCap = 50, 50
	for i := 0; i < 1000; i++ {
		v := int64(i)
		if i >= 200 {
			v = int64(i % 200) // 200 values, all seen by row 200
		}
		rows.Add([]value.Value{value.NewInt(v)})
	}
	for v := 0; v < 200; v++ {
		runs.AddRun(0, value.NewInt(int64(v)), 5)
	}
	if d := runs.Finish().Distinct(0); d != 200 {
		t.Errorf("distinct from runs = %d above the cap, want the exact 200", d)
	}
	if d := rows.Finish().Distinct(0); d != 1000 {
		t.Errorf("distinct from rows = %d above the cap, want the linear extrapolation 1000", d)
	}
}

func TestNilStatsAccessors(t *testing.T) {
	var st *TableStats
	if st.Distinct(0) != 0 {
		t.Error("nil Distinct")
	}
	if _, _, ok := st.MinMax(0); ok {
		t.Error("nil MinMax")
	}
	if st.AvgCompression() != 0 || st.CompressionOf(0) != 0 {
		t.Error("nil compression")
	}
	if st.String() != "<no stats>" {
		t.Error("nil String")
	}
}

// Regression: a stored NDV above the row count (stale stats, overshoot,
// approximate sources) must clamp to the row count — equality
// selectivity is 1/NDV, so an uncapped NDV collapses cardinality
// estimates toward zero and mis-prices join build sides.
func TestDistinctClampedToRowCount(t *testing.T) {
	st := &TableStats{NumRows: 50, DistinctN: []int{5000, 10, 0}}
	if d := st.Distinct(0); d != 50 {
		t.Errorf("Distinct(0) = %d, want clamp to 50", d)
	}
	if d := st.Distinct(1); d != 10 {
		t.Errorf("Distinct(1) = %d, want 10 untouched", d)
	}
	// 0 keeps meaning "unknown" so default-selectivity fallbacks hold.
	if d := st.Distinct(2); d != 0 {
		t.Errorf("Distinct(2) = %d, want 0", d)
	}
}
