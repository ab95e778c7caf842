package sql

import (
	"strings"
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// TestAlterTable parses each ALTER TABLE form the storage advisor prints,
// in any case, into the table, store and partitioning it names.
func TestAlterTable(t *testing.T) {
	notes := schema.MustNew("notes", []schema.Column{{Name: "msg", Type: value.Varchar}})
	resolve := func(name string) *schema.Table {
		if strings.EqualFold(name, "notes") {
			return notes
		}
		return testResolver()(name)
	}
	day, _ := value.ParseDate("1995-03-15")
	for _, c := range []struct {
		in    string
		store catalog.StoreKind
		spec  *catalog.PartitionSpec
	}{
		{"ALTER TABLE sales MOVE TO ROW STORE;", catalog.RowStore, nil},
		{"alter table sales move to column store", catalog.ColumnStore, nil},
		{"ALTER TABLE sales PARTITION BY RANGE (day) (PARTITION hot VALUES >= '1995-03-15' STORE ROW, PARTITION historic STORE COLUMN);",
			catalog.Partitioned, &catalog.PartitionSpec{Horizontal: &catalog.HorizontalSpec{
				SplitCol: 4, SplitVal: day, HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore}}},
		{"ALTER TABLE sales PARTITION BY VERTICAL ((id, status) STORE ROW, (id, region, amount, day) STORE COLUMN)",
			catalog.Partitioned, &catalog.PartitionSpec{Vertical: &catalog.VerticalSpec{RowCols: []int{0, 3}, ColCols: []int{0, 1, 2, 4}}}},
		{"ALTER TABLE notes PARTITION BY RANGE (rowid) (PARTITION hot VALUES >= 10 STORE COLUMN, PARTITION historic STORE ROW VERTICAL ((ROWID) STORE ROW, (msg, ROWID) STORE COLUMN))",
			catalog.Partitioned, &catalog.PartitionSpec{
				Horizontal: &catalog.HorizontalSpec{SplitCol: 1, SplitVal: value.NewBigint(10), HotStore: catalog.ColumnStore, ColdStore: catalog.RowStore},
				Vertical:   &catalog.VerticalSpec{RowCols: []int{1}, ColCols: []int{0, 1}}}},
	} {
		st, err := Parse(c.in, resolve)
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		at := st.AlterTable
		if at == nil || !strings.EqualFold(at.Table, strings.Fields(c.in)[2]) || at.Store != c.store || !at.Spec.Equal(c.spec) {
			t.Errorf("%s: parsed %+v, want store %s spec %s", c.in, at, c.store, c.spec)
		}
	}
}

// TestAlterTableErrors: a statement that names no store, a column the
// table lacks, ROWID on a table with a declared key, or a layout the
// catalog would refuse is a parse error, and EXPLAIN does not take ALTER.
func TestAlterTableErrors(t *testing.T) {
	for _, in := range []string{
		"ALTER TABLE sales MOVE TO COLUM STORE",
		"ALTER TABLE sales MOVE TO ROWS STORE",
		"ALTER TABLE sales MOVE TO ROW",
		"ALTER TABLE sales MOVE TO ROW COLUMN STORE",
		"ALTER TABLE nosuch MOVE TO ROW STORE",
		"ALTER TABLE sales PARTITION BY RANGE (nosuch) (PARTITION hot VALUES >= 1 STORE ROW, PARTITION historic STORE COLUMN)",
		"ALTER TABLE sales PARTITION BY RANGE (ROWID) (PARTITION hot VALUES >= 1 STORE ROW, PARTITION historic STORE COLUMN)",
		"ALTER TABLE sales PARTITION BY RANGE (id) (PARTITION hot VALUES >= NULL STORE ROW, PARTITION historic STORE COLUMN)",
		"ALTER TABLE sales PARTITION BY RANGE (day) (PARTITION hot VALUES >= 'soon' STORE ROW, PARTITION historic STORE COLUMN)",
		"ALTER TABLE sales PARTITION BY RANGE (id) (PARTITION hot VALUES >= 1 STORE ROW, PARTITION historic STORE COLUMN",
		"ALTER TABLE sales PARTITION BY VERTICAL ((id, status) STORE ROW, (region, amount, day) STORE COLUMN)",
		"ALTER TABLE sales PARTITION BY VERTICAL ((id, status) STORE COLUMN, (id, region, amount, day) STORE ROW)",
		"ALTER TABLE sales MOVE TO ROW STORE extra",
		"EXPLAIN ALTER TABLE sales MOVE TO ROW STORE",
	} {
		if st, err := Parse(in, testResolver()); err == nil {
			t.Errorf("%s: accepted as %+v", in, st.AlterTable)
		}
	}
}
