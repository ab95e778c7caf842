package schema

import (
	"reflect"
	"strings"
	"testing"

	"hybridstore/internal/value"
)

func demo(t *testing.T) *Table {
	t.Helper()
	s, err := New("orders",
		[]Column{
			{Name: "id", Type: value.Bigint},
			{Name: "customer", Type: value.Integer},
			{Name: "total", Type: value.Double},
			{Name: "status", Type: value.Varchar, Nullable: true},
			{Name: "placed", Type: value.Date},
		}, "id")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", []Column{{Name: "a", Type: value.Integer}}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := New("t", nil); err == nil {
		t.Error("no columns should fail")
	}
	if _, err := New("t", []Column{{Name: "a", Type: value.Integer}, {Name: "A", Type: value.Integer}}); err == nil {
		t.Error("duplicate (case-insensitive) column should fail")
	}
	if _, err := New("t", []Column{{Name: "a", Type: value.Integer}}, "nope"); err == nil {
		t.Error("unknown PK column should fail")
	}
	if _, err := New("t", []Column{{Name: ""}}); err == nil {
		t.Error("unnamed column should fail")
	}
	if _, err := New("t", []Column{{Name: "id", Type: value.Bigint}, {Name: RowKey, Type: value.Bigint}}, "id"); err == nil {
		t.Error("a declared column named as the hidden key should fail")
	}
}

// TestRebuild rebuilds schemas from their stored columns and key: a keyed
// table as it was, a table keyed by the hidden row key without a second
// one, and a keyless table stored before every table had a key with one.
func TestRebuild(t *testing.T) {
	keyless := MustNew("t", []Column{{Name: "a", Type: value.Integer}})
	for _, want := range []*Table{demo(t), keyless} {
		got, err := Rebuild(want.Name, want.Columns, want.PrimaryKey)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("rebuilt %+v, %v; want %+v", got, err, want)
		}
	}
	if got, err := Rebuild("t", keyless.Columns[:1], nil); err != nil || !reflect.DeepEqual(got, keyless) {
		t.Errorf("stored without a key: rebuilt %+v, %v; want %+v", got, err, keyless)
	}
	if _, err := Rebuild("t", keyless.Columns, []int{0}); err == nil {
		t.Error("a stored hidden key column that is not the key should fail")
	}
	if _, err := Rebuild("t", keyless.Columns, []int{5}); err == nil {
		t.Error("an out-of-range key column should fail")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid schema")
		}
	}()
	MustNew("t", nil)
}

func TestColIndex(t *testing.T) {
	s := demo(t)
	if i := s.ColIndex("total"); i != 2 {
		t.Errorf("ColIndex(total) = %d", i)
	}
	if i := s.ColIndex("TOTAL"); i != 2 {
		t.Errorf("case-insensitive lookup failed: %d", i)
	}
	if i := s.ColIndex("missing"); i != -1 {
		t.Errorf("ColIndex(missing) = %d", i)
	}
	if n := s.NumColumns(); n != 5 {
		t.Errorf("NumColumns = %d", n)
	}
}

func TestIsPrimaryKey(t *testing.T) {
	s := demo(t)
	if !s.IsPrimaryKey(0) {
		t.Error("id should be PK")
	}
	if s.IsPrimaryKey(1) {
		t.Error("customer should not be PK")
	}
}

func TestValidateRow(t *testing.T) {
	s := demo(t)
	good := []value.Value{value.NewBigint(1), value.NewInt(7), value.NewDouble(9.5), value.NewVarchar("OPEN"), value.NewDate(100)}
	if err := s.ValidateRow(good); err != nil {
		t.Errorf("good row rejected: %v", err)
	}
	if err := s.ValidateRow(good[:3]); err == nil {
		t.Error("short row accepted")
	}
	bad := append([]value.Value{}, good...)
	bad[2] = value.NewInt(9)
	if err := s.ValidateRow(bad); err == nil {
		t.Error("type mismatch accepted")
	}
	withNull := append([]value.Value{}, good...)
	withNull[3] = value.Null(value.Varchar)
	if err := s.ValidateRow(withNull); err != nil {
		t.Errorf("nullable NULL rejected: %v", err)
	}
	withNull[0] = value.Null(value.Bigint)
	if err := s.ValidateRow(withNull); err == nil {
		t.Error("NOT NULL violation accepted")
	}
}

func TestCoerceRow(t *testing.T) {
	s := demo(t)
	row := []value.Value{value.NewInt(1), value.NewInt(7), value.NewInt(9), value.NewVarchar("OPEN"), value.NewVarchar("2012-08-27")}
	out, err := s.CoerceRow(row)
	if err != nil {
		t.Fatalf("CoerceRow: %v", err)
	}
	if out[0].Type() != value.Bigint || out[2].Type() != value.Double || out[4].Type() != value.Date {
		t.Errorf("coercion wrong: %v", out)
	}
	if _, err := s.CoerceRow(row[:2]); err == nil {
		t.Error("arity mismatch accepted")
	}
	row[4] = value.NewVarchar("garbage")
	if _, err := s.CoerceRow(row); err == nil {
		t.Error("bad date accepted")
	}
}

func TestPKValues(t *testing.T) {
	s := demo(t)
	row := []value.Value{value.NewBigint(42), value.NewInt(7), value.NewDouble(9.5), value.NewVarchar("x"), value.NewDate(0)}
	pk := s.PKValues(row)
	if len(pk) != 1 || pk[0].Int() != 42 {
		t.Errorf("PKValues = %v", pk)
	}
	noPK := MustNew("t", []Column{{Name: "a", Type: value.Integer}})
	if got := noPK.PKValues([]value.Value{value.NewInt(1), value.NewBigint(5)}); len(got) != 1 || got[0].Int() != 5 {
		t.Errorf("PKValues of a table keyed by %s = %v", RowKey, got)
	}
}

func TestProject(t *testing.T) {
	s := demo(t)
	p, err := s.Project("orders_oltp", []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumColumns() != 2 || p.Columns[1].Name != "status" {
		t.Errorf("projection wrong: %v", p.Columns)
	}
	if len(p.PrimaryKey) != 1 || p.PrimaryKey[0] != 0 {
		t.Errorf("PK not carried over: %v", p.PrimaryKey)
	}
	// A projection keeps the key: dropping a key column is an error.
	if _, err := s.Project("nopk", []int{1, 2}); err == nil {
		t.Error("projection without the key column accepted")
	}
	if _, err := s.Project("bad", []int{99}); err == nil {
		t.Error("out-of-range projection accepted")
	}
}

func TestClone(t *testing.T) {
	s := demo(t)
	c := s.Clone("orders2")
	if c.Name != "orders2" || c.NumColumns() != s.NumColumns() {
		t.Errorf("clone wrong: %v", c)
	}
	c.Columns[0].Name = "mutated"
	if s.Columns[0].Name != "id" {
		t.Error("clone shares column slice")
	}
	if c.ColIndex("customer") != 1 {
		t.Error("clone lookup broken")
	}
}

func TestDDL(t *testing.T) {
	s := demo(t)
	ddl := s.DDL()
	for _, frag := range []string{"CREATE TABLE orders", "id BIGINT NOT NULL", "status VARCHAR,", "PRIMARY KEY (id)"} {
		if !strings.Contains(ddl, frag) {
			t.Errorf("DDL missing %q: %s", frag, ddl)
		}
	}
}
