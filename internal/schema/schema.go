// Package schema describes logical table schemas: column names and types
// plus primary-key information. Schemas are shared by both stores, the
// catalog, the SQL front end and the advisor.
package schema

import (
	"fmt"
	"strings"

	"hybridstore/internal/value"
)

// Column describes one attribute of a table.
type Column struct {
	Name     string
	Type     value.Type
	Nullable bool
}

// Table describes a logical table: ordered columns and the primary key.
type Table struct {
	Name       string
	Columns    []Column
	PrimaryKey []int // indexes into Columns; may be empty

	byName map[string]int
}

// New constructs a validated table schema. The primary-key columns are given
// by name and must exist.
func New(name string, cols []Column, pk ...string) (*Table, error) {
	t := &Table{Name: name, Columns: cols}
	if err := t.init(); err != nil {
		return nil, err
	}
	for _, k := range pk {
		i, ok := t.byName[strings.ToLower(k)]
		if !ok {
			return nil, fmt.Errorf("schema: primary key column %q not in table %q", k, name)
		}
		t.PrimaryKey = append(t.PrimaryKey, i)
	}
	return t, nil
}

// MustNew is New but panics on error; intended for tests and generators
// with known-good schemas.
func MustNew(name string, cols []Column, pk ...string) *Table {
	t, err := New(name, cols, pk...)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Table) init() error {
	if t.Name == "" {
		return fmt.Errorf("schema: table has no name")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("schema: table %q has no columns", t.Name)
	}
	t.byName = make(map[string]int, len(t.Columns))
	for i, c := range t.Columns {
		if c.Name == "" {
			return fmt.Errorf("schema: table %q column %d has no name", t.Name, i)
		}
		key := strings.ToLower(c.Name)
		if _, dup := t.byName[key]; dup {
			return fmt.Errorf("schema: table %q has duplicate column %q", t.Name, c.Name)
		}
		t.byName[key] = i
	}
	return nil
}

// NumColumns returns the number of columns.
func (t *Table) NumColumns() int { return len(t.Columns) }

// ColIndex returns the index of the named column (case-insensitive), or -1.
func (t *Table) ColIndex(name string) int {
	if t.byName == nil {
		if err := t.init(); err != nil {
			return -1
		}
	}
	if i, ok := t.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// ColTypes returns the column types in order.
func (t *Table) ColTypes() []value.Type {
	types := make([]value.Type, len(t.Columns))
	for i, c := range t.Columns {
		types[i] = c.Type
	}
	return types
}

// ColNames returns the column names in order.
func (t *Table) ColNames() []string {
	names := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
	}
	return names
}

// IsPrimaryKey reports whether column index i is part of the primary key.
func (t *Table) IsPrimaryKey(i int) bool {
	for _, k := range t.PrimaryKey {
		if k == i {
			return true
		}
	}
	return false
}

// ValidateRow checks that a row matches the schema's arity, types and
// nullability. Integer values are accepted for Bigint columns and vice
// versa only via explicit Coerce by the caller; ValidateRow is strict.
func (t *Table) ValidateRow(row []value.Value) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("schema: table %q expects %d values, got %d", t.Name, len(t.Columns), len(row))
	}
	for i, v := range row {
		if err := t.validateValue(i, v); err != nil {
			return err
		}
	}
	return nil
}

// validateValue checks that v fits column i: its type, or NULL where the
// column allows it.
func (t *Table) validateValue(i int, v value.Value) error {
	c := t.Columns[i]
	if v.IsNull() && !c.Nullable {
		return fmt.Errorf("schema: column %q of table %q is NOT NULL", c.Name, t.Name)
	}
	if !v.IsNull() && v.Type() != c.Type {
		return fmt.Errorf("schema: column %q of table %q expects %s, got %s", c.Name, t.Name, c.Type, v.Type())
	}
	return nil
}

// ValidateSet checks an UPDATE's assignments, column index to new value:
// every column exists and every value fits it.
func (t *Table) ValidateSet(set map[int]value.Value) error {
	for col, v := range set {
		if col < 0 || col >= len(t.Columns) {
			return fmt.Errorf("schema: update column %d out of range in %q", col, t.Name)
		}
		if err := t.validateValue(col, v); err != nil {
			return err
		}
	}
	return nil
}

// AssignsKey reports whether an UPDATE's assignments touch the primary key.
func (t *Table) AssignsKey(set map[int]value.Value) bool {
	for _, k := range t.PrimaryKey {
		if _, ok := set[k]; ok {
			return true
		}
	}
	return false
}

// ValidateKeyUpdate checks an UPDATE that assigns primary-key columns before
// anything changes; keys are the current keys of the rows it matched. No
// two rows may end up with one key, and a row whose key changes may not take
// one taken reports as held.
func (t *Table) ValidateKeyUpdate(set map[int]value.Value, keys [][]value.Value, taken func(key []value.Value) bool) error {
	seen := make(map[string]struct{}, len(keys))
	for _, key := range keys {
		newKey := make([]value.Value, len(key))
		unchanged := true
		for i, k := range t.PrimaryKey {
			newKey[i] = key[i]
			if v, ok := set[k]; ok {
				newKey[i] = v
				unchanged = unchanged && value.Equal(v, key[i])
			}
		}
		ks := value.TupleKey(newKey)
		if _, dup := seen[ks]; dup {
			return fmt.Errorf("schema: update would assign duplicate primary key %v to multiple rows in %q", newKey, t.Name)
		}
		seen[ks] = struct{}{}
		if !unchanged && taken(newKey) {
			return fmt.Errorf("schema: update would duplicate primary key %v in table %q", newKey, t.Name)
		}
	}
	return nil
}

// ValidateInsert checks an insert batch before anything of it is stored:
// every row against the schema (ValidateRow) and, when the table has a
// primary key, every row's key against the keys taken reports as held and
// against the batch's other keys — so a failing INSERT is atomic.
func (t *Table) ValidateInsert(rows [][]value.Value, taken func(key []value.Value) bool) error {
	var keys map[string]struct{}
	for _, row := range rows {
		if err := t.ValidateRow(row); err != nil {
			return err
		}
		if len(t.PrimaryKey) == 0 {
			continue
		}
		key := t.PKValues(row)
		if taken(key) {
			return fmt.Errorf("schema: duplicate primary key %v in table %q", key, t.Name)
		}
		if keys == nil {
			keys = make(map[string]struct{}, len(rows))
		}
		ks := value.TupleKey(key)
		if _, dup := keys[ks]; dup {
			return fmt.Errorf("schema: duplicate primary key %v within insert batch in table %q", key, t.Name)
		}
		keys[ks] = struct{}{}
	}
	return nil
}

// CoerceRow converts row values to the column types where possible,
// returning a new slice. It is the lenient counterpart to ValidateRow used
// by the SQL front end.
func (t *Table) CoerceRow(row []value.Value) ([]value.Value, error) {
	if len(row) != len(t.Columns) {
		return nil, fmt.Errorf("schema: table %q expects %d values, got %d", t.Name, len(t.Columns), len(row))
	}
	out := make([]value.Value, len(row))
	for i, v := range row {
		cv, err := value.Coerce(v, t.Columns[i].Type)
		if err != nil {
			return nil, fmt.Errorf("schema: column %q: %w", t.Columns[i].Name, err)
		}
		out[i] = cv
	}
	return out, nil
}

// PKValues extracts the primary-key values from a row.
func (t *Table) PKValues(row []value.Value) []value.Value {
	if len(t.PrimaryKey) == 0 {
		return nil
	}
	out := make([]value.Value, len(t.PrimaryKey))
	for i, k := range t.PrimaryKey {
		out[i] = row[k]
	}
	return out
}

// Project returns a new schema containing only the given column indexes (in
// the given order), named name. Primary-key columns retain their PK status
// if all PK columns are included.
func (t *Table) Project(name string, cols []int) (*Table, error) {
	sub := make([]Column, len(cols))
	pos := make(map[int]int, len(cols))
	for i, c := range cols {
		if c < 0 || c >= len(t.Columns) {
			return nil, fmt.Errorf("schema: project column %d out of range for %q", c, t.Name)
		}
		sub[i] = t.Columns[c]
		pos[c] = i
	}
	nt := &Table{Name: name, Columns: sub}
	if err := nt.init(); err != nil {
		return nil, err
	}
	allPK := len(t.PrimaryKey) > 0
	for _, k := range t.PrimaryKey {
		if _, ok := pos[k]; !ok {
			allPK = false
			break
		}
	}
	if allPK {
		for _, k := range t.PrimaryKey {
			nt.PrimaryKey = append(nt.PrimaryKey, pos[k])
		}
	}
	return nt, nil
}

// Clone returns a deep copy of the schema with a new name.
func (t *Table) Clone(name string) *Table {
	cols := make([]Column, len(t.Columns))
	copy(cols, t.Columns)
	pk := make([]int, len(t.PrimaryKey))
	copy(pk, t.PrimaryKey)
	nt := &Table{Name: name, Columns: cols, PrimaryKey: pk}
	_ = nt.init()
	return nt
}

// DDL renders the schema as a CREATE TABLE statement.
func (t *Table) DDL() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE %s (", t.Name)
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
		if !c.Nullable {
			b.WriteString(" NOT NULL")
		}
	}
	if len(t.PrimaryKey) > 0 {
		b.WriteString(", PRIMARY KEY (")
		for i, k := range t.PrimaryKey {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(t.Columns[k].Name)
		}
		b.WriteString(")")
	}
	b.WriteString(")")
	return b.String()
}
