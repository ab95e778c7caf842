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
	PrimaryKey []int // indexes into Columns; never empty (see RowKey)

	byName map[string]int
}

// RowKey names the hidden key of a table declared without a primary key:
// New appends a BIGINT column of this name and makes it the key, as
// SQLite's rowid. '$' cannot start a SQL identifier, so only ALTER TABLE
// names it, as ROWID; the engine assigns its values.
const RowKey = "$rowid"

// New constructs a validated table schema. The primary-key columns are given
// by name and must exist; with none, the hidden RowKey column is appended
// and is the key. No declared column may be named RowKey.
func New(name string, cols []Column, pk ...string) (*Table, error) {
	t := &Table{Name: name, Columns: cols}
	if err := t.init(); err != nil {
		return nil, err
	}
	if _, ok := t.byName[RowKey]; ok {
		return nil, fmt.Errorf("schema: table %q declares the hidden key column %q", name, RowKey)
	}
	if len(pk) == 0 {
		t.Columns = append(cols[:len(cols):len(cols)], Column{Name: RowKey, Type: value.Bigint})
		if err := t.init(); err != nil {
			return nil, err
		}
		pk = []string{RowKey}
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

// Rebuild reconstructs a schema from its stored form: every column, the
// hidden RowKey included, and the key as column indexes. A table keyed by
// the hidden RowKey rebuilds as New built it; a stored form with no key at
// all, written before every table had one, gets the hidden key too.
func Rebuild(name string, cols []Column, pk []int) (*Table, error) {
	if k := len(cols) - 1; len(pk) == 1 && pk[0] == k && cols[k].Name == RowKey {
		cols, pk = cols[:k], nil
	}
	names := make([]string, len(pk))
	for i, c := range pk {
		if c < 0 || c >= len(cols) {
			return nil, fmt.Errorf("schema: primary-key column %d out of range in %q", c, name)
		}
		names[i] = cols[c].Name
	}
	return New(name, cols, names...)
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

// NumColumns returns the number of columns, the hidden RowKey included.
func (t *Table) NumColumns() int { return len(t.Columns) }

// hasRowKey reports whether the table is keyed by the hidden RowKey column
// alone, which is then its last column.
func (t *Table) hasRowKey() bool {
	last := len(t.Columns) - 1
	return len(t.PrimaryKey) == 1 && t.PrimaryKey[0] == last && t.Columns[last].Name == RowKey
}

// Visible returns the number of declared columns: every column but the
// hidden RowKey. They come first, so a row of a statement that cannot
// name the key (INSERT, COPY, SELECT *) is the first Visible columns.
func (t *Table) Visible() int {
	if t.hasRowKey() {
		return len(t.Columns) - 1
	}
	return len(t.Columns)
}

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

// ValidateRows checks every row of a batch against the schema (ValidateRow).
func (t *Table) ValidateRows(rows [][]value.Value) error {
	for _, row := range rows {
		if err := t.ValidateRow(row); err != nil {
			return err
		}
	}
	return nil
}

// ValidateInsert checks an insert batch before anything of it is stored:
// every row against the schema (ValidateRow), and every row's key against
// the keys taken reports as held and against the batch's other keys — so a
// failing INSERT is atomic.
func (t *Table) ValidateInsert(rows [][]value.Value, taken func(key []value.Value) bool) error {
	keys := make(map[string]struct{}, len(rows))
	for _, row := range rows {
		if err := t.ValidateRow(row); err != nil {
			return err
		}
		key := t.PKValues(row)
		if taken(key) {
			return fmt.Errorf("schema: duplicate primary key %v in table %q", key, t.Name)
		}
		ks := value.TupleKey(key)
		if _, dup := keys[ks]; dup {
			return fmt.Errorf("schema: duplicate primary key %v within insert batch in table %q", key, t.Name)
		}
		keys[ks] = struct{}{}
	}
	return nil
}

// CoerceRow converts the values of a row of the declared columns (Visible)
// to their types where possible, returning a new full-width slice whose
// hidden RowKey, if any, is left for the caller to assign. It is the
// lenient counterpart to ValidateRow used by the SQL front end.
func (t *Table) CoerceRow(row []value.Value) ([]value.Value, error) {
	if len(row) != t.Visible() {
		return nil, fmt.Errorf("schema: table %q expects %d values, got %d", t.Name, t.Visible(), len(row))
	}
	out := make([]value.Value, len(t.Columns))
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
	out := make([]value.Value, len(t.PrimaryKey))
	for i, k := range t.PrimaryKey {
		out[i] = row[k]
	}
	return out
}

// Project returns a new schema containing only the given column indexes (in
// the given order), named name, keyed by the same primary key; every key
// column must be among them.
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
	for _, k := range t.PrimaryKey {
		p, ok := pos[k]
		if !ok {
			return nil, fmt.Errorf("schema: projection %q of %q drops key column %q", name, t.Name, t.Columns[k].Name)
		}
		nt.PrimaryKey = append(nt.PrimaryKey, p)
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

// DDL renders the schema as a CREATE TABLE statement; a table keyed by the
// hidden RowKey renders without it and without a PRIMARY KEY clause.
func (t *Table) DDL() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE %s (", t.Name)
	for i, c := range t.Columns[:t.Visible()] {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
		if !c.Nullable {
			b.WriteString(" NOT NULL")
		}
	}
	if !t.hasRowKey() {
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
