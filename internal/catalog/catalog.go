// Package catalog implements the system catalog of the hybrid-store
// database: table schemas, their current store placement, partitioning
// annotations and table statistics. The paper extends the HANA system
// catalog with exactly these pieces — compression statistics for the cost
// model's data adjustments (§3.1) and per-table partitioning annotations
// that drive transparent query rewriting (§4).
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// StoreKind identifies where a table's data lives.
type StoreKind uint8

const (
	// RowStore keeps tuples contiguously (OLTP-optimized).
	RowStore StoreKind = iota
	// ColumnStore keeps attributes contiguously with dictionary
	// compression (OLAP-optimized).
	ColumnStore
	// Partitioned tables are split across both stores according to a
	// PartitionSpec.
	Partitioned
)

// String names the store kind.
func (s StoreKind) String() string {
	switch s {
	case RowStore:
		return "ROW"
	case ColumnStore:
		return "COLUMN"
	case Partitioned:
		return "PARTITIONED"
	default:
		return fmt.Sprintf("StoreKind(%d)", uint8(s))
	}
}

// HorizontalSpec splits a table into a "hot" partition (rows whose SplitCol
// value is >= SplitVal, typically current/newly arriving data kept in the
// row store for fast inserts and updates) and a "cold" partition (historic
// data, typically in the column store for fast analysis). This is the
// paper's horizontal partitioning scheme (Figure 2).
type HorizontalSpec struct {
	SplitCol  int
	SplitVal  value.Value
	HotStore  StoreKind // RowStore or ColumnStore
	ColdStore StoreKind // store of the cold partition unless a VerticalSpec overrides it
}

// VerticalSpec splits a table's attributes into a row-store partition
// (frequently updated OLTP attributes) and a column-store partition
// (aggregated keyfigures and group-by attributes). Both partitions carry
// the primary-key columns, which is how the partitions are re-joined for
// queries spanning them (paper Figure 3).
type VerticalSpec struct {
	RowCols []int // table column indexes stored row-oriented (includes PK)
	ColCols []int // table column indexes stored column-oriented (includes PK)
}

// PartitionSpec is the catalog's partitioning annotation for one table.
// Horizontal and Vertical may be combined: the vertical split then applies
// to the cold partition while hot rows are stored as whole tuples, the
// combination the paper describes at the end of §3.2.
type PartitionSpec struct {
	Horizontal *HorizontalSpec
	Vertical   *VerticalSpec
}

// Validate checks a spec against a schema.
func (p *PartitionSpec) Validate(sch *schema.Table) error {
	if p == nil {
		return nil
	}
	if p.Horizontal == nil && p.Vertical == nil {
		return fmt.Errorf("catalog: empty partition spec for %q", sch.Name)
	}
	if h := p.Horizontal; h != nil {
		if h.SplitCol < 0 || h.SplitCol >= sch.NumColumns() {
			return fmt.Errorf("catalog: horizontal split column %d out of range for %q", h.SplitCol, sch.Name)
		}
		if h.SplitVal.IsNull() {
			return fmt.Errorf("catalog: horizontal split value must not be NULL")
		}
		if typ := sch.Columns[h.SplitCol].Type; h.SplitVal.Type() != typ {
			return fmt.Errorf("catalog: horizontal split value %v is not of column %d's type %s", h.SplitVal, h.SplitCol, typ)
		}
		if h.HotStore == Partitioned || h.ColdStore == Partitioned {
			return fmt.Errorf("catalog: partition stores must be ROW or COLUMN")
		}
	}
	if v := p.Vertical; v != nil {
		if len(v.RowCols) == 0 || len(v.ColCols) == 0 {
			return fmt.Errorf("catalog: vertical partitions must both be non-empty for %q", sch.Name)
		}
		seen := make(map[int]int)
		for _, c := range append(append([]int{}, v.RowCols...), v.ColCols...) {
			if c < 0 || c >= sch.NumColumns() {
				return fmt.Errorf("catalog: vertical partition column %d out of range for %q", c, sch.Name)
			}
			seen[c]++
		}
		// Every column must appear; only PK columns may appear twice.
		for i := 0; i < sch.NumColumns(); i++ {
			n := seen[i]
			switch {
			case n == 0:
				return fmt.Errorf("catalog: column %d of %q missing from vertical partitioning", i, sch.Name)
			case n > 1 && !sch.IsPrimaryKey(i):
				return fmt.Errorf("catalog: non-key column %d of %q duplicated across vertical partitions", i, sch.Name)
			}
		}
		for _, k := range sch.PrimaryKey {
			if !containsInt(v.RowCols, k) || !containsInt(v.ColCols, k) {
				return fmt.Errorf("catalog: primary key column %d must be in both vertical partitions of %q", k, sch.Name)
			}
		}
	}
	return nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Equal compares two specs structurally (nil-safe). Specs are immutable
// once built, so rendered-string equality is exact.
func (p *PartitionSpec) Equal(o *PartitionSpec) bool {
	if p == nil || o == nil {
		return p == o
	}
	return p.String() == o.String()
}

// String renders the spec for display in recommendations.
func (p *PartitionSpec) String() string {
	if p == nil {
		return "none"
	}
	var parts []string
	if h := p.Horizontal; h != nil {
		parts = append(parts, fmt.Sprintf("HORIZONTAL(col%d >= %s -> %s, rest -> %s)",
			h.SplitCol, h.SplitVal, h.HotStore, h.ColdStore))
	}
	if v := p.Vertical; v != nil {
		parts = append(parts, fmt.Sprintf("VERTICAL(row=%v, column=%v)", v.RowCols, v.ColCols))
	}
	return strings.Join(parts, " + ")
}

// TableEntry is the catalog record for one table.
type TableEntry struct {
	Schema       *schema.Table
	Store        StoreKind
	Partitioning *PartitionSpec
	Stats        *TableStats
	Indexes      []int // row-store secondary-indexed columns
}

// HasIndex reports whether col has a declared secondary index (or is the
// single-column primary key, which is always indexed).
func (e *TableEntry) HasIndex(col int) bool {
	if len(e.Schema.PrimaryKey) == 1 && e.Schema.PrimaryKey[0] == col {
		return true
	}
	return containsInt(e.Indexes, col)
}

// Catalog is the thread-safe table registry.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*TableEntry

	// version counts catalog mutations (DDL, placement changes, index
	// declarations, statistics refreshes). Cached query plans record the
	// version they were built against and are invalidated when it moves.
	version atomic.Uint64
}

// Version returns the current catalog version. It increases on every
// mutation that could change a query plan: table add/remove, placement
// change, index declaration and statistics refresh.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*TableEntry)}
}

func key(name string) string { return strings.ToLower(name) }

// Add registers a table. The entry's Partitioning is validated.
func (c *Catalog) Add(entry *TableEntry) error {
	if entry == nil || entry.Schema == nil {
		return fmt.Errorf("catalog: nil entry")
	}
	if err := entry.Partitioning.Validate(entry.Schema); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(entry.Schema.Name)
	if _, dup := c.tables[k]; dup {
		return fmt.Errorf("catalog: table %q already exists", entry.Schema.Name)
	}
	c.tables[k] = entry
	c.version.Add(1)
	return nil
}

// Table returns a snapshot of the entry for name, or nil. The snapshot
// is a shallow copy taken under the catalog lock: the pointed-to Schema,
// Partitioning spec and Stats are immutable once published (writers
// replace them wholesale via SetPlacement/SetStats), so callers may read
// the snapshot freely while the canonical entry keeps changing — the
// online monitor and advisor read entries concurrently with migrations.
func (c *Catalog) Table(name string) *TableEntry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.tables[key(name)]
	if !ok {
		return nil
	}
	cp := *e
	return &cp
}

// SetStats publishes refreshed table statistics.
func (c *Catalog) SetStats(name string, st *TableStats) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.tables[key(name)]
	if !ok {
		return false
	}
	e.Stats = st
	c.version.Add(1)
	return true
}

// AddIndex records a secondary-index declaration (idempotent).
func (c *Catalog) AddIndex(name string, col int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.tables[key(name)]
	if !ok {
		return false
	}
	if !containsInt(e.Indexes, col) {
		e.Indexes = append(e.Indexes, col)
		c.version.Add(1)
	}
	return true
}

// Remove drops a table from the catalog.
func (c *Catalog) Remove(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.tables[k]; !ok {
		return false
	}
	delete(c.tables, k)
	c.version.Add(1)
	return true
}

// Names returns the sorted table names.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, e := range c.tables {
		out = append(out, e.Schema.Name)
	}
	sort.Strings(out)
	return out
}

// SetPlacement updates a table's store and partitioning annotation.
func (c *Catalog) SetPlacement(name string, store StoreKind, spec *PartitionSpec) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.tables[key(name)]
	if !ok {
		return fmt.Errorf("catalog: unknown table %q", name)
	}
	if err := spec.Validate(e.Schema); err != nil {
		return err
	}
	e.Store = store
	e.Partitioning = spec
	c.version.Add(1)
	return nil
}
