package main

import (
	"fmt"
	"math/rand"
	"strings"

	"hybridstore/internal/catalog"
	"hybridstore/internal/engine"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
	"hybridstore/internal/workload"
)

// genRows generates the first n rows of a table from the seed, the same
// rows workload.TableSpec.Load would insert.
func genRows(spec *workload.TableSpec, n int, seed int64) [][]value.Value {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]value.Value, n)
	for id := range rows {
		rows[id] = spec.RowGen(rng, int64(id))
	}
	return rows
}

// loadBatch is the bulk-load batch size: large, as a loader would use,
// because the column store rebuilds its main fragment on every merge.
const loadBatch = 16384

// loadTable creates the table in the given layout, bulk-inserts the n
// rows genRows would generate (a batch at a time, so the benchmark's own
// copy of the rows stays small next to the engine's) and compacts the
// table into its read-optimised state.
func loadTable(db *engine.Database, spec *workload.TableSpec, store catalog.StoreKind, part *catalog.PartitionSpec, n int, seed int64) error {
	if err := db.CreateTableWithLayout(spec.Schema, store, part); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	for lo := 0; lo < n; lo += loadBatch {
		rows := make([][]value.Value, 0, loadBatch)
		for id := lo; id < min(lo+loadBatch, n); id++ {
			rows = append(rows, spec.RowGen(rng, int64(id)))
		}
		if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: spec.Schema.Name, Rows: rows}); err != nil {
			return err
		}
	}
	return db.Compact(spec.Schema.Name)
}

// insertSQLFor is the parameterised single-row INSERT for a schema.
func insertSQLFor(sch *schema.Table) string {
	marks := strings.TrimSuffix(strings.Repeat("?, ", sch.NumColumns()), ", ")
	return fmt.Sprintf("INSERT INTO %s VALUES (%s)", sch.Name, marks)
}

// bytesPerRow is the engine's memory accounting for a table over its
// row count.
func bytesPerRow(db *engine.Database, table string) (float64, error) {
	bytes, err := db.MemoryBytes(table)
	if err != nil {
		return 0, err
	}
	rows, err := db.Rows(table)
	if err != nil {
		return 0, err
	}
	if rows == 0 {
		return 0, fmt.Errorf("table %s is empty", table)
	}
	return float64(bytes) / float64(rows), nil
}

// splitmix is a rand.Source64 that costs nothing to reseed, unlike the
// standard source.
type splitmix struct{ s uint64 }

func (m *splitmix) Uint64() uint64 {
	m.s += 0x9E3779B97F4A7C15
	z := m.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (m *splitmix) Int63() int64    { return int64(m.Uint64() >> 1) }
func (m *splitmix) Seed(seed int64) { m.s = uint64(seed) }

// A rowMaker generates a table's row for any id as a function of the
// seed and the id alone, so a workload that streams rows in and an
// oracle that checks them afterwards need not keep them. Not safe for
// concurrent use.
type rowMaker struct {
	spec *workload.TableSpec
	seed int64
	src  splitmix
	rng  *rand.Rand
}

func newRowMaker(spec *workload.TableSpec, seed int64) *rowMaker {
	m := &rowMaker{spec: spec, seed: seed}
	m.rng = rand.New(&m.src)
	return m
}

func (m *rowMaker) row(id int64) []value.Value {
	m.src.s = uint64(m.seed)*0x9E3779B97F4A7C15 ^ uint64(id)*0xD1B54A32D192ED03
	return m.spec.RowGen(m.rng, id)
}
