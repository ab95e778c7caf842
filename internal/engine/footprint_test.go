package engine_test

import (
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/engine"
	"hybridstore/internal/value"
	"hybridstore/internal/workload"
)

// TestColumnStoreResidentBytes: after Compact the standard 30-attribute
// table occupies at most twice its logical payload plus the PK index — the
// dictionaries are exactly sized and nothing per row survives the merge but
// codes — and stays there across a checkpoint and reopen.
func TestColumnStoreResidentBytes(t *testing.T) {
	const rows = 12000
	dir := t.TempDir()
	db, err := engine.OpenOptions(dir, engine.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.StandardTable("t").Load(db, catalog.ColumnStore, rows, 2012); err != nil {
		t.Fatal(err)
	}
	check := func(db *engine.Database, state string) {
		t.Helper()
		f := db.Footprint()
		payload, _ := db.MemoryBytes("t")
		if f.ColPayload != payload || f.RowArena != 0 {
			t.Errorf("%s: footprint %+v, MemoryBytes %d", state, f, payload)
		}
		if pkIndex := 48 * rows; f.ColResident < payload || f.ColResident > 2*payload+pkIndex {
			t.Errorf("%s: the column store occupies %d bytes for %d bytes of payload and a PK index of about %d",
				state, f.ColResident, payload, pkIndex)
		}
	}
	check(db, "compacted")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := engine.OpenOptions(dir, engine.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "reopened")
}

// BenchmarkCollectStats measures one statistics refresh of the standard
// table: read off the dictionaries on the column layout, dictionaries plus
// a scan of the hot and row partitions on the partitioned one.
func BenchmarkCollectStats(b *testing.B) {
	const rows = 30000
	spec := workload.StandardTable("t")
	rowCols := append([]int{0}, spec.OLTPAttrs...)
	colCols := []int{0}
	for c := 1; c < spec.Schema.NumColumns(); c++ {
		if c != spec.OLTPAttrs[0] && c != spec.OLTPAttrs[1] {
			colCols = append(colCols, c)
		}
	}
	layouts := map[string]*catalog.PartitionSpec{
		"column": nil,
		"partitioned": {
			Horizontal: &catalog.HorizontalSpec{SplitCol: 0, SplitVal: value.NewBigint(rows * 9 / 10),
				HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore},
			Vertical: &catalog.VerticalSpec{RowCols: rowCols, ColCols: colCols},
		},
	}
	for name, part := range layouts {
		b.Run(name, func(b *testing.B) {
			db := engine.New()
			store := catalog.ColumnStore
			if part != nil {
				store = catalog.Partitioned
			}
			if err := spec.LoadLayout(db, store, part, rows, 2012); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.CollectStats("t"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
