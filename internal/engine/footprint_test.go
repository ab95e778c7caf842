package engine_test

import (
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/engine"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/value"
	"hybridstore/internal/workload"
)

// TestColumnStoreResidentBytes: after Compact the standard 30-attribute
// table occupies at most twice its logical payload — the dictionaries are
// exactly sized and nothing per row survives the merge but codes — and its
// PK index, counted apart, 8 bytes a slot at a load between 3/8 and 3/4;
// both stay there across a checkpoint and reopen.
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
		if f.ColResident < payload || f.ColResident > 2*payload {
			t.Errorf("%s: the column store occupies %d bytes for %d bytes of payload", state, f.ColResident, payload)
		}
		if f.Index < 8*rows*4/3 || f.Index > 8*rows*8/3 {
			t.Errorf("%s: the PK index of %d rows occupies %d bytes", state, rows, f.Index)
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
	horizontal, vertical := standardSplits(spec, rows)
	layouts := map[string]*catalog.PartitionSpec{
		"column":      nil,
		"partitioned": {Horizontal: horizontal, Vertical: vertical},
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

// standardSplits are the splits of olap_scan's advised layout for the
// standard table: the newest tenth of the keys hot in the row store, the
// rest in the column store; the OLTP attributes (and the key) in the row
// store, the rest (and the key) in the column store.
func standardSplits(spec *workload.TableSpec, rows int64) (*catalog.HorizontalSpec, *catalog.VerticalSpec) {
	rowCols := append([]int{0}, spec.OLTPAttrs...)
	colCols := []int{0}
	for c := 1; c < spec.Schema.NumColumns(); c++ {
		if c != spec.OLTPAttrs[0] && c != spec.OLTPAttrs[1] {
			colCols = append(colCols, c)
		}
	}
	return &catalog.HorizontalSpec{SplitCol: 0, SplitVal: value.NewBigint(rows * 9 / 10),
			HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore},
		&catalog.VerticalSpec{RowCols: rowCols, ColCols: colCols}
}

// BenchmarkPointRead is olap_scan's point statement — SELECT id, k0, k1,
// f0, g0 FROM t WHERE id = ? — on the standard table in every layout, in
// process. The vertical split puts k0 and k1 in the row partition, so the
// statement spans both partitions and joins them in full.
func BenchmarkPointRead(b *testing.B) {
	const rows = 30000
	spec := workload.StandardTable("t")
	horizontal, vertical := standardSplits(spec, rows)
	cols := []int{0, 1, 2, spec.Filters[0], spec.GroupBys[0]}
	for _, l := range []struct {
		name  string
		store catalog.StoreKind
		part  *catalog.PartitionSpec
	}{
		{"row", catalog.RowStore, nil},
		{"column", catalog.ColumnStore, nil},
		{"horizontal", catalog.Partitioned, &catalog.PartitionSpec{Horizontal: horizontal}},
		{"vertical", catalog.Partitioned, &catalog.PartitionSpec{Vertical: vertical}},
	} {
		b.Run(l.name, func(b *testing.B) {
			db := engine.New()
			if err := spec.LoadLayout(db, l.store, l.part, rows, 2012); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := int64(i) * 7919 % rows
				res, err := db.Exec(&query.Query{Kind: query.Select, Table: "t", Cols: cols,
					Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(id)}})
				if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != id {
					b.Fatal(res, err)
				}
			}
		})
	}
}

// BenchmarkSelect is olap_scan's projection and top-K statements — SELECT
// id, k0, k3 FROM t WHERE f3 = ? with and without ORDER BY k0 DESC, id
// LIMIT 10 — on the standard table in every layout, in process: the one
// block scan and its collector, per layout. f3 = ? keeps a tenth of the
// rows.
func BenchmarkSelect(b *testing.B) {
	const rows = 30000
	spec := workload.StandardTable("t")
	horizontal, vertical := standardSplits(spec, rows)
	k0, k3, f3 := spec.Keyfigures[0], spec.Keyfigures[3], spec.Filters[3]
	for _, l := range []struct {
		name  string
		store catalog.StoreKind
		part  *catalog.PartitionSpec
	}{
		{"row", catalog.RowStore, nil},
		{"column", catalog.ColumnStore, nil},
		{"horizontal", catalog.Partitioned, &catalog.PartitionSpec{Horizontal: horizontal}},
		{"vertical", catalog.Partitioned, &catalog.PartitionSpec{Vertical: vertical}},
	} {
		b.Run(l.name, func(b *testing.B) {
			db := engine.New()
			if err := spec.LoadLayout(db, l.store, l.part, rows, 2012); err != nil {
				b.Fatal(err)
			}
			for _, shape := range []struct {
				name  string
				order []query.Order
				limit int
				min   int
			}{
				{"project", nil, 0, rows / 20},
				{"topk", []query.Order{{Col: k0, Desc: true}, {Col: 0}}, 10, 10},
			} {
				b.Run(shape.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						res, err := db.Exec(&query.Query{Kind: query.Select, Table: "t", Cols: []int{0, k0, k3},
							Pred:    &expr.Comparison{Col: f3, Op: expr.Eq, Val: value.NewInt(int64(i % 10))},
							OrderBy: shape.order, Limit: shape.limit})
						if err != nil || len(res.Rows) < shape.min {
							b.Fatal(len(res.Rows), err)
						}
					}
				})
			}
		})
	}
}
