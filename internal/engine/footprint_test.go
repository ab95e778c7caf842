package engine_test

import (
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/engine"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
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

// benchLayout is one layout a benchmark runs a table in.
type benchLayout struct {
	name  string
	store catalog.StoreKind
	part  *catalog.PartitionSpec
}

// benchLayouts are the row, column, horizontal and vertical layouts, the
// partitioned ones split as given.
func benchLayouts(horizontal *catalog.HorizontalSpec, vertical *catalog.VerticalSpec) []benchLayout {
	return []benchLayout{
		{"row", catalog.RowStore, nil},
		{"column", catalog.ColumnStore, nil},
		{"horizontal", catalog.Partitioned, &catalog.PartitionSpec{Horizontal: horizontal}},
		{"vertical", catalog.Partitioned, &catalog.PartitionSpec{Vertical: vertical}},
	}
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
	for _, l := range benchLayouts(horizontal, vertical) {
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
	for _, l := range benchLayouts(horizontal, vertical) {
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

// BenchmarkAggregate is olap_scan's aggregates through Database.Exec on
// every layout, in process: the ungrouped SUM and the GROUP BY of the
// standard table, and the join of a fact table in the layout with a column
// dimension table (fact.f0 < 300 keeps about a third of the fact rows).
// The fact table's vertical split keeps the joined and aggregated columns
// in its column partition, as the advisor does. accounts is htap_durable's
// SUM over a row table of 10 000 balances.
func BenchmarkAggregate(b *testing.B) {
	const rows, dimRows = 30000, 2000
	spec, fact, dim := workload.StandardTable("t"), workload.FactTable("fact", dimRows), workload.DimensionTable("dim")
	horizontal, vertical := standardSplits(spec, rows)
	k0, k3, g1 := spec.Keyfigures[0], spec.Keyfigures[3], spec.GroupBys[1]
	nFact := fact.Schema.NumColumns()
	queries := []struct {
		name string
		q    *query.Query
	}{
		{"sum", &query.Query{Kind: query.Aggregate, Table: "t",
			Aggs: []agg.Spec{{Func: agg.Sum, Col: k0}, {Func: agg.Sum, Col: k3}}}},
		{"group", &query.Query{Kind: query.Aggregate, Table: "t", GroupBy: []int{g1},
			Aggs: []agg.Spec{{Func: agg.Sum, Col: k0}, {Func: agg.Avg, Col: k3}}}},
		{"join", &query.Query{Kind: query.Aggregate, Table: "fact",
			Join:    &query.Join{Table: "dim", LeftCol: 1, RightCol: 0},
			GroupBy: []int{nFact + 2}, // dim.d_g1
			Aggs:    []agg.Spec{{Func: agg.Sum, Col: fact.Keyfigures[0]}},
			Pred:    &expr.Comparison{Col: fact.Filters[0], Op: expr.Lt, Val: value.NewInt(300)}}},
	}
	factLayouts := benchLayouts(
		&catalog.HorizontalSpec{SplitCol: 0, SplitVal: value.NewBigint(rows * 9 / 10),
			HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore},
		&catalog.VerticalSpec{RowCols: []int{0, 7, 8, 9}, ColCols: []int{0, 1, 2, 3, 4, 5, 6}})
	for i, l := range benchLayouts(horizontal, vertical) {
		b.Run(l.name, func(b *testing.B) {
			db := engine.New()
			if err := spec.LoadLayout(db, l.store, l.part, rows, 2012); err != nil {
				b.Fatal(err)
			}
			if err := fact.LoadLayout(db, l.store, factLayouts[i].part, rows, 2013); err != nil {
				b.Fatal(err)
			}
			if err := dim.Load(db, catalog.ColumnStore, dimRows, 2014); err != nil {
				b.Fatal(err)
			}
			for _, c := range queries {
				b.Run(c.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if res, err := db.Exec(c.q); err != nil || len(res.Rows) == 0 {
							b.Fatal(res, err)
						}
					}
				})
			}
		})
	}
	b.Run("accounts", func(b *testing.B) {
		db := engine.New()
		sch := schema.MustNew("accounts", []schema.Column{
			{Name: "id", Type: value.Bigint}, {Name: "balance", Type: value.Double}, {Name: "owner", Type: value.Integer},
		}, "id")
		if err := db.CreateTable(sch, catalog.RowStore); err != nil {
			b.Fatal(err)
		}
		acc := make([][]value.Value, 10000)
		for i := range acc {
			acc[i] = []value.Value{value.NewBigint(int64(i)), value.NewDouble(1000), value.NewInt(int64(i % 97))}
		}
		if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "accounts", Rows: acc}); err != nil {
			b.Fatal(err)
		}
		q := &query.Query{Kind: query.Aggregate, Table: "accounts", Aggs: []agg.Spec{{Func: agg.Sum, Col: 1}}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res, err := db.Exec(q); err != nil || res.Rows[0][0].Float() != 1000*10000 {
				b.Fatal(res, err)
			}
		}
	})
}
