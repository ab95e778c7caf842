package engine

import (
	"reflect"
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/value"
)

// scanStats is the reference for collectStats: every row through Add.
func scanStats(db *Database, table string) *catalog.TableStats {
	rt := db.tables[tableKey(table)]
	sc := catalog.NewStatsCollector(rt.entry.Schema.ColTypes())
	for _, row := range storeRows(rt.store, rt.entry.Schema.NumColumns()) {
		sc.Add(row)
	}
	return sc.Finish()
}

// TestStatsFromDictionariesEqualScan: on every layout, with the column
// side unmerged, merged, and merged with a delta and tombstones on top,
// the statistics CollectStats publishes — read off dictionaries where a
// column store alone holds the column — are those of a full scan.
func TestStatsFromDictionariesEqualScan(t *testing.T) {
	for _, lay := range dmlLayouts() {
		t.Run(lay.name, func(t *testing.T) {
			db := New()
			if err := db.CreateTableWithLayout(dmlSchema(), lay.store, lay.spec); err != nil {
				t.Fatal(err)
			}
			check := func(state string) {
				t.Helper()
				got, err := db.CollectStats("dml")
				if err != nil {
					t.Fatal(err)
				}
				if want := scanStats(db, "dml"); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: CollectStats = %+v, a scan gives %+v", state, got, want)
				}
			}
			check("empty")
			rows := make([][]value.Value, 0, 300)
			for i := int64(0); i < 300; i++ {
				row := dmlRow(i)
				row[2] = value.NewDouble(float64(i % 40))
				if i%9 == 0 {
					row[3] = value.Null(value.Varchar)
				}
				rows = append(rows, row)
			}
			mustExec(t, db, &query.Query{Kind: query.Insert, Table: "dml", Rows: rows})
			check("unmerged")
			if err := db.Compact("dml"); err != nil {
				t.Fatal(err)
			}
			check("merged")
			// A delta over the main: values both hold, values only tombstoned
			// rows hold (amt 39 and the rows of grp 7), a NULL that was a value.
			mustExec(t, db, &query.Query{Kind: query.Update, Table: "dml",
				Pred: &expr.Comparison{Col: 2, Op: expr.Eq, Val: value.NewDouble(39)},
				Set:  map[int]value.Value{2: value.NewDouble(3), 3: value.NewVarchar("a longer note")}})
			mustExec(t, db, &query.Query{Kind: query.Update, Table: "dml",
				Pred: &expr.Comparison{Col: 0, Op: expr.Lt, Val: value.NewBigint(5)},
				Set:  map[int]value.Value{2: value.Null(value.Double)}})
			mustExec(t, db, &query.Query{Kind: query.Delete, Table: "dml",
				Pred: &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(7)}})
			mustExec(t, db, &query.Query{Kind: query.Insert, Table: "dml", Rows: [][]value.Value{dmlRow(1000), dmlRow(1001)}})
			check("merged with a delta")
		})
	}
}
