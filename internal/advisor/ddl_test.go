package advisor

import (
	"context"
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/engine"
	"hybridstore/internal/monitor"
	"hybridstore/internal/schema"
	"hybridstore/internal/server"
	"hybridstore/internal/sql"
	"hybridstore/internal/value"
	"hybridstore/internal/workload"
)

// run parses one statement against db's catalog and runs it through the
// statement dispatcher the server and the hsql shell share.
func run(t *testing.T, db *engine.Database, text string) {
	t.Helper()
	st, err := sql.Parse(text, server.Resolver(db))
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	if _, err := server.Exec(context.Background(), db, st); err != nil {
		t.Fatalf("%s: %v", text, err)
	}
}

// applyAdvice runs every statement of rec.DDL on db and checks that the
// catalog then records the store and partitioning rec recommends for each
// of its tables, and that no table lost a row on the way.
func applyAdvice(t *testing.T, db *engine.Database, rec *Recommendation) {
	t.Helper()
	if len(rec.DDL) != len(rec.Layout.Stores) {
		t.Fatalf("%d statements for %d tables: %v", len(rec.DDL), len(rec.Layout.Stores), rec.DDL)
	}
	rows := map[string]int{}
	for name := range rec.Layout.Stores {
		rows[name], _ = db.Rows(name)
	}
	for _, ddl := range rec.DDL {
		t.Log(ddl)
		run(t, db, ddl)
	}
	for name := range rec.Layout.Stores {
		spec := rec.Layout.SpecFor(name)
		want := rec.Layout.Stores.StoreOf(name)
		if spec != nil {
			want = catalog.Partitioned
		}
		e := db.Catalog().Table(name)
		if e.Store != want || !e.Partitioning.Equal(spec) {
			t.Errorf("%v left %s in %s %s, want %s %s", rec.DDL, name, e.Store, e.Partitioning, want, spec)
		}
		if n, _ := db.Rows(name); n != rows[name] {
			t.Errorf("%v: %s has %d rows, had %d", rec.DDL, name, n, rows[name])
		}
	}
}

// TestDDLRoundTripRecommended: the advice of every Recommend call in this
// package's tests runs as printed and leaves the recommended layout.
func TestDDLRoundTripRecommended(t *testing.T) {
	exp := workload.StandardTable("exp")
	t.Run("end-to-end", func(t *testing.T) {
		rec := endToEndRec()
		if rec.Layout.SpecFor("exp") == nil {
			t.Log("note: no partitioning recommended")
		}
		db := engine.New()
		if err := exp.Load(db, catalog.RowStore, 2000, 1); err != nil {
			t.Fatal(err)
		}
		applyAdvice(t, db, rec)
	})
	t.Run("offline", func(t *testing.T) {
		db := engine.New()
		applyAdvice(t, db, offlineRec(t, db))
	})
	t.Run("snapshot", func(t *testing.T) {
		db := engine.New()
		if err := exp.Load(db, catalog.RowStore, 2000, 1); err != nil {
			t.Fatal(err)
		}
		applyAdvice(t, db, snapshotRec(t, db, monitor.New(db, monitor.DefaultConfig())))
	})
}

// TestDDLRoundTripShapes: one hand-built layout of each shape renders to
// statements that parse and apply exactly: a move to either store, a
// range split on a BIGINT, DATE, VARCHAR and DOUBLE column, a vertical
// split, both together, and a table without a primary key split on its
// hidden key (ROWID).
func TestDDLRoundTripShapes(t *testing.T) {
	orders := schema.MustNew("orders", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "day", Type: value.Date, Nullable: true},
		{Name: "region", Type: value.Varchar, Nullable: true},
		{Name: "amount", Type: value.Double, Nullable: true},
	}, "id")
	const ordersRows = "INSERT INTO orders VALUES (1, '1995-03-14', 'N', 0.05), (2, '1995-03-15', 'O''Brien', 0.1), (3, '1995-03-16', 'S', 0.3);"
	notes := schema.MustNew("notes", []schema.Column{
		{Name: "msg", Type: value.Varchar, Nullable: true},
		{Name: "n", Type: value.Integer, Nullable: true},
	})
	key := notes.PrimaryKey[0]
	day, err := value.ParseDate("1995-03-15")
	if err != nil {
		t.Fatal(err)
	}
	hotCold := func(col int, v value.Value) *catalog.HorizontalSpec {
		return &catalog.HorizontalSpec{SplitCol: col, SplitVal: v, HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore}
	}
	split := &catalog.VerticalSpec{RowCols: []int{0, 1, 2}, ColCols: []int{0, 3}}
	for _, c := range []struct {
		name  string
		sch   *schema.Table
		store catalog.StoreKind
		spec  *catalog.PartitionSpec
	}{
		{"move to row", orders, catalog.RowStore, nil},
		{"move to column", orders, catalog.ColumnStore, nil},
		{"range on bigint", orders, catalog.Partitioned, &catalog.PartitionSpec{Horizontal: hotCold(0, value.NewBigint(2))}},
		{"range on date", orders, catalog.Partitioned, &catalog.PartitionSpec{Horizontal: hotCold(1, day)}},
		{"range on varchar", orders, catalog.Partitioned, &catalog.PartitionSpec{Horizontal: hotCold(2, value.NewVarchar("O'Brien"))}},
		{"range on double", orders, catalog.Partitioned, &catalog.PartitionSpec{Horizontal: hotCold(3, value.NewDouble(0.1))}},
		{"vertical", orders, catalog.Partitioned, &catalog.PartitionSpec{Vertical: split}},
		{"range and vertical", orders, catalog.Partitioned, &catalog.PartitionSpec{Horizontal: hotCold(1, day), Vertical: split}},
		{"rowid", notes, catalog.Partitioned, &catalog.PartitionSpec{
			Horizontal: hotCold(key, value.NewBigint(2)),
			Vertical:   &catalog.VerticalSpec{RowCols: []int{0, key}, ColCols: []int{1, key}},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := engine.New()
			from := catalog.RowStore
			if c.store == catalog.RowStore {
				from = catalog.ColumnStore
			}
			if err := db.CreateTable(c.sch, from); err != nil {
				t.Fatal(err)
			}
			if c.sch == orders {
				run(t, db, ordersRows)
			} else {
				run(t, db, "INSERT INTO notes VALUES ('a', 1), ('b', 2), ('c', 3);")
			}
			rec := &Recommendation{Layout: Layout{
				Stores:     costmodel.Placement{c.sch.Name: c.store},
				Partitions: map[string]*catalog.PartitionSpec{c.sch.Name: c.spec},
			}}
			rec.DDL = New(costmodel.DefaultModel()).renderDDL(rec, InfoFromCatalog(db.Catalog()))
			applyAdvice(t, db, rec)
		})
	}
}
