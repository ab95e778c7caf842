package engine

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/value"
)

// TestMigrateLayoutBasic moves a table across every transition among the
// five layouts and checks the catalog, the row count, every row and an
// aggregate on the new storage.
func TestMigrateLayoutBasic(t *testing.T) {
	layouts := []struct {
		name  string
		store catalog.StoreKind
		spec  *catalog.PartitionSpec
	}{
		{"Row", catalog.RowStore, nil},
		{"Column", catalog.ColumnStore, nil},
		{"Horizontal", catalog.Partitioned, horizontalSpec()},
		{"Vertical", catalog.Partitioned, verticalSpec()},
		{"HorizontalVertical", catalog.Partitioned, &catalog.PartitionSpec{
			Horizontal: horizontalSpec().Horizontal,
			Vertical:   verticalSpec().Vertical,
		}},
	}
	const n = 200
	rows := make([][]value.Value, 0, n)
	for i := int64(0); i < n; i++ {
		rows = append(rows, salesRow(i))
	}
	for _, from := range layouts {
		for _, to := range layouts {
			if from.name == to.name {
				continue
			}
			t.Run(from.name+"To"+to.name, func(t *testing.T) {
				db := New()
				if err := db.CreateTableWithLayout(salesSchema(), from.store, from.spec); err != nil {
					t.Fatal(err)
				}
				mustExec(t, db, &query.Query{Kind: query.Insert, Table: "sales", Rows: rows})
				want := visibleState(t, db, "sales")
				if err := db.MigrateLayout("sales", to.store, to.spec); err != nil {
					t.Fatal(err)
				}
				if e := db.Catalog().Table("sales"); e.Store != to.store || !e.Partitioning.Equal(to.spec) {
					t.Errorf("catalog = %v %v, want %v %v", e.Store, e.Partitioning, to.store, to.spec)
				}
				if db.Migrating("sales") {
					t.Error("migration flag still set after completion")
				}
				if got, _ := db.Rows("sales"); got != n {
					t.Errorf("rows = %d, want %d", got, n)
				}
				if got := visibleState(t, db, "sales"); !reflect.DeepEqual(got, want) {
					t.Errorf("contents changed: %d rows, want %d", len(got), len(want))
				}
				res := mustExec(t, db, &query.Query{
					Kind: query.Aggregate, Table: "sales",
					Aggs: []agg.Spec{{Func: agg.Sum, Col: 2}, {Func: agg.Count, Col: -1}},
				})
				if res.Rows[0][0].Double() != float64((n-1)*n)/2 || res.Rows[0][1].Int() != n {
					t.Errorf("sum=%v count=%v", res.Rows[0][0], res.Rows[0][1])
				}
			})
		}
	}
}

func TestMigrateLayoutToPartitioned(t *testing.T) {
	db := newDB(t, catalog.ColumnStore, 2000)
	spec := &catalog.PartitionSpec{Horizontal: &catalog.HorizontalSpec{
		SplitCol: 0, SplitVal: value.NewBigint(1500),
		HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
	}}
	if err := db.MigrateLayout("sales", catalog.RowStore, spec); err != nil {
		t.Fatal(err)
	}
	e := db.Catalog().Table("sales")
	if e.Store != catalog.Partitioned || e.Partitioning == nil {
		t.Fatalf("catalog not updated: store=%v spec=%v", e.Store, e.Partitioning)
	}
	n, _ := db.Rows("sales")
	if n != 2000 {
		t.Errorf("rows after migration = %d", n)
	}
}

func TestMigrateLayoutErrors(t *testing.T) {
	db := newDB(t, catalog.RowStore, 10)
	if err := db.MigrateLayout("ghost", catalog.ColumnStore, nil); err == nil {
		t.Error("unknown table accepted")
	}
	// A second migration must be rejected while one is in flight: install
	// a tail by hand to simulate mid-flight.
	db.mu.Lock()
	rt, _ := db.runtime("sales")
	rt.tail = &migrationTail{}
	db.mu.Unlock()
	if err := db.MigrateLayout("sales", catalog.ColumnStore, nil); err == nil {
		t.Error("concurrent migration accepted")
	}
	if !db.Migrating("sales") {
		t.Error("Migrating should report the in-flight tail")
	}
	db.mu.Lock()
	rt.tail = nil
	db.mu.Unlock()
}

func TestMigrateLayoutDroppedTable(t *testing.T) {
	db := newDB(t, catalog.RowStore, 10)
	db.mu.Lock()
	rt, _ := db.runtime("sales")
	db.mu.Unlock()
	// Drop the table between tail install and cutover by racing a
	// migration against DropTable; whatever interleaving occurs, the
	// engine must not panic and must end without a dangling tail.
	done := make(chan error, 1)
	go func() { done <- db.MigrateLayout("sales", catalog.ColumnStore, nil) }()
	db.DropTable("sales") //nolint:errcheck // either order is fine
	<-done
	if rt.tail != nil && db.Migrating("sales") {
		t.Error("dangling migration tail after drop")
	}
}

// TestMigrationStress is the -race stress test required by the online
// advisor work: concurrent scans, aggregates, inserts and updates run
// while a row->column and then a column->row migration is in flight. It
// asserts no write is lost and reads stay consistent before, during and
// after the atomic storage swap.
func TestMigrationStress(t *testing.T) {
	const (
		seedRows = 2000
		writers  = 4
		readers  = 4
	)
	db := newDB(t, catalog.RowStore, seedRows)

	var nextID atomic.Int64
	nextID.Store(seedRows)
	var updates atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: unique-key inserts plus point updates of seed rows.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%3 == 0 {
					// Point update: amount = -id for a seed row.
					id := int64((w*7919 + i) % seedRows)
					_, err := db.Exec(&query.Query{
						Kind: query.Update, Table: "sales",
						Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(id)},
						Set:  map[int]value.Value{2: value.NewDouble(-float64(id))},
					})
					if err != nil {
						t.Error(err)
						return
					}
					updates.Add(1)
				} else {
					id := nextID.Add(1) - 1
					_, err := db.Exec(&query.Query{Kind: query.Insert, Table: "sales",
						Rows: [][]value.Value{salesRow(id)}})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}

	// Readers: scans and aggregates must always see a consistent table —
	// in particular COUNT(*) never exceeds the ids handed out and never
	// drops below the seeded rows.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				handedOut := nextID.Load()
				res, err := db.Exec(&query.Query{Kind: query.Aggregate, Table: "sales",
					Aggs: []agg.Spec{{Func: agg.Count, Col: -1}}})
				if err != nil {
					t.Error(err)
					return
				}
				n := res.Rows[0][0].Int()
				if n < seedRows || n > nextID.Load() {
					t.Errorf("inconsistent count %d (seed %d, handed out >= %d)", n, seedRows, handedOut)
					return
				}
				// Point select on a seed row: always exactly one match.
				sel, err := db.Exec(&query.Query{Kind: query.Select, Table: "sales",
					Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(42)}})
				if err != nil {
					t.Error(err)
					return
				}
				if len(sel.Rows) != 1 {
					t.Errorf("point select matched %d rows", len(sel.Rows))
					return
				}
			}
		}()
	}

	// Let traffic build, then migrate row->column and back column->row
	// while the storm continues.
	time.Sleep(20 * time.Millisecond)
	if err := db.MigrateLayout("sales", catalog.ColumnStore, nil); err != nil {
		t.Fatal(err)
	}
	if e := db.Catalog().Table("sales"); e.Store != catalog.ColumnStore {
		t.Fatalf("store after first migration: %v", e.Store)
	}
	time.Sleep(20 * time.Millisecond)
	if err := db.MigrateLayout("sales", catalog.RowStore, nil); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// No lost writes: every handed-out id is present exactly once with
	// either its insert-time amount or its updated (negative) amount.
	total := nextID.Load()
	res, err := db.Exec(&query.Query{Kind: query.Select, Table: "sales", Cols: []int{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Rows)) != total {
		t.Fatalf("row count after migrations: got %d want %d", len(res.Rows), total)
	}
	seen := make(map[int64]bool, total)
	for _, row := range res.Rows {
		id, amt := row[0].Int(), row[1].Float()
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
		if amt != float64(id) && amt != -float64(id) {
			t.Fatalf("id %d has amount %v, want %v or %v", id, amt, float64(id), -float64(id))
		}
	}
	for id := int64(0); id < total; id++ {
		if !seen[id] {
			t.Fatalf("lost row %d", id)
		}
	}
	if updates.Load() == 0 {
		t.Error("stress test executed no updates")
	}
}

// TestMigrationStressPartitioned migrates a plain column store into a
// horizontal hot/cold layout under concurrent inserts and verifies the
// routed partitions together hold every row.
func TestMigrationStressPartitioned(t *testing.T) {
	const seedRows = 1000
	db := newDB(t, catalog.ColumnStore, seedRows)
	var nextID atomic.Int64
	nextID.Store(seedRows)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := nextID.Add(1) - 1
				if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "sales",
					Rows: [][]value.Value{salesRow(id)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	spec := &catalog.PartitionSpec{Horizontal: &catalog.HorizontalSpec{
		SplitCol: 0, SplitVal: value.NewBigint(seedRows),
		HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
	}}
	if err := db.MigrateLayout("sales", catalog.RowStore, spec); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	total := nextID.Load()
	n, err := db.Rows("sales")
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != total {
		t.Fatalf("rows after partitioned migration: got %d want %d", n, total)
	}
	// Every id present exactly once across both partitions.
	res, err := db.Exec(&query.Query{Kind: query.Select, Table: "sales", Cols: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool, total)
	for _, row := range res.Rows {
		if id := row[0].Int(); seen[id] {
			t.Fatalf("duplicate id %d", id)
		} else {
			seen[id] = true
		}
	}
	if int64(len(seen)) != total {
		t.Fatalf("distinct ids = %d, want %d", len(seen), total)
	}
}

// TestMigrateKeepsDeclaredIndexes verifies indexes declared in the
// catalog are re-materialized on the migration target where supported.
func TestMigrateKeepsDeclaredIndexes(t *testing.T) {
	db := newDB(t, catalog.RowStore, 100)
	if err := db.CreateIndex("sales", 1); err != nil {
		t.Fatal(err)
	}
	// Row -> column: index cannot materialize, declaration survives.
	if err := db.MigrateLayout("sales", catalog.ColumnStore, nil); err != nil {
		t.Fatal(err)
	}
	if held, _ := indexedParts(db.tables["sales"].store, 1); held != 0 {
		t.Error("column store has a row part for the index")
	}
	if !db.Catalog().Table("sales").HasIndex(1) {
		t.Error("index declaration lost on row->column migration")
	}
	// Column -> row: the declared index re-materializes.
	if err := db.MigrateLayout("sales", catalog.RowStore, nil); err != nil {
		t.Fatal(err)
	}
	if _, indexed := indexedParts(db.tables["sales"].store, 1); indexed != 1 {
		t.Error("row store did not re-materialize the index")
	}
	res, err := db.Exec(&query.Query{Kind: query.Select, Table: "sales",
		Pred: &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 25 {
		t.Errorf("indexed select matched %d rows, want 25", len(res.Rows))
	}
}
