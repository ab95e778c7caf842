package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/expr"
	"hybridstore/internal/plan"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

func orderSchema() *schema.Table {
	return schema.MustNew("ord", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "grp", Type: value.Integer},
		{Name: "amount", Type: value.Double},
		{Name: "note", Type: value.Varchar, Nullable: true},
	}, "id")
}

// orderLayouts builds the table under every layout the engine supports.
func orderLayouts(t *testing.T, rows [][]value.Value) map[string]*Database {
	t.Helper()
	layouts := map[string]func(db *Database, sch *schema.Table) error{
		"row":    func(db *Database, sch *schema.Table) error { return db.CreateTable(sch, catalog.RowStore) },
		"column": func(db *Database, sch *schema.Table) error { return db.CreateTable(sch, catalog.ColumnStore) },
		"horizontal": func(db *Database, sch *schema.Table) error {
			return db.CreateTableWithLayout(sch, catalog.Partitioned, &catalog.PartitionSpec{
				Horizontal: &catalog.HorizontalSpec{
					SplitCol: 0, SplitVal: value.NewBigint(50),
					HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
				},
			})
		},
		"vertical": func(db *Database, sch *schema.Table) error {
			return db.CreateTableWithLayout(sch, catalog.Partitioned, &catalog.PartitionSpec{
				Vertical: &catalog.VerticalSpec{RowCols: []int{0, 3}, ColCols: []int{0, 1, 2}},
			})
		},
	}
	out := map[string]*Database{}
	for name, mk := range layouts {
		db := New()
		if err := mk(db, orderSchema()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "ord", Rows: rows}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = db
	}
	return out
}

func orderRows(n int) [][]value.Value {
	rows := make([][]value.Value, n)
	for i := range rows {
		note := value.NewVarchar(fmt.Sprintf("n%03d", (n-i)%7))
		if i%11 == 0 {
			note = value.Null(value.Varchar)
		}
		rows[i] = []value.Value{
			value.NewBigint(int64(i)),
			value.NewInt(int64(i % 5)),
			value.NewDouble(float64((i * 37) % 100)),
			note,
		}
	}
	return rows
}

func TestOrderByAllLayouts(t *testing.T) {
	const n = 100
	for name, db := range orderLayouts(t, orderRows(n)) {
		t.Run(name, func(t *testing.T) {
			// ORDER BY amount DESC, id ASC with LIMIT applied after the
			// sort.
			res, err := db.Exec(&query.Query{
				Kind: query.Select, Table: "ord",
				Cols:    []int{0},
				OrderBy: []query.Order{{Col: 2, Desc: true}, {Col: 0}},
				Limit:   10,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 10 {
				t.Fatalf("limit after sort: %d rows", len(res.Rows))
			}
			// Recompute expected order directly.
			type pair struct {
				id     int64
				amount float64
			}
			all := make([]pair, n)
			for i := range all {
				all[i] = pair{int64(i), float64((i * 37) % 100)}
			}
			// Selection must equal a full stable sort's prefix.
			for i := 0; i < len(res.Rows)-1; i++ {
				// Verify pairwise ordering of the returned prefix.
				a, b := res.Rows[i][0].Int(), res.Rows[i+1][0].Int()
				av, bv := all[a].amount, all[b].amount
				if av < bv || (av == bv && a > b) {
					t.Fatalf("row %d out of order: (%d,%v) before (%d,%v)", i, a, av, b, bv)
				}
			}
			// On a key with ties the bounded top-K heap must return
			// exactly the rows, in the order, of a full stable sort.
			ties := &query.Query{
				Kind: query.Select, Table: "ord",
				Cols:    []int{0, 1},
				OrderBy: []query.Order{{Col: 1, Desc: true}},
				Limit:   12,
			}
			topK := runPlanned(t, db, ties, plan.Options{})
			if sorted := runPlanned(t, db, ties, plan.Options{DisableTopK: true}); !reflect.DeepEqual(topK, sorted) {
				t.Fatalf("top-K %v, full sort %v", topK, sorted)
			}
			// ORDER BY a nullable column: NULLs first ascending.
			res, err = db.Exec(&query.Query{
				Kind: query.Select, Table: "ord",
				OrderBy: []query.Order{{Col: 3}, {Col: 0}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != n {
				t.Fatalf("rows = %d", len(res.Rows))
			}
			seenNonNull := false
			for _, row := range res.Rows {
				if row[3].IsNull() {
					if seenNonNull {
						t.Fatal("NULL after non-NULL ascending")
					}
				} else {
					seenNonNull = true
				}
			}
			// Aggregate ORDER BY on the group key, DESC.
			res, err = db.Exec(&query.Query{
				Kind: query.Aggregate, Table: "ord",
				Aggs:    []agg.Spec{{Func: agg.Sum, Col: 2}},
				GroupBy: []int{1},
				OrderBy: []query.Order{{Col: 1, Desc: true}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 5 {
				t.Fatalf("groups = %d", len(res.Rows))
			}
			for i := 0; i < len(res.Rows)-1; i++ {
				if value.Compare(res.Rows[i][0], res.Rows[i+1][0]) <= 0 {
					t.Fatalf("groups out of order at %d", i)
				}
			}
		})
	}
}

func TestOrderByJoin(t *testing.T) {
	db := New()
	if err := db.CreateTable(orderSchema(), catalog.ColumnStore); err != nil {
		t.Fatal(err)
	}
	dim := schema.MustNew("dim", []schema.Column{
		{Name: "g", Type: value.Integer},
		{Name: "label", Type: value.Varchar},
	}, "g")
	if err := db.CreateTable(dim, catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "ord", Rows: orderRows(50)}); err != nil {
		t.Fatal(err)
	}
	var dimRows [][]value.Value
	for g := 0; g < 5; g++ {
		dimRows = append(dimRows, []value.Value{value.NewInt(int64(g)), value.NewVarchar(fmt.Sprintf("g%d", 4-g))})
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "dim", Rows: dimRows}); err != nil {
		t.Fatal(err)
	}
	// Order the joined rows by the right table's label (combined index 5)
	// then left id.
	res, err := db.Exec(&query.Query{
		Kind: query.Select, Table: "ord",
		Join:    &query.Join{Table: "dim", LeftCol: 1, RightCol: 0},
		Cols:    []int{0, 5},
		OrderBy: []query.Order{{Col: 5}, {Col: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 0; i < len(res.Rows)-1; i++ {
		c := value.Compare(res.Rows[i][1], res.Rows[i+1][1])
		if c > 0 || (c == 0 && res.Rows[i][0].Int() > res.Rows[i+1][0].Int()) {
			t.Fatalf("join rows out of order at %d", i)
		}
	}
}

// bigAnalyticsDB loads n order rows in the given layout, plus a 64-row
// row-store dimension "dim" keyed by the order's grp.
func bigAnalyticsDB(t testing.TB, store catalog.StoreKind, spec *catalog.PartitionSpec, n int) *Database {
	db := New()
	if err := db.CreateTableWithLayout(orderSchema(), store, spec); err != nil {
		t.Fatal(err)
	}
	dim := schema.MustNew("dim", []schema.Column{
		{Name: "g", Type: value.Integer},
		{Name: "label", Type: value.Varchar},
	}, "g")
	if err := db.CreateTable(dim, catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	var dimRows [][]value.Value
	for g := 0; g < 64; g++ {
		dimRows = append(dimRows, []value.Value{value.NewInt(int64(g)), value.NewVarchar(fmt.Sprintf("g%d", g%4))})
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "dim", Rows: dimRows}); err != nil {
		t.Fatal(err)
	}
	batch := make([][]value.Value, 0, 4096)
	for i := 0; i < n; i++ {
		batch = append(batch, []value.Value{
			value.NewBigint(int64(i)),
			value.NewInt(int64(i % 64)),
			value.NewDouble(float64(i)),
			value.NewVarchar("payload"),
		})
		if len(batch) == cap(batch) {
			if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "ord", Rows: batch}); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "ord", Rows: batch}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact("ord"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExecContextCancelAbortsScan verifies that a cancelled context
// aborts in-flight reads at a batch boundary on every layout, for scans,
// aggregates and both kinds of join. The scan-started hook pins the
// interleaving — the read parks at its start until the cancel has landed —
// so the test asserts the abort deterministically instead of racing a
// wall-clock sleep against scan speed and tolerating "finished first"
// outcomes.
func TestExecContextCancelAbortsScan(t *testing.T) {
	defer SetScanStartedHook(nil)
	const n = 50_000
	horiz := &catalog.HorizontalSpec{
		SplitCol: 0, SplitVal: value.NewBigint(n / 2),
		HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
	}
	vert := &catalog.VerticalSpec{RowCols: []int{0, 3}, ColCols: []int{0, 1, 2}}
	layouts := []struct {
		name  string
		store catalog.StoreKind
		spec  *catalog.PartitionSpec
	}{
		{"row", catalog.RowStore, nil},
		{"column", catalog.ColumnStore, nil},
		{"horizontal", catalog.Partitioned, &catalog.PartitionSpec{Horizontal: horiz}},
		{"vertical", catalog.Partitioned, &catalog.PartitionSpec{Vertical: vert}},
		{"horizontal+vertical", catalog.Partitioned, &catalog.PartitionSpec{Horizontal: horiz, Vertical: vert}},
	}
	join := &query.Join{Table: "dim", LeftCol: 1, RightCol: 0}
	queries := map[string]*query.Query{
		"aggregate": {
			Kind: query.Aggregate, Table: "ord",
			Aggs:    []agg.Spec{{Func: agg.Sum, Col: 2}, {Func: agg.Min, Col: 0}, {Func: agg.Max, Col: 0}},
			GroupBy: []int{1},
			Pred:    &expr.Comparison{Col: 2, Op: expr.Ge, Val: value.NewDouble(0)},
		},
		"select":      {Kind: query.Select, Table: "ord"},
		"join select": {Kind: query.Select, Table: "ord", Join: join},
		"join aggregate": {
			Kind: query.Aggregate, Table: "ord", Join: join,
			Aggs: []agg.Spec{{Func: agg.Sum, Col: 2}}, GroupBy: []int{1},
		},
	}
	for _, lay := range layouts {
		db := bigAnalyticsDB(t, lay.store, lay.spec, n)
		for name, q := range queries {
			// Pre-cancelled context: nothing runs.
			SetScanStartedHook(nil)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := db.ExecContext(ctx, q); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s/%s pre-cancelled: err = %v", lay.name, name, err)
			}
			// Cancel mid-flight: the hook signals the scan's start and
			// holds it there until the context dies, so by the time rows
			// flow the cancel is guaranteed to be observable at the first
			// batch boundary.
			started := make(chan struct{}, 1) // buffered: the hook may fire before this goroutine waits
			SetScanStartedHook(func(hctx context.Context, table string) {
				select {
				case started <- struct{}{}:
				default:
				}
				select {
				case <-hctx.Done():
				case <-time.After(5 * time.Second): // safety: never wedge the suite
				}
			})
			ctx, cancel = context.WithCancel(context.Background())
			errCh := make(chan error, 1)
			go func() {
				_, err := db.ExecContext(ctx, q)
				errCh <- err
			}()
			select {
			case <-started:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s/%s: scan never reached the started hook", lay.name, name)
			}
			cancel()
			select {
			case err := <-errCh:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s/%s: err = %v, want context.Canceled", lay.name, name, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s/%s: cancelled query did not return", lay.name, name)
			}
		}
	}
}

func TestExecAfterCloseErrClosed(t *testing.T) {
	// In-memory database.
	db := New()
	if err := db.CreateTable(orderSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := db.Exec(&query.Query{Kind: query.Select, Table: "ord"})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("in-memory read after close: %v", err)
	}
	_, err = db.Exec(&query.Query{Kind: query.Insert, Table: "ord", Rows: orderRows(1)})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("in-memory write after close: %v", err)
	}

	// Durable database.
	dir := t.TempDir()
	ddb, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ddb.CreateTable(orderSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	if _, err := ddb.Exec(&query.Query{Kind: query.Insert, Table: "ord", Rows: orderRows(5)}); err != nil {
		t.Fatal(err)
	}
	if err := ddb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ddb.Exec(&query.Query{Kind: query.Insert, Table: "ord", Rows: orderRows(1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("durable write after close: %v", err)
	}
	// Racing writers during Close either complete or get ErrClosed —
	// never a panic or a nil-map error.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stopCh := make(chan struct{})
	go func() {
		defer close(stopCh)
		for i := 0; ; i++ {
			_, err := re.Exec(&query.Query{
				Kind: query.Update, Table: "ord",
				Set:  map[int]value.Value{2: value.NewDouble(float64(i))},
				Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(1)},
			})
			if err != nil {
				if !errors.Is(err, ErrClosed) && !errors.Is(err, context.Canceled) {
					t.Errorf("racing update: %v", err)
				}
				return
			}
		}
	}()
	time.Sleep(2 * time.Millisecond)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	<-stopCh
}
