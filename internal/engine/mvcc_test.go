package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

func begin(t *testing.T, db *Database) *Txn {
	t.Helper()
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func idEq(id int64) *expr.Comparison {
	return &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(id)}
}

func amountOf(t *testing.T, db *Database, id int64) (float64, bool) {
	t.Helper()
	res, err := db.Exec(&query.Query{Kind: query.Select, Table: "sales", Pred: idEq(id)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		return 0, false
	}
	return res.Rows[0][2].Float(), true
}

func TestTxnCommitVisibility(t *testing.T) {
	db := newDB(t, catalog.RowStore, 10)
	tx := begin(t, db)
	if _, err := tx.Exec(&query.Query{Kind: query.Update, Table: "sales",
		Pred: idEq(3), Set: map[int]value.Value{2: value.NewDouble(999)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(&query.Query{Kind: query.Insert, Table: "sales",
		Rows: [][]value.Value{salesRow(100)}}); err != nil {
		t.Fatal(err)
	}

	// Inside: the transaction reads its own writes.
	res, err := tx.Exec(&query.Query{Kind: query.Select, Table: "sales", Pred: idEq(3)})
	if err != nil || len(res.Rows) != 1 || res.Rows[0][2].Float() != 999 {
		t.Fatalf("own update invisible inside txn: %v %v", res, err)
	}
	// Outside: nothing is visible before commit.
	if amt, ok := amountOf(t, db, 3); !ok || amt != 3 {
		t.Fatalf("uncommitted update leaked: %v %v", amt, ok)
	}
	if _, ok := amountOf(t, db, 100); ok {
		t.Fatal("uncommitted insert leaked")
	}

	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tx.CommitTS() == 0 {
		t.Fatal("commit timestamp not set")
	}
	if amt, ok := amountOf(t, db, 3); !ok || amt != 999 {
		t.Fatalf("committed update invisible: %v %v", amt, ok)
	}
	if _, ok := amountOf(t, db, 100); !ok {
		t.Fatal("committed insert invisible")
	}
	// Counts reconcile after commit.
	res = mustExec(t, db, &query.Query{Kind: query.Select, Table: "sales"})
	if len(res.Rows) != 11 {
		t.Fatalf("row count after commit = %d, want 11", len(res.Rows))
	}
}

func TestTxnRollbackDiscardsEverything(t *testing.T) {
	db := newDB(t, catalog.ColumnStore, 10)
	before := visibleState(t, db, "sales")
	tx := begin(t, db)
	for _, q := range []*query.Query{
		{Kind: query.Insert, Table: "sales", Rows: [][]value.Value{salesRow(50)}},
		{Kind: query.Update, Table: "sales", Pred: idEq(1), Set: map[int]value.Value{2: value.NewDouble(-1)}},
		{Kind: query.Delete, Table: "sales", Pred: idEq(2)},
	} {
		if _, err := tx.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := visibleState(t, db, "sales"); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatal("rollback left traces")
	}
	// Finished transactions refuse further statements.
	if _, err := tx.Exec(&query.Query{Kind: query.Select, Table: "sales"}); err == nil {
		t.Fatal("statement accepted after rollback")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal("second rollback should be a no-op")
	}
}

func TestTxnConflictOneWinner(t *testing.T) {
	db := newDB(t, catalog.RowStore, 10)
	t1, t2 := begin(t, db), begin(t, db)
	upd := func(v float64) *query.Query {
		return &query.Query{Kind: query.Update, Table: "sales",
			Pred: idEq(5), Set: map[int]value.Value{2: value.NewDouble(v)}}
	}
	if _, err := t1.Exec(upd(111)); err != nil {
		t.Fatal(err)
	}
	// Second updater loses immediately (no waiting).
	_, err := t2.Exec(upd(222))
	if !IsConflict(err) {
		t.Fatalf("overlapping update: %v", err)
	}
	// The loser is aborted; commit reports the abort reason.
	if err := t2.Commit(context.Background()); err == nil || !IsConflict(err) {
		t.Fatalf("commit of conflicted txn: %v", err)
	}
	if err := t1.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if amt, _ := amountOf(t, db, 5); amt != 111 {
		t.Fatalf("winner's write lost: %v", amt)
	}
}

func TestTxnDisjointWritersBothCommit(t *testing.T) {
	db := newDB(t, catalog.ColumnStore, 20)
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx, err := db.Begin(context.Background())
			if err != nil {
				errs[w] = err
				return
			}
			if _, err := tx.Exec(&query.Query{Kind: query.Update, Table: "sales",
				Pred: idEq(int64(w)), Set: map[int]value.Value{2: value.NewDouble(float64(1000 + w))}}); err != nil {
				errs[w] = err
				tx.Rollback()
				return
			}
			errs[w] = tx.Commit(context.Background())
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("disjoint writer %d failed: %v", w, err)
		}
	}
	for w := 0; w < writers; w++ {
		if amt, _ := amountOf(t, db, int64(w)); amt != float64(1000+w) {
			t.Fatalf("writer %d's update lost: %v", w, amt)
		}
	}
}

func TestTxnSnapshotReadsAreStable(t *testing.T) {
	db := newDB(t, catalog.RowStore, 10)
	reader := begin(t, db)
	sum := func() float64 {
		res, err := reader.Exec(&query.Query{Kind: query.Aggregate, Table: "sales",
			Aggs: []agg.Spec{{Func: agg.Sum, Col: 2}}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Float()
	}
	before := sum()
	// A concurrent writer commits mid-transaction.
	mustExec(t, db, &query.Query{Kind: query.Update, Table: "sales",
		Set: map[int]value.Value{2: value.NewDouble(0)}})
	if after := sum(); after != before {
		t.Fatalf("snapshot read moved: %v -> %v", before, after)
	}
	reader.Rollback()
	// A fresh statement sees the new state.
	res := mustExec(t, db, &query.Query{Kind: query.Aggregate, Table: "sales",
		Aggs: []agg.Spec{{Func: agg.Sum, Col: 2}}})
	if res.Rows[0][0].Float() != 0 {
		t.Fatalf("post-commit read stale: %v", res.Rows[0][0])
	}

	// A table without a primary key reads the same snapshot: neither a row
	// nor an update another session commits mid-transaction shows.
	for _, store := range []catalog.StoreKind{catalog.RowStore, catalog.ColumnStore} {
		db := New()
		if err := db.CreateTable(notesSchema(), store); err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, &query.Query{Kind: query.Insert, Table: "notes", Rows: [][]value.Value{note("a", 1)}})
		reader := begin(t, db)
		read := func() string {
			cnt, err := reader.Exec(&query.Query{Kind: query.Aggregate, Table: "notes", Aggs: []agg.Spec{{Func: agg.Count, Col: -1}}})
			if err != nil {
				t.Fatal(err)
			}
			all, err := reader.Exec(&query.Query{Kind: query.Select, Table: "notes"})
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(cnt.Rows, all.Rows)
		}
		before := read()
		mustExec(t, db, &query.Query{Kind: query.Insert, Table: "notes", Rows: [][]value.Value{note("b", 2)}})
		mustExec(t, db, &query.Query{Kind: query.Update, Table: "notes", Set: map[int]value.Value{1: value.NewInt(9)}})
		if after := read(); after != before {
			t.Fatalf("%s: snapshot read of a keyless table moved: %s -> %s", store, before, after)
		}
		reader.Rollback()
	}
}

// notesSchema is a table declared without a primary key.
func notesSchema() *schema.Table {
	return schema.MustNew("notes", []schema.Column{
		{Name: "msg", Type: value.Varchar, Nullable: true},
		{Name: "n", Type: value.Integer, Nullable: true},
	})
}

func note(msg string, n int64) []value.Value {
	return []value.Value{value.NewVarchar(msg), value.NewInt(n)}
}

// TestTxnPKlessTable runs a table without a primary key through explicit
// transactions: its hidden row key versions it like any other table.
func TestTxnPKlessTable(t *testing.T) {
	db := New()
	if err := db.CreateTable(notesSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	count := func(ex func(*query.Query) (*Result, error)) int {
		t.Helper()
		res, err := ex(&query.Query{Kind: query.Select, Table: "notes"})
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}
	nEq := func(n int64) expr.Predicate { return &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(n)} }

	tx := begin(t, db)
	if _, err := tx.Exec(&query.Query{Kind: query.Insert, Table: "notes",
		Rows: [][]value.Value{note("a", 1), note("b", 2), note("b", 2)}}); err != nil {
		t.Fatalf("insert inside a transaction: %v", err)
	}
	// Read-your-writes inside the transaction…
	if n := count(tx.Exec); n != 3 {
		t.Fatalf("own inserts: %d rows visible inside the transaction, want 3", n)
	}
	// …but invisible to everyone else before commit.
	if n := count(db.Exec); n != 0 {
		t.Fatalf("uncommitted insert leaked: %d rows", n)
	}
	// UPDATE and DELETE by predicate inside the transaction.
	if res, err := tx.Exec(&query.Query{Kind: query.Update, Table: "notes", Pred: nEq(2),
		Set: map[int]value.Value{0: value.NewVarchar("B")}}); err != nil || res.Affected != 2 {
		t.Fatalf("update inside a transaction: %v, %v", res, err)
	}
	if res, err := tx.Exec(&query.Query{Kind: query.Delete, Table: "notes", Pred: nEq(1)}); err != nil || res.Affected != 1 {
		t.Fatalf("delete inside a transaction: %v, %v", res, err)
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(visibleState(t, db, "notes")); got != "[VARCHAR:B|INTEGER:2| VARCHAR:B|INTEGER:2|]" {
		t.Fatalf("after commit: %s", got)
	}

	// Rollback discards inserts, updates and deletes alike.
	tx2 := begin(t, db)
	for _, q := range []*query.Query{
		{Kind: query.Insert, Table: "notes", Rows: [][]value.Value{note("c", 3)}},
		{Kind: query.Update, Table: "notes", Set: map[int]value.Value{1: value.NewInt(7)}},
		{Kind: query.Delete, Table: "notes", Pred: nEq(7)},
	} {
		if _, err := tx2.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if n := count(tx2.Exec); n != 0 {
		t.Fatalf("inside the second transaction: %d rows, want 0", n)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := count(db.Exec); n != 2 {
		t.Fatalf("rollback left traces: %d rows", n)
	}
}

func TestTxnStatementErrorAborts(t *testing.T) {
	db := newDB(t, catalog.RowStore, 5)
	tx := begin(t, db)
	if _, err := tx.Exec(&query.Query{Kind: query.Update, Table: "sales",
		Pred: idEq(1), Set: map[int]value.Value{2: value.NewDouble(7)}}); err != nil {
		t.Fatal(err)
	}
	// Duplicate PK fails the statement and aborts the transaction.
	if _, err := tx.Exec(&query.Query{Kind: query.Insert, Table: "sales",
		Rows: [][]value.Value{salesRow(2)}}); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if _, err := tx.Exec(&query.Query{Kind: query.Select, Table: "sales"}); err == nil {
		t.Fatal("statement accepted after abort")
	}
	if err := tx.Commit(context.Background()); err == nil {
		t.Fatal("commit of aborted txn succeeded")
	}
	// The earlier update must be gone.
	if amt, _ := amountOf(t, db, 1); amt != 1 {
		t.Fatalf("aborted txn leaked its update: %v", amt)
	}
	// The claims are released: a new writer proceeds.
	mustExec(t, db, &query.Query{Kind: query.Update, Table: "sales",
		Pred: idEq(1), Set: map[int]value.Value{2: value.NewDouble(42)}})
}

func TestTxnPKChangeAndDelete(t *testing.T) {
	for _, lay := range layoutSpecs() {
		t.Run(lay.name, func(t *testing.T) {
			db := New()
			if err := db.CreateTableWithLayout(salesSchema(), lay.store, lay.spec); err != nil {
				t.Fatal(err)
			}
			rows := make([][]value.Value, 0, 10)
			for i := 0; i < 10; i++ {
				rows = append(rows, salesRow(int64(i)))
			}
			mustExec(t, db, &query.Query{Kind: query.Insert, Table: "sales", Rows: rows})

			tx := begin(t, db)
			// Move key 7 to 707, delete 3, insert 300.
			for _, q := range []*query.Query{
				{Kind: query.Update, Table: "sales", Pred: idEq(7), Set: map[int]value.Value{0: value.NewBigint(707)}},
				{Kind: query.Delete, Table: "sales", Pred: idEq(3)},
				{Kind: query.Insert, Table: "sales", Rows: [][]value.Value{salesRow(300)}},
			} {
				if _, err := tx.Exec(q); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(context.Background()); err != nil {
				t.Fatal(err)
			}
			db.Vacuum()
			if _, ok := amountOf(t, db, 7); ok {
				t.Fatal("moved key still present")
			}
			for _, id := range []int64{707, 300} {
				if _, ok := amountOf(t, db, id); !ok {
					t.Fatalf("key %d missing after commit", id)
				}
			}
			if _, ok := amountOf(t, db, 3); ok {
				t.Fatal("deleted key still present")
			}
			res := mustExec(t, db, &query.Query{Kind: query.Select, Table: "sales"})
			if len(res.Rows) != 10 {
				t.Fatalf("row count = %d, want 10", len(res.Rows))
			}
		})
	}
}

func TestTxnEmptyCommitBurnsNoTimestamp(t *testing.T) {
	db := newDB(t, catalog.RowStore, 3)
	before := db.txns.ReadTS()
	tx := begin(t, db)
	if _, err := tx.Exec(&query.Query{Kind: query.Select, Table: "sales"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := db.txns.ReadTS(); got != before {
		t.Fatalf("read-only commit advanced the clock: %d -> %d", before, got)
	}
}

// TestLongScanAndWriterDoNotBlock is the tentpole non-blocking
// guarantee: a long analytical aggregate and a committing writer make
// progress concurrently (the writer never waits for the scan; the scan
// never sees a torn commit).
func TestLongScanAndWriterDoNotBlock(t *testing.T) {
	db := newDB(t, catalog.ColumnStore, 50000)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reader: repeated aggregates
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := db.Exec(&query.Query{Kind: query.Aggregate, Table: "sales",
				Aggs: []agg.Spec{{Func: agg.Sum, Col: 3}}})
			if err != nil {
				t.Error(err)
				return
			}
			_ = res
		}
	}()
	// Writer: 200 transactional updates while scans run. Measure that
	// commits complete promptly (they'd take seconds if scans held the
	// global read lock against them).
	start := time.Now()
	for i := 0; i < 200; i++ {
		tx, err := db.Begin(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(&query.Query{Kind: query.Update, Table: "sales",
			Pred: idEq(int64(i)), Set: map[int]value.Value{2: value.NewDouble(float64(-i))}}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	if elapsed > 30*time.Second {
		t.Fatalf("200 commits under scan load took %v", elapsed)
	}
	for i := 0; i < 200; i++ {
		if amt, ok := amountOf(t, db, int64(i)); !ok || amt != float64(-i) {
			t.Fatalf("write %d lost: %v %v", i, amt, ok)
		}
	}
}

func TestVacuumPrunesFoldedChains(t *testing.T) {
	db := newDB(t, catalog.RowStore, 10)
	for i := 0; i < 10; i++ {
		tx := begin(t, db)
		if _, err := tx.Exec(&query.Query{Kind: query.Update, Table: "sales",
			Pred: idEq(int64(i)), Set: map[int]value.Value{2: value.NewDouble(1)}}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	db.Vacuum()
	db.mu.RLock()
	rt, err := db.runtime("sales")
	var left int
	if err == nil {
		left = rt.ov.Len()
	}
	db.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if left != 0 {
		t.Fatalf("%d chains survived vacuum with no live snapshots", left)
	}
}
