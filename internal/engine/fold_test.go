package engine

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// The keyed-fold suite commits transactions of every write shape on every
// layout and compares base storage — read below the version overlay, after
// the fold — with a model, so a fold that resolved a key wrongly cannot
// hide behind the overlay's merged view.

// baseState is the sorted content of a table's base storage.
func baseState(t *testing.T, db *Database, table string) []string {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	rt, err := db.runtime(table)
	if err != nil {
		t.Fatal(err)
	}
	if n := rt.ov.Len(); n != 0 {
		t.Fatalf("%d version chains survive a vacuum with no open transaction", n)
	}
	var out []string
	for _, row := range storeRows(rt.store, rt.entry.Schema.NumColumns()) {
		s := ""
		for _, v := range row {
			s += v.Type().String() + ":" + v.String() + "|"
		}
		out = append(out, s)
	}
	sort.Strings(out)
	if len(out) != rt.store.Rows() {
		t.Fatalf("scan sees %d rows, Rows() says %d", len(out), rt.store.Rows())
	}
	return out
}

// foldTxns are the transactions of the suite, each a list of statements
// committed as one unit. Ids below 50 sit in the cold partition of the
// horizontal layouts, the others in the hot one.
func foldTxns() [][]*query.Query {
	upd := func(pred expr.Predicate, set map[int]value.Value) *query.Query {
		return &query.Query{Kind: query.Update, Table: "dml", Pred: pred, Set: set}
	}
	del := func(id int64) *query.Query { return &query.Query{Kind: query.Delete, Table: "dml", Pred: idEq(id)} }
	ins := func(rows ...[]value.Value) *query.Query {
		return &query.Query{Kind: query.Insert, Table: "dml", Rows: rows}
	}
	return [][]*query.Query{
		{upd(idEq(10), map[int]value.Value{2: value.NewDouble(-0.5)})},                                                             // single row, cold
		{upd(idEq(70), map[int]value.Value{2: value.Null(value.Double), 3: value.NewVarchar("seventy")})},                          // single row, hot
		{upd(&expr.Between{Col: 0, Lo: value.NewBigint(40), Hi: value.NewBigint(60)}, map[int]value.Value{2: value.NewDouble(7)})}, // multi-row, both sides
		{upd(idEq(20), map[int]value.Value{0: value.NewBigint(1020)})},                                                             // key-moving
		{upd(idEq(80), map[int]value.Value{0: value.NewBigint(1080), 1: value.NewInt(1)})},                                         // key-moving across the split
		{upd(idEq(30), map[int]value.Value{1: value.NewInt(99)})},                                                                  // same key, cold to hot
		{del(11), del(71)},         // deletes
		{del(12), ins(dmlRow(12))}, // insert after delete of the same key
		{del(13), upd(idEq(14), map[int]value.Value{0: value.NewBigint(13)})},                                        // a key freed and taken in one transaction
		{ins(dmlRow(500), dmlRow(501)), upd(idEq(500), map[int]value.Value{3: value.Null(value.Varchar)}), del(501)}, // written twice, inserted and gone
	}
}

func commitAll(t *testing.T, db *Database, stmts []*query.Query) {
	t.Helper()
	tx := begin(t, db)
	for _, q := range stmts {
		if _, err := tx.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestKeyedFoldAllLayouts(t *testing.T) {
	foldErrs := mTxnFoldErrors.Value()
	layouts := dmlLayouts()
	dbs := make([]*Database, len(layouts))
	for i, lay := range layouts {
		dbs[i] = New()
		if err := dbs[i].CreateTableWithLayout(dmlSchema(), lay.store, lay.spec); err != nil {
			t.Fatalf("%s: %v", lay.name, err)
		}
		mustExec(t, dbs[i], differentialSteps(false)[0].q)
	}
	for n, stmts := range foldTxns() {
		var ref []string
		for i, lay := range layouts {
			keys := mTxnFoldKeys.Value()
			commitAll(t, dbs[i], stmts)
			dbs[i].Vacuum()
			if mTxnFoldKeys.Value() == keys {
				t.Errorf("txn %d on %s folded no key", n, lay.name)
			}
			got := baseState(t, dbs[i], "dml")
			if !reflect.DeepEqual(got, visibleState(t, dbs[i], "dml")) {
				t.Fatalf("txn %d on %s: base storage and the statement view differ", n, lay.name)
			}
			if i == 0 {
				ref = got
			} else if !reflect.DeepEqual(got, ref) {
				t.Fatalf("txn %d: layout %s diverged from %s:\n%v\n%v", n, lay.name, layouts[0].name, got, ref)
			}
		}
	}
	// The row layout is the reference; pin it to what the transactions say.
	final := baseState(t, dbs[0], "dml")
	for _, want := range []struct {
		id      int64
		present bool
	}{{10, true}, {20, false}, {1020, true}, {80, false}, {1080, true}, {11, false}, {71, false}, {12, true}, {13, true}, {14, false}, {500, true}, {501, false}} {
		res := mustExec(t, dbs[0], &query.Query{Kind: query.Select, Table: "dml", Pred: idEq(want.id)})
		if (len(res.Rows) == 1) != want.present {
			t.Errorf("id %d present=%v, want %v", want.id, len(res.Rows) == 1, want.present)
		}
	}
	if want := 100 - 2 - 1 + 1; len(final) != want { // 11 and 71 deleted, 14 moved onto 13, 500 inserted
		t.Errorf("final table has %d rows, want %d", len(final), want)
	}
	if d := mTxnFoldErrors.Value() - foldErrs; d != 0 {
		t.Errorf("hs_txn_fold_errors_total moved by %d", d)
	}
}

// TestKeyedFoldRecoveryTruncatedWAL cuts the WAL at every byte across the
// commit records of two transactions, on every layout: recovery applies
// the same keyed fold, and must land on a state a whole number of
// transactions produced.
func TestKeyedFoldRecoveryTruncatedWAL(t *testing.T) {
	txns := foldTxns()
	for _, lay := range dmlLayouts() {
		t.Run(lay.name, func(t *testing.T) {
			dir := t.TempDir()
			db := openTestDB(t, dir)
			if err := db.CreateTableWithLayout(dmlSchema(), lay.store, lay.spec); err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, differentialSteps(false)[0].q)
			walPath := filepath.Join(dir, "wal.log")
			fi, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			legal := [][]string{visibleState(t, db, "dml")}
			// One transaction of single-key writes, one that frees a key and
			// takes it again.
			for _, stmts := range [][]*query.Query{
				{txns[1][0], txns[3][0], txns[6][0], txns[7][0], txns[7][1]},
				{txns[8][0], txns[8][1], txns[4][0]},
			} {
				commitAll(t, db, stmts)
				legal = append(legal, visibleState(t, db, "dml"))
			}
			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			reached := make([]bool, len(legal))
			for cut := int(fi.Size()); cut <= len(data); cut++ {
				cutDir := t.TempDir()
				if err := os.WriteFile(filepath.Join(cutDir, "wal.log"), data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				re := openTestDB(t, cutDir)
				got := visibleState(t, re, "dml")
				matched := -1
				for i, want := range legal {
					if reflect.DeepEqual(got, want) {
						matched = i
					}
				}
				if matched < 0 {
					t.Fatalf("cut at %d/%d bytes: recovered a partial transaction: %v", cut, len(data), got)
				}
				reached[matched] = true
				re.Close()
			}
			for i, ok := range reached {
				if !ok {
					t.Fatalf("truncation sweep never produced the state after %d transactions", i)
				}
			}
		})
	}
}

// BenchmarkFoldSingleRowUpdate is the auto-commit UPDATE of one row by key
// on a 100k-row table in each layout, fold included: claim, commit,
// keyed apply.
func BenchmarkFoldSingleRowUpdate(b *testing.B) {
	const n = 100_000
	for _, lay := range dmlLayouts() {
		b.Run(lay.name, func(b *testing.B) {
			db := New()
			if err := db.CreateTableWithLayout(dmlSchema(), lay.store, lay.spec); err != nil {
				b.Fatal(err)
			}
			rows := make([][]value.Value, n)
			for i := range rows {
				rows[i] = dmlRow(int64(i))
			}
			if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "dml", Rows: rows}); err != nil {
				b.Fatal(err)
			}
			if err := db.Compact("dml"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := int64(i) * 7919 % n
				res, err := db.Exec(&query.Query{Kind: query.Update, Table: "dml", Pred: idEq(id),
					Set: map[int]value.Value{2: value.NewDouble(float64(i))}})
				if err != nil || res.Affected != 1 {
					b.Fatal(res, err)
				}
			}
		})
	}
}

// TestRowStoragePersistRoundTrip checkpoints a row table holding the edge
// values of every type and reopens it: every slot must come back bit for
// bit (NaN, -0.0, MinInt64, NULLs, empty and long strings), in a table of
// the same footprint.
func TestRowStoragePersistRoundTrip(t *testing.T) {
	cols := []schema.Column{{Name: "id", Type: value.Bigint}}
	for _, typ := range value.Types {
		cols = append(cols, schema.Column{Name: "c" + typ.String(), Type: typ, Nullable: true})
	}
	sch := schema.MustNew("edge", cols, "id")
	rows := [][]value.Value{
		{value.NewBigint(math.MinInt64), value.NewInt(math.MinInt32), value.NewBigint(math.MinInt64), value.NewDouble(math.NaN()), value.NewVarchar(""), value.NewDate(-1)},
		{value.NewBigint(0), value.NewInt(0), value.NewBigint(math.MaxInt64), value.NewDouble(math.Copysign(0, -1)), value.NewVarchar(strings.Repeat("\x00é", 1<<15)), value.NewDate(0)},
		{value.NewBigint(1), value.Null(value.Integer), value.Null(value.Bigint), value.Null(value.Double), value.Null(value.Varchar), value.Null(value.Date)},
	}
	dir := t.TempDir()
	db := openTestDB(t, dir)
	if err := db.CreateTable(sch, catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CopyRows(context.Background(), "edge", rows); err != nil {
		t.Fatal(err)
	}
	src, _ := db.runtime("edge")
	stored := footprintOf(src.store)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTestDB(t, dir)
	defer re.Close()
	dst, _ := re.runtime("edge")
	n := 0
	for _, row := range storeRows(dst.store, sch.NumColumns()) {
		want := rows[n]
		for c, v := range row {
			if v.Type() != want[c].Type() || v.IsNull() != want[c].IsNull() || v.Bits() != want[c].Bits() || v.Varchar() != want[c].Varchar() {
				t.Errorf("row %d column %d: restored %v, stored %v", n, c, v, want[c])
			}
		}
		n++
	}
	if n != len(rows) || footprintOf(dst.store) != stored {
		t.Errorf("restored %d rows, %+v; stored %d rows, %+v", n, footprintOf(dst.store), len(rows), stored)
	}
}

func footprintOf(st *storage) (f Footprint) {
	st.footprint(&f)
	return f
}

// TestUnfoldedUpdateKeepsItsPlace reads a key range while a committed
// update of one of its rows has not been folded yet (a reader held the lock
// the fold needs): the new image must come back where the old one was, not
// after the range — clients read ranges in key order.
func TestUnfoldedUpdateKeepsItsPlace(t *testing.T) {
	for _, lay := range dmlLayouts() {
		db := New()
		if err := db.CreateTableWithLayout(dmlSchema(), lay.store, lay.spec); err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, differentialSteps(false)[0].q)
		rng := &query.Query{Kind: query.Select, Table: "dml", Pred: &expr.Between{Col: 0, Lo: value.NewBigint(60), Hi: value.NewBigint(64)}}
		before := mustExec(t, db, rng)
		db.mu.RLock() // the committer's TryLock fails: the commits stay in the overlay
		mustExec(t, db, &query.Query{Kind: query.Update, Table: "dml", Pred: idEq(62), Set: map[int]value.Value{2: value.NewDouble(-1)}})
		// Keyed writes and reads of unfolded keys: auto-commit, and in a
		// transaction that writes its key twice.
		updateAndRead(t, db, nil, "dml", 62, 3, value.NewVarchar("unfolded"))
		tx := begin(t, db)
		updateAndRead(t, db, tx, "dml", 63, 2, value.NewDouble(-2))
		updateAndRead(t, db, tx, "dml", 63, 2, value.NewDouble(-3))
		if err := tx.Commit(context.Background()); err != nil {
			t.Fatal(err)
		}
		db.mu.RUnlock()
		after := mustExec(t, db, rng)
		if len(after.Rows) != len(before.Rows) {
			t.Fatalf("%s: %d rows, want %d", lay.name, len(after.Rows), len(before.Rows))
		}
		for i, row := range after.Rows {
			if row[0].Int() != before.Rows[i][0].Int() {
				t.Errorf("%s: position %d holds id %d, before the update id %d", lay.name, i, row[0].Int(), before.Rows[i][0].Int())
			}
			if id := row[0].Int(); id == 62 && (row[2].Double() != -1 || row[3].Varchar() != "unfolded") || id == 63 && row[2].Double() != -3 {
				t.Errorf("%s: a committed update is not visible: %v", lay.name, row)
			}
		}
	}
}

// updateAndRead sets column col of row id to v by key and reads the row
// back by key, both in tx (auto-commit when nil): the read must see the
// write.
func updateAndRead(t *testing.T, db *Database, tx *Txn, table string, id int64, col int, v value.Value) {
	t.Helper()
	exec := db.Exec
	if tx != nil {
		exec = tx.Exec
	}
	if res, err := exec(&query.Query{Kind: query.Update, Table: table, Pred: idEq(id), Set: map[int]value.Value{col: v}}); err != nil || res.Affected != 1 {
		t.Fatalf("update of id %d: %v, %v", id, res, err)
	}
	res, err := exec(&query.Query{Kind: query.Select, Table: table, Cols: []int{0, col}, Pred: idEq(id)})
	if err != nil || len(res.Rows) != 1 || !value.Equal(res.Rows[0][1], v) {
		t.Fatalf("read of id %d after writing %v: %v, %v", id, v, res, err)
	}
}
