package engine

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// commitTxnWorkload runs one explicit transaction touching several rows
// (update, delete, insert) of each of the given sales-shaped tables and
// commits it, so its WAL commit record is a multi-row unit that recovery
// must apply atomically or not at all.
func commitTxnWorkload(t *testing.T, db *Database, round int64, tables ...string) {
	t.Helper()
	tx := begin(t, db)
	for _, table := range tables {
		for _, q := range []*query.Query{
			{Kind: query.Update, Table: table, Pred: idEq(round), Set: map[int]value.Value{2: value.NewDouble(9000 + float64(round))}},
			{Kind: query.Delete, Table: table, Pred: idEq(round + 4)},
			{Kind: query.Insert, Table: table, Rows: [][]value.Value{salesRow(100 + round)}},
		} {
			if _, err := tx.Exec(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestTxnRecoveryTruncatedCommitRecord cuts the WAL at every byte length
// across two transactional commit records and checks each recovery lands
// on exactly one of the legal committed states — a torn commit record
// rolls the whole transaction back, never replaying part of it. Each
// transaction writes a keyed table and a keyless one (notes), and a table
// recovered with all its rows hands out row keys past the largest it holds.
func TestTxnRecoveryTruncatedCommitRecord(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	notes := keylessSales()
	notes.Name = "notes"
	for _, sch := range []*schema.Table{salesSchema(), notes} {
		if err := db.CreateTable(sch, catalog.RowStore); err != nil {
			t.Fatal(err)
		}
	}
	// state renders both tables; one a cut left uncreated has no rows.
	state := func(db *Database) []string {
		var out []string
		for _, table := range []string{"sales", "notes"} {
			if _, err := db.Rows(table); err == nil {
				for _, row := range visibleState(t, db, table) {
					out = append(out, table+":"+row)
				}
			}
		}
		return out
	}
	// Each table's base state arrives as one multi-row insert so every
	// legal recovery image is an atomic state, not an insert prefix.
	base := make([][]value.Value, 0, 10)
	for i := 0; i < 10; i++ {
		base = append(base, salesRow(int64(i)))
	}
	mustExec(t, db, &query.Query{Kind: query.Insert, Table: "sales", Rows: base})
	stateSales := state(db)
	mustExec(t, db, &query.Query{Kind: query.Insert, Table: "notes", Rows: base})
	stateBase := state(db)

	commitTxnWorkload(t, db, 1, "sales", "notes")
	stateA := state(db)
	commitTxnWorkload(t, db, 2, "sales", "notes")
	stateB := state(db)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	legal := [][]string{nil, stateSales, stateBase, stateA, stateB}
	names := []string{"empty", "sales-only", "base", "after-txn-A", "after-both"}
	reached := make([]bool, len(legal))
	for cut := 0; cut <= len(data); cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, "wal.log"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re := openTestDB(t, cutDir)
		got := state(re)
		matched := -1
		for i, want := range legal {
			if reflect.DeepEqual(got, want) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Fatalf("cut at %d/%d bytes: recovered a partial transaction: %v", cut, len(data), got)
		}
		reached[matched] = true
		if cut == len(data) {
			mustExec(t, re, &query.Query{Kind: query.Insert, Table: "notes", Rows: [][]value.Value{salesRow(500)}})
			if n, _ := re.Rows("notes"); n != 11 {
				t.Fatalf("notes holds %d rows after an insert into the recovered 10", n)
			}
		}
		re.Close()
	}
	// Sanity: the sweep actually visited every atomic state, including the
	// full replay — otherwise the loop could pass vacuously.
	for i, ok := range reached {
		if !ok {
			t.Fatalf("truncation sweep never produced the %q state", names[i])
		}
	}
}

// TestTxnRecoveryCommittedOnly crashes with one transaction committed and
// another still open; recovery must replay the committed one in full and
// show no trace of the open one.
func TestTxnRecoveryCommittedOnly(t *testing.T) {
	for _, lay := range layoutSpecs() {
		for _, v := range salesVariants(lay.spec) {
			t.Run(lay.name+v.suffix, func(t *testing.T) {
				dir := t.TempDir()
				db := openTestDB(t, dir)
				if err := db.CreateTableWithLayout(v.sch, lay.store, v.spec); err != nil {
					t.Fatal(err)
				}
				rows := make([][]value.Value, 0, 10)
				for i := 0; i < 10; i++ {
					rows = append(rows, salesRow(int64(i)))
				}
				mustExec(t, db, &query.Query{Kind: query.Insert, Table: "sales", Rows: rows})

				commitTxnWorkload(t, db, 3, "sales")
				want := visibleState(t, db, "sales")

				// Open transaction with pending writes at crash time: its
				// versions live only in the overlay, never in the WAL.
				open := begin(t, db)
				if _, err := open.Exec(&query.Query{Kind: query.Update, Table: "sales",
					Pred: idEq(0), Set: map[int]value.Value{2: value.NewDouble(-1)}}); err != nil {
					t.Fatal(err)
				}
				if _, err := open.Exec(&query.Query{Kind: query.Insert, Table: "sales",
					Rows: [][]value.Value{salesRow(999)}}); err != nil {
					t.Fatal(err)
				}
				if err := db.Crash(); err != nil {
					t.Fatal(err)
				}

				re := openTestDB(t, dir)
				defer re.Close()
				if got := visibleState(t, re, "sales"); !reflect.DeepEqual(got, want) {
					t.Fatalf("recovery state diverged:\n got %v\nwant %v", got, want)
				}
				// A recovered table takes new rows: a keyless one hands out a
				// row key past the largest it holds, whatever its layout.
				mustExec(t, re, &query.Query{Kind: query.Insert, Table: "sales", Rows: [][]value.Value{salesRow(2000)}})
			})
		}
	}
}
