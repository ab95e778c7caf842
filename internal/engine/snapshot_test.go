package engine

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/query"
	"hybridstore/internal/value"
	"hybridstore/internal/wal"
)

// TestCopyDuplicateKeyWall sends COPY batches that must be refused whole to
// every layout: one repeating a stored key, one holding a key twice, one
// taking a key an open transaction has claimed, and two with a value the
// schema refuses. Each must leave the table's scan and its WAL as they
// were, and the reopened table must hold what the accepted batch wrote.
func TestCopyDuplicateKeyWall(t *testing.T) {
	ctx := context.Background()
	bad := []struct {
		name string
		rows [][]value.Value
	}{
		{"stored key", [][]value.Value{dmlRow(100), dmlRow(45)}},
		{"key twice in the batch", [][]value.Value{dmlRow(101), dmlRow(102), dmlRow(101)}},
		{"key claimed by an open transaction", [][]value.Value{dmlRow(103), dmlRow(90)}},
		{"mistyped value", [][]value.Value{dmlRow(104), {value.NewBigint(105), value.NewVarchar("x"), value.NewDouble(1), value.NewVarchar("a")}}},
		{"NULL in a NOT NULL column", [][]value.Value{dmlRow(106), {value.NewBigint(107), value.Null(value.Integer), value.NewDouble(1), value.NewVarchar("a")}}},
	}
	for _, lay := range dmlLayouts() {
		t.Run(lay.name, func(t *testing.T) {
			dir := t.TempDir()
			db := openTestDB(t, dir)
			if err := db.CreateTableWithLayout(dmlSchema(), lay.store, lay.spec); err != nil {
				t.Fatal(err)
			}
			var rows [][]value.Value
			for id := int64(40); id < 60; id++ { // both sides of the horizontal split
				rows = append(rows, dmlRow(id))
			}
			if _, err := db.CopyRows(ctx, "dml", rows); err != nil {
				t.Fatal(err)
			}
			tx := begin(t, db)
			if _, err := tx.Exec(&query.Query{Kind: query.Insert, Table: "dml", Rows: [][]value.Value{dmlRow(90)}}); err != nil {
				t.Fatal(err)
			}
			want := visibleState(t, db, "dml")
			walPath := filepath.Join(dir, walFile)
			log, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range bad {
				if _, err := db.CopyRows(ctx, "dml", b.rows); err == nil {
					t.Errorf("%s: batch accepted", b.name)
				}
				if got := visibleState(t, db, "dml"); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: the refused batch changed the table: %d rows, want %d", b.name, len(got), len(want))
				}
				if after, _ := os.ReadFile(walPath); !bytes.Equal(after, log) {
					t.Errorf("%s: the refused batch changed the WAL", b.name)
				}
			}
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}
			re := openTestDB(t, dir)
			defer re.Close()
			if got := visibleState(t, re, "dml"); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened table holds %d rows, want %d", len(got), len(want))
			}
		})
	}
}

// v2Image encodes a version-2 snapshot of one dml table: the layout's own
// row sections, in the order version 2 wrote them, each section a list of
// rows already projected to its partition's columns.
func v2Image(lay dmlLayout, sections ...[][]value.Value) []byte {
	enc := wal.NewEncoder()
	enc.String(snapshotMagic)
	enc.Uvarint(2) // snapshot version
	enc.Uvarint(1) // first WAL sequence the snapshot does not cover
	enc.Uvarint(1) // tables
	enc.Schema(dmlSchema())
	enc.Byte(byte(lay.store))
	enc.Spec(lay.spec)
	enc.Ints([]int{1}) // a secondary index on grp
	for _, s := range sections {
		enc.Rows(s)
	}
	return enc.Bytes()
}

// v2Sections splits rows into the sections a version-2 snapshot of the
// layout holds. A column store's main and delta each get some rows, and a
// vertical split's column partition holds its rows in the reverse order of
// its row partition, as merges and updates leave them.
func v2Sections(lay dmlLayout, rows [][]value.Value) [][][]value.Value {
	column := func(rows [][]value.Value) [][][]value.Value {
		return [][][]value.Value{rows[:len(rows)/2], rows[len(rows)/2:]}
	}
	vertical := func(rows [][]value.Value) [][][]value.Value {
		v := lay.spec.Vertical
		colRows := slices.Clone(rows)
		slices.Reverse(colRows)
		return append([][][]value.Value{projectRows(rows, v.RowCols)}, column(projectRows(colRows, v.ColCols))...)
	}
	switch {
	case lay.spec == nil && lay.store == catalog.RowStore:
		return [][][]value.Value{rows}
	case lay.spec == nil:
		return column(rows)
	case lay.spec.Horizontal == nil:
		return vertical(rows)
	}
	var hot, cold [][]value.Value
	for _, row := range rows {
		if row[1].Int() >= lay.spec.Horizontal.SplitVal.Int() {
			hot = append(hot, row)
		} else {
			cold = append(cold, row)
		}
	}
	if lay.spec.Vertical != nil {
		return append([][][]value.Value{hot}, vertical(cold)...)
	}
	return append([][][]value.Value{hot}, column(cold)...)
}

// TestOpenVersion2Images opens hand-built version-2 snapshots of all five
// layouts: every row comes back, the secondary index is declared again, and
// the reopened table starts compacted (no column delta).
func TestOpenVersion2Images(t *testing.T) {
	var rows [][]value.Value
	for id := int64(30); id < 70; id++ {
		rows = append(rows, dmlRow(id))
	}
	ref := New()
	if err := ref.CreateTable(dmlSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.CopyRows(context.Background(), "dml", rows); err != nil {
		t.Fatal(err)
	}
	want := visibleState(t, ref, "dml")
	for _, lay := range dmlLayouts() {
		t.Run(lay.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, snapshotFile), v2Image(lay, v2Sections(lay, rows)...), 0o644); err != nil {
				t.Fatal(err)
			}
			db := openTestDB(t, dir)
			defer db.Close()
			if got := visibleState(t, db, "dml"); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d rows after opening, want %d: %v", len(got), len(want), got)
			}
			if d, err := db.DeltaRows("dml"); err != nil || d != 0 {
				t.Fatalf("%d rows in the delta after opening (%v), want 0", d, err)
			}
			if idx := db.cat.Table("dml").Indexes; !slices.Equal(idx, []int{1}) {
				t.Fatalf("indexes %v after opening, want [1]", idx)
			}
		})
	}
}

// FuzzLoadSnapshot loads arbitrary bytes as a snapshot into a new database:
// a corrupt image must return an error, never panic or hang. The seeds are
// a version-1 image of a keyless table, version-2 images of every layout
// and a version-3 image a checkpoint wrote.
func FuzzLoadSnapshot(f *testing.F) {
	v1 := wal.NewEncoder()
	v1.String(snapshotMagic)
	for _, x := range []uint64{1, 1, 1} { // version, sequence, tables
		v1.Uvarint(x)
	}
	v1.String("notes") // the schema as version 1 stored it: the declared columns, no key
	v1.Uvarint(2)
	for _, c := range notesSchema().Columns[:2] {
		v1.String(c.Name)
		v1.Byte(byte(c.Type))
		v1.Byte(1)
	}
	v1.Ints(nil)
	v1.Byte(byte(catalog.ColumnStore))
	v1.Spec(nil)
	v1.Ints(nil)
	v1.Rows([][]value.Value{note("a", 1)})
	v1.Rows([][]value.Value{note("b", 2)})
	f.Add(v1.Bytes())

	rows := [][]value.Value{dmlRow(40), dmlRow(55), dmlRow(60)}
	for _, lay := range dmlLayouts() {
		f.Add(v2Image(lay, v2Sections(lay, rows)...))
	}

	dir := f.TempDir()
	db, err := OpenOptions(dir, testOptions)
	if err != nil {
		f.Fatal(err)
	}
	for _, lay := range dmlLayouts() {
		sch := dmlSchema()
		sch.Name = "dml_" + lay.name
		if err := db.CreateTableWithLayout(sch, lay.store, lay.spec); err != nil {
			f.Fatal(err)
		}
		if _, err := db.CopyRows(context.Background(), sch.Name, rows); err != nil {
			f.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	v3, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)

	f.Fuzz(func(t *testing.T, data []byte) {
		New().loadSnapshot(data)
	})
}
