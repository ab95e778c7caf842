package engine

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/value"
)

// copyBatch builds one bulk-ingest batch of sales rows [lo, lo+n).
func copyBatch(lo, n int) [][]value.Value {
	rows := make([][]value.Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, salesRow(int64(lo+i)))
	}
	return rows
}

// TestCopyRecoveryTruncatedWALPerByte cuts the WAL at every byte of its
// tail and recovers each image: a RecCopy batch is one record, so every
// recovery must surface each batch either completely or not at all —
// the recovered row count is always a multiple of the batch size, and
// monotonically non-increasing as the cut deepens.
func TestCopyRecoveryTruncatedWALPerByte(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	if err := db.CreateTable(salesSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const batches, per = 3, 20
	for b := 0; b < batches; b++ {
		if _, err := db.CopyRows(ctx, "sales", copyBatch(b*per, per)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	lastRows := -1
	for cut := 0; cut < len(data); cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, "wal.log"), data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re := openTestDB(t, cutDir)
		rows := 0
		if n, err := re.Rows("sales"); err == nil {
			// A deep enough cut tears the create-table record itself, in
			// which case the table is legitimately absent.
			rows = n
		}
		if rows%per != 0 {
			re.Close()
			t.Fatalf("cut %d: recovered %d rows — a COPY batch surfaced partially (batch size %d)", cut, rows, per)
		}
		if lastRows >= 0 && rows > lastRows {
			re.Close()
			t.Fatalf("cut %d: recovered %d rows after shallower cut gave %d", cut, rows, lastRows)
		}
		if rows > 0 {
			// The surviving rows are the exact prefix of whole batches.
			if got, want := visibleState(t, re, "sales"), prefixState(t, rows/per, per); !reflect.DeepEqual(got, want) {
				re.Close()
				t.Fatalf("cut %d: recovered %d rows but content diverged from the batch prefix", cut, rows)
			}
		}
		lastRows = rows
		re.Close()
	}
}

// prefixState renders the canonical content of the first k COPY batches.
func prefixState(t *testing.T, k, per int) []string {
	t.Helper()
	ref := New()
	defer ref.Close()
	if err := ref.CreateTable(salesSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for b := 0; b < k; b++ {
		if _, err := ref.CopyRows(ctx, "sales", copyBatch(b*per, per)); err != nil {
			t.Fatal(err)
		}
	}
	return visibleState(t, ref, "sales")
}

// copyLayoutSpecs covers all four layouts: plain row, plain column,
// horizontal-only, and the combined horizontal+vertical partitioning.
func copyLayoutSpecs() []struct {
	name  string
	store catalog.StoreKind
	spec  *catalog.PartitionSpec
} {
	return []struct {
		name  string
		store catalog.StoreKind
		spec  *catalog.PartitionSpec
	}{
		{"row", catalog.RowStore, nil},
		{"column", catalog.ColumnStore, nil},
		{"horizontal", catalog.Partitioned, &catalog.PartitionSpec{
			Horizontal: &catalog.HorizontalSpec{
				SplitCol: 1, SplitVal: value.NewInt(2),
				HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
			},
		}},
		{"partitioned", catalog.Partitioned, &catalog.PartitionSpec{
			Horizontal: &catalog.HorizontalSpec{
				SplitCol: 1, SplitVal: value.NewInt(2),
				HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
			},
			Vertical: &catalog.VerticalSpec{RowCols: []int{0, 1, 4}, ColCols: []int{0, 2, 3}},
		}},
	}
}

// TestCopyCrashRecoveryAllLayouts interleaves bulk-ingest batches with
// the standard mixed DML workload on every layout, crashes, and
// requires recovery to reproduce exactly the state an in-memory
// reference reaches with the same sequence.
func TestCopyCrashRecoveryAllLayouts(t *testing.T) {
	ctx := context.Background()
	run := func(t *testing.T, db *Database) {
		t.Helper()
		if _, err := db.CopyRows(ctx, "sales", copyBatch(100, 40)); err != nil {
			t.Fatal(err)
		}
		applyWorkload(t, db)
		if _, err := db.CopyRows(ctx, "sales", copyBatch(200, 40)); err != nil {
			t.Fatal(err)
		}
	}
	for _, lay := range copyLayoutSpecs() {
		for _, v := range salesVariants(lay.spec) {
			t.Run(lay.name+v.suffix, func(t *testing.T) {
				dir := t.TempDir()
				db := openTestDB(t, dir)
				if err := db.CreateTableWithLayout(v.sch, lay.store, v.spec); err != nil {
					t.Fatal(err)
				}
				run(t, db)

				ref := New()
				defer ref.Close()
				if err := ref.CreateTableWithLayout(v.sch, lay.store, v.spec); err != nil {
					t.Fatal(err)
				}
				run(t, ref)
				want := visibleState(t, ref, "sales")

				if got := visibleState(t, db, "sales"); !reflect.DeepEqual(got, want) {
					t.Fatal("durable db diverged from in-memory reference before crash")
				}
				if err := db.Crash(); err != nil {
					t.Fatal(err)
				}
				re := openTestDB(t, dir)
				defer re.Close()
				if got := visibleState(t, re, "sales"); !reflect.DeepEqual(got, want) {
					t.Fatalf("layout %s: recovered state diverged (%d rows vs %d)", lay.name, len(got), len(want))
				}
				// A recovered table takes a new batch: a keyless one hands
				// out row keys past the largest it holds.
				if _, err := re.CopyRows(ctx, "sales", copyBatch(5000, 3)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
