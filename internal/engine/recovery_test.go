package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
	"hybridstore/internal/wal"
)

// visibleState returns the full table content sorted by primary key
// rendering, as a canonical comparable form.
func visibleState(t *testing.T, db *Database, table string) []string {
	t.Helper()
	res, err := db.Exec(&query.Query{Kind: query.Select, Table: table})
	if err != nil {
		t.Fatalf("select %s: %v", table, err)
	}
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		s := ""
		for _, v := range row {
			s += v.Type().String() + ":" + v.String() + "|"
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func mustExec(t *testing.T, db *Database, q *query.Query) *Result {
	t.Helper()
	res, err := db.Exec(q)
	if err != nil {
		t.Fatalf("exec %s: %v", q, err)
	}
	return res
}

// testOptions keeps recovery tests fast: fsync on every group commit is
// the production default, but the tests exercise ordering and replay,
// not disk latency.
var testOptions = Options{NoSync: true}

func openTestDB(t *testing.T, dir string) *Database {
	t.Helper()
	db, err := OpenOptions(dir, testOptions)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return db
}

// layoutSpecs returns the three layouts the acceptance criteria name:
// plain row, plain column, and horizontal+vertical partitioned.
func layoutSpecs() []struct {
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
		{"partitioned", catalog.Partitioned, &catalog.PartitionSpec{
			Horizontal: &catalog.HorizontalSpec{
				SplitCol: 1, SplitVal: value.NewInt(2),
				HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
			},
			Vertical: &catalog.VerticalSpec{RowCols: []int{0, 1, 4}, ColCols: []int{0, 2, 3}},
		}},
	}
}

// keylessSales is salesSchema declared without a primary key, so the
// hidden row key, column 5, is its key and id (column 0) an ordinary
// column that UPDATE may set to a value another row has.
func keylessSales() *schema.Table {
	sch := salesSchema()
	return schema.MustNew(sch.Name, sch.Columns)
}

// keylessSpec is spec, a layout of a table keyed by the columns a vertical
// split puts in both partitions, for the keyless twin of that table: those
// columns stay in the row partition only, and the hidden row key rowKey
// joins both.
func keylessSpec(spec *catalog.PartitionSpec, rowKey int) *catalog.PartitionSpec {
	if spec == nil || spec.Vertical == nil {
		return spec
	}
	v, out := spec.Vertical, *spec
	var colCols []int
	for _, c := range v.ColCols {
		if !slices.Contains(v.RowCols, c) {
			colCols = append(colCols, c)
		}
	}
	out.Vertical = &catalog.VerticalSpec{
		RowCols: append(slices.Clone(v.RowCols), rowKey),
		ColCols: append(colCols, rowKey),
	}
	return &out
}

// salesVariants is the keyed sales table and its keyless twin, each with
// the layout spec adapted to it and the subtest name suffix.
func salesVariants(spec *catalog.PartitionSpec) []struct {
	suffix string
	sch    *schema.Table
	spec   *catalog.PartitionSpec
} {
	keyless := keylessSales()
	return []struct {
		suffix string
		sch    *schema.Table
		spec   *catalog.PartitionSpec
	}{
		{"", salesSchema(), spec},
		{"_keyless", keyless, keylessSpec(spec, keyless.NumColumns()-1)},
	}
}

// applyWorkload runs a mixed DML sequence: inserts, an update, a PK
// change, a split-column move and a delete.
func applyWorkload(t *testing.T, db *Database) {
	t.Helper()
	rows := make([][]value.Value, 0, 60)
	for i := 0; i < 60; i++ {
		rows = append(rows, salesRow(int64(i)))
	}
	mustExec(t, db, &query.Query{Kind: query.Insert, Table: "sales", Rows: rows})
	mustExec(t, db, &query.Query{Kind: query.Update, Table: "sales",
		Pred: &expr.Comparison{Col: 3, Op: expr.Lt, Val: value.NewInt(3)},
		Set:  map[int]value.Value{2: value.NewDouble(123.5)}})
	mustExec(t, db, &query.Query{Kind: query.Update, Table: "sales",
		Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(7)},
		Set:  map[int]value.Value{0: value.NewBigint(1007)}})
	mustExec(t, db, &query.Query{Kind: query.Update, Table: "sales",
		Pred: &expr.Comparison{Col: 0, Op: expr.Lt, Val: value.NewBigint(5)},
		Set:  map[int]value.Value{1: value.NewInt(3)}})
	mustExec(t, db, &query.Query{Kind: query.Delete, Table: "sales",
		Pred: &expr.Between{Col: 0, Lo: value.NewBigint(20), Hi: value.NewBigint(29)}})
}

// TestRecoveryCrashAllLayouts is the core crash-recovery guarantee:
// after a crash (no checkpoint since the workload), Open must restore
// exactly the acknowledged state for all three layouts.
func TestRecoveryCrashAllLayouts(t *testing.T) {
	for _, lay := range layoutSpecs() {
		t.Run(lay.name, func(t *testing.T) {
			dir := t.TempDir()
			db := openTestDB(t, dir)
			if err := db.CreateTableWithLayout(salesSchema(), lay.store, lay.spec); err != nil {
				t.Fatal(err)
			}
			applyWorkload(t, db)

			// Reference: the same workload on a plain in-memory database.
			ref := New()
			if err := ref.CreateTableWithLayout(salesSchema(), lay.store, lay.spec); err != nil {
				t.Fatal(err)
			}
			applyWorkload(t, ref)
			want := visibleState(t, ref, "sales")

			if got := visibleState(t, db, "sales"); !reflect.DeepEqual(got, want) {
				t.Fatalf("durable db diverged from in-memory before crash")
			}
			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}

			re := openTestDB(t, dir)
			defer re.Close()
			if got := visibleState(t, re, "sales"); !reflect.DeepEqual(got, want) {
				t.Fatalf("layout %s: recovered state diverged\n got %d rows\nwant %d rows", lay.name, len(got), len(want))
			}
			e := re.Catalog().Table("sales")
			if e == nil || e.Store != lay.store || !e.Partitioning.Equal(lay.spec) {
				t.Fatalf("layout %s: catalog placement not recovered: %+v", lay.name, e)
			}
		})
	}
}

// TestRecoveryWideTableDelete crashes right after an auto-commit DELETE by
// key on tables of 8 and 30 columns, on every layout. The DELETE's commit
// record carries one deleted key and no row images, so it is much shorter
// than the table is wide, and recovery must still decode it.
func TestRecoveryWideTableDelete(t *testing.T) {
	for _, width := range []int{8, 30} {
		cols := make([]schema.Column, width)
		for c := range cols {
			cols[c] = schema.Column{Name: fmt.Sprintf("c%d", c), Type: value.Integer}
		}
		cols[0] = schema.Column{Name: "id", Type: value.Bigint}
		horiz := &catalog.HorizontalSpec{
			SplitCol: 1, SplitVal: value.NewInt(5),
			HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
		}
		vert := &catalog.VerticalSpec{RowCols: []int{0, 1}}
		for c := 0; c < width; c++ {
			if c != 1 {
				vert.ColCols = append(vert.ColCols, c)
			}
		}
		layouts := []dmlLayout{
			{"row", catalog.RowStore, nil},
			{"column", catalog.ColumnStore, nil},
			{"horizontal", catalog.Partitioned, &catalog.PartitionSpec{Horizontal: horiz}},
			{"vertical", catalog.Partitioned, &catalog.PartitionSpec{Vertical: vert}},
			{"horizontal+vertical", catalog.Partitioned, &catalog.PartitionSpec{Horizontal: horiz, Vertical: vert}},
		}
		for _, lay := range layouts {
			t.Run(fmt.Sprintf("%s/width%d", lay.name, width), func(t *testing.T) {
				dir := t.TempDir()
				db := openTestDB(t, dir)
				if err := db.CreateTableWithLayout(schema.MustNew("wide", cols, "id"), lay.store, lay.spec); err != nil {
					t.Fatal(err)
				}
				rows := make([][]value.Value, 10)
				for i := range rows {
					rows[i] = []value.Value{value.NewBigint(int64(i))}
					for c := 1; c < width; c++ {
						rows[i] = append(rows[i], value.NewInt(int64(i+c)))
					}
				}
				mustExec(t, db, &query.Query{Kind: query.Insert, Table: "wide", Rows: rows})
				mustExec(t, db, &query.Query{Kind: query.Delete, Table: "wide",
					Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(1)}})
				want := visibleState(t, db, "wide")
				if err := db.Crash(); err != nil {
					t.Fatal(err)
				}
				re := openTestDB(t, dir)
				defer re.Close()
				if got := visibleState(t, re, "wide"); !reflect.DeepEqual(got, want) {
					t.Fatalf("recovered %d rows, want %d", len(got), len(want))
				}
			})
		}
	}
}

// TestOpenVersion1KeylessTable opens data directories written before every
// table had a key. Their version-1 snapshot holds a keyless table's rows at
// the declared width, and the log inserts more at that width. Open gives
// every row its own hidden key, and an INSERT after it takes a fresh one.
func TestOpenVersion1KeylessTable(t *testing.T) {
	horiz := &catalog.PartitionSpec{Horizontal: &catalog.HorizontalSpec{
		SplitCol: 1, SplitVal: value.NewInt(2),
		HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
	}}
	for _, lay := range []struct {
		name     string
		store    catalog.StoreKind
		spec     *catalog.PartitionSpec
		sections int // row sections in the layout's payload
	}{
		{"row", catalog.RowStore, nil, 1},
		{"column", catalog.ColumnStore, nil, 2},
		{"horizontal", catalog.Partitioned, horiz, 3},
	} {
		t.Run(lay.name, func(t *testing.T) {
			dir := t.TempDir()
			enc := wal.NewEncoder()
			enc.String(snapshotMagic)
			enc.Uvarint(1) // snapshot version
			enc.Uvarint(1) // first WAL sequence the snapshot does not cover
			enc.Uvarint(1) // tables
			// The schema as version 1 stored it: the declared columns, no key.
			enc.String("notes")
			enc.Uvarint(2)
			for _, c := range notesSchema().Columns[:2] {
				enc.String(c.Name)
				enc.Byte(byte(c.Type))
				enc.Byte(1)
			}
			enc.Ints(nil)
			enc.Byte(byte(lay.store))
			enc.Spec(lay.spec)
			enc.Ints(nil) // secondary indexes
			for s := 0; s < lay.sections; s++ {
				enc.Rows([][]value.Value{note("a", 1), note("a", 1)})
			}
			if err := os.WriteFile(filepath.Join(dir, snapshotFile), enc.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			log, err := wal.Open(filepath.Join(dir, walFile), 1, 0, wal.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := log.Append(&wal.Record{Kind: wal.RecInsert, Table: "notes", Width: 2,
				Rows: [][]value.Value{note("b", 2)}}); err != nil {
				t.Fatal(err)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}

			db := openTestDB(t, dir)
			mustExec(t, db, &query.Query{Kind: query.Insert, Table: "notes", Rows: [][]value.Value{note("c", 3)}})
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			re := openTestDB(t, dir)
			defer re.Close()
			n := 2*lay.sections + 2
			if got := visibleState(t, re, "notes"); len(got) != n {
				t.Fatalf("%d rows after reopening, want %d: %v", len(got), n, got)
			}
			rt, err := re.runtime("notes")
			if err != nil {
				t.Fatal(err)
			}
			var keys []int64
			for _, row := range storeRows(rt.store, rt.entry.Schema.NumColumns()) {
				keys = append(keys, row[2].Int())
			}
			slices.Sort(keys)
			for i, k := range keys {
				if len(keys) != n || k != int64(i+1) {
					t.Fatalf("hidden keys %v, want 1..%d", keys, n)
				}
			}
		})
	}
}

// TestRecoverySmoke is the CI smoke sequence: populate → checkpoint →
// more writes → crash with a truncated WAL → restart → verify that
// exactly the acknowledged prefix survived.
func TestRecoverySmoke(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	if err := db.CreateTable(salesSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		mustExec(t, db, &query.Query{Kind: query.Insert, Table: "sales",
			Rows: [][]value.Value{salesRow(int64(i))}})
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 50; i++ {
		mustExec(t, db, &query.Query{Kind: query.Insert, Table: "sales",
			Rows: [][]value.Value{salesRow(int64(i))}})
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	// Tear the WAL mid-frame: the last insert becomes a torn,
	// unacknowledgeable record and must be dropped by recovery.
	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	re := openTestDB(t, dir)
	defer re.Close()
	n, err := re.Rows("sales")
	if err != nil {
		t.Fatal(err)
	}
	if n != 49 {
		t.Fatalf("recovered %d rows, want 49 (checkpointed 30 + 19 intact WAL inserts)", n)
	}
	// Every surviving row is a complete, acknowledged insert.
	for i := 0; i < 49; i++ {
		res := mustExec(t, re, &query.Query{Kind: query.Select, Table: "sales",
			Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(int64(i))}})
		if len(res.Rows) != 1 {
			t.Fatalf("row %d missing after recovery", i)
		}
	}
}

// TestRecoveryTruncatedWALPrefixes kills the log at every byte offset in
// the tail and checks each recovery yields a consistent prefix: the
// first m inserts, complete, for some m.
func TestRecoveryTruncatedWALPrefixes(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	if err := db.CreateTable(salesSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		mustExec(t, db, &query.Query{Kind: query.Insert, Table: "sales",
			Rows: [][]value.Value{salesRow(int64(i))}})
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	lastRows := -1
	for cut := 0; cut < len(data); cut += 7 {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, "wal.log"), data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re := openTestDB(t, cutDir)
		// A deep enough cut tears the create-table record itself — the
		// image of a crash before even the create was acknowledged — in
		// which case the table is legitimately absent (rows = 0).
		rows := 0
		if n, err := re.Rows("sales"); err == nil {
			rows = n
			// Rows must be the exact prefix 0..rows-1.
			for i := 0; i < rows; i++ {
				res := mustExec(t, re, &query.Query{Kind: query.Select, Table: "sales",
					Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(int64(i))}})
				if len(res.Rows) != 1 {
					t.Fatalf("cut %d: recovered %d rows but row %d missing", cut, rows, i)
				}
			}
		}
		if lastRows >= 0 && rows > lastRows {
			t.Fatalf("cut %d: recovered %d rows after shallower cut gave %d", cut, rows, lastRows)
		}
		lastRows = rows
		re.Close()
	}
}

// TestRecoveryDDL checks that DDL — index declarations, layout moves,
// drops — replays faithfully.
func TestRecoveryDDL(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	if err := db.CreateTable(salesSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	other := salesSchema().Clone("doomed")
	if err := db.CreateTable(other, catalog.ColumnStore); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, &query.Query{Kind: query.Insert, Table: "sales",
		Rows: [][]value.Value{salesRow(1), salesRow(2)}})
	if err := db.CreateIndex("sales", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.MigrateLayout("sales", catalog.ColumnStore, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	logged := false
	if _, err := wal.Recover(filepath.Join(dir, "wal.log"), func(_ uint64, rec *wal.Record) error {
		logged = logged || rec.Kind == wal.RecSetLayout && rec.Table == "sales" && rec.Store == catalog.ColumnStore
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !logged {
		t.Fatal("no SET-LAYOUT record logged for the layout change")
	}

	re := openTestDB(t, dir)
	defer re.Close()
	if re.Catalog().Table("doomed") != nil {
		t.Error("dropped table resurrected")
	}
	e := re.Catalog().Table("sales")
	if e == nil {
		t.Fatal("sales missing")
	}
	if e.Store != catalog.ColumnStore {
		t.Errorf("store = %v, want COLUMN", e.Store)
	}
	if !e.HasIndex(1) {
		t.Error("index declaration lost")
	}
	if n, _ := re.Rows("sales"); n != 2 {
		t.Errorf("rows = %d, want 2", n)
	}
}

// TestSetLayoutTransitions walks a durable table through every layout,
// writing between moves and crashing after each one: every move must log
// a SET-LAYOUT record carrying the new placement, and reopening must
// replay the whole chain of moves into that placement with every row
// intact.
func TestSetLayoutTransitions(t *testing.T) {
	chain := []struct {
		name  string
		store catalog.StoreKind
		spec  *catalog.PartitionSpec
	}{
		{"column", catalog.ColumnStore, nil},
		{"horizontal", catalog.Partitioned, horizontalSpec()},
		{"vertical", catalog.Partitioned, verticalSpec()},
		{"both", catalog.Partitioned, &catalog.PartitionSpec{
			Horizontal: horizontalSpec().Horizontal,
			Vertical:   verticalSpec().Vertical,
		}},
		{"row", catalog.RowStore, nil},
	}
	dir := t.TempDir()
	db := openTestDB(t, dir)
	if err := db.CreateTable(salesSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 0, 100)
	for i := int64(0); i < 100; i++ {
		rows = append(rows, salesRow(i))
	}
	mustExec(t, db, &query.Query{Kind: query.Insert, Table: "sales", Rows: rows})
	for i, l := range chain {
		mustExec(t, db, &query.Query{Kind: query.Insert, Table: "sales",
			Rows: [][]value.Value{salesRow(int64(200 + i))}})
		if err := db.MigrateLayout("sales", l.store, l.spec); err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		want := visibleState(t, db, "sales")
		if err := db.Crash(); err != nil {
			t.Fatal(err)
		}
		var last *wal.Record
		if _, err := wal.Recover(filepath.Join(dir, "wal.log"), func(_ uint64, rec *wal.Record) error {
			if rec.Kind == wal.RecSetLayout && rec.Table == "sales" {
				last = rec
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if last == nil || last.Store != l.store || !last.Spec.Equal(l.spec) {
			t.Fatalf("%s: last SET-LAYOUT record = %+v", l.name, last)
		}
		db = openTestDB(t, dir)
		e := db.Catalog().Table("sales")
		if e == nil || e.Store != l.store || !e.Partitioning.Equal(l.spec) {
			t.Fatalf("%s: reopened layout = %+v", l.name, e)
		}
		if got := visibleState(t, db, "sales"); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reopened %d rows, want %d", l.name, len(got), len(want))
		}
	}
	db.Close()
}

// TestRecoveryAbortsInFlightMigration simulates a crash while a
// MigrateLayout was running: the WAL holds the DML executed during the
// migration but not the swap record (which is only logged after the
// cutover). Recovery must come back in the pre-migration layout with
// every acknowledged write applied.
func TestRecoveryAbortsInFlightMigration(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	if err := db.CreateTable(salesSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 0, 40)
	for i := 0; i < 40; i++ {
		rows = append(rows, salesRow(int64(i)))
	}
	mustExec(t, db, &query.Query{Kind: query.Insert, Table: "sales", Rows: rows})
	// Complete a migration (so the WAL contains its swap record), with a
	// write landing mid-flight in program order.
	mustExec(t, db, &query.Query{Kind: query.Update, Table: "sales",
		Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(5)},
		Set:  map[int]value.Value{2: value.NewDouble(55.5)}})
	if err := db.MigrateLayout("sales", catalog.ColumnStore, nil); err != nil {
		t.Fatal(err)
	}
	want := visibleState(t, db, "sales")
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	// Rebuild the WAL without the swap record and anything after it —
	// the byte image of a crash just before the migration cut over.
	walPath := filepath.Join(dir, "wal.log")
	var recs []*wal.Record
	if _, err := wal.Recover(walPath, func(seq uint64, rec *wal.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	swapAt := -1
	for i, rec := range recs {
		if rec.Kind == wal.RecSetLayout {
			swapAt = i
			break
		}
	}
	if swapAt < 0 {
		t.Fatal("no SET-LAYOUT record logged for the completed migration")
	}
	if err := os.Remove(walPath); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(walPath, 1, 0, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[:swapAt] {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTestDB(t, dir)
	defer re.Close()
	e := re.Catalog().Table("sales")
	if e == nil || e.Store != catalog.RowStore {
		t.Fatalf("in-flight migration not aborted: store %v, want ROW", e.Store)
	}
	if re.Migrating("sales") {
		t.Error("migration reported in flight after recovery")
	}
	if got := visibleState(t, re, "sales"); !reflect.DeepEqual(got, want) {
		t.Fatalf("aborted migration lost data: got %d rows, want %d", len(got), len(want))
	}
}

// TestCheckpointTruncatesWAL checks the checkpoint contract: log folded
// into the snapshot, WAL emptied, and a reopen needs no replay.
func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	if err := db.CreateTable(salesSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 0, 100)
	for i := 0; i < 100; i++ {
		rows = append(rows, salesRow(int64(i)))
	}
	mustExec(t, db, &query.Query{Kind: query.Insert, Table: "sales", Rows: rows})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("WAL is %d bytes after checkpoint, want 0", st.Size())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTestDB(t, dir)
	defer re.Close()
	if n, _ := re.Rows("sales"); n != 100 {
		t.Fatalf("rows after snapshot-only reopen = %d, want 100", n)
	}
}

// TestCheckpointStaleWALNotDoubleApplied covers the crash window between
// the snapshot rename and the log truncate: the stale WAL frames carry
// sequence numbers below the snapshot's cut and must be skipped, not
// re-applied (a double-applied insert would duplicate rows or trip the
// PK check).
func TestCheckpointStaleWALNotDoubleApplied(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	if err := db.CreateTable(salesSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, &query.Query{Kind: query.Insert, Table: "sales",
		Rows: [][]value.Value{salesRow(1), salesRow(2)}})
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	// Preserve the pre-checkpoint WAL bytes.
	walPath := filepath.Join(dir, "wal.log")
	staleWAL, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Reopen (which checkpoints the replayed tail) and cleanly close,
	// then put the stale WAL back — the crash-window image.
	re := openTestDB(t, dir)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, staleWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	re2 := openTestDB(t, dir)
	defer re2.Close()
	if n, _ := re2.Rows("sales"); n != 2 {
		t.Fatalf("rows = %d, want 2 (stale WAL double-applied?)", n)
	}
}

// TestRecoveredColumnTableStartsCompacted closes a column table with rows in
// its delta and reopens it: the snapshot holds the table's rows, not its
// fragments, and the reopened table starts merged with every row.
func TestRecoveredColumnTableStartsCompacted(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	if err := db.CreateTable(salesSchema(), catalog.ColumnStore); err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 0, 200)
	for i := 0; i < 200; i++ {
		rows = append(rows, salesRow(int64(i)))
	}
	mustExec(t, db, &query.Query{Kind: query.Insert, Table: "sales", Rows: rows})
	if err := db.Compact("sales"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, &query.Query{Kind: query.Insert, Table: "sales",
		Rows: [][]value.Value{salesRow(500), salesRow(501), salesRow(502)}})
	if before, err := db.DeltaRows("sales"); err != nil || before != 3 {
		t.Fatalf("delta rows before close = %d (%v), want 3", before, err)
	}
	want := visibleState(t, db, "sales")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTestDB(t, dir)
	defer re.Close()
	if after, err := re.DeltaRows("sales"); err != nil || after != 0 {
		t.Fatalf("delta rows after reopen = %d (%v), want 0", after, err)
	}
	if got := visibleState(t, re, "sales"); !reflect.DeepEqual(got, want) || len(got) != 203 {
		t.Fatalf("reopened table holds %d rows, closed one %d", len(got), len(want))
	}
}

// TestDurableConcurrentWriters drives parallel writers through the
// group-commit path and verifies every acknowledged row survives a
// crash.
func TestDurableConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenOptions(dir, Options{GroupCommit: 16, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(salesSchema(), catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				id := int64(w*1000 + i)
				_, err := db.Exec(&query.Query{Kind: query.Insert, Table: "sales",
					Rows: [][]value.Value{salesRow(id)}})
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	re := openTestDB(t, dir)
	defer re.Close()
	if n, _ := re.Rows("sales"); n != writers*per {
		t.Fatalf("recovered %d rows, want %d", n, writers*per)
	}
}

// TestRecoveryPublishesStatistics reopens a crashed database on every
// layout and asks the planner how many rows a key lookup returns: Open must
// have published statistics, or the estimate falls back to a default
// selectivity of the row count.
func TestRecoveryPublishesStatistics(t *testing.T) {
	for _, lay := range dmlLayouts() {
		t.Run(lay.name, func(t *testing.T) {
			dir := t.TempDir()
			db := openTestDB(t, dir)
			if err := db.CreateTableWithLayout(dmlSchema(), lay.store, lay.spec); err != nil {
				t.Fatal(err)
			}
			rows := make([][]value.Value, 0, 2000)
			for i := 0; i < 2000; i++ {
				rows = append(rows, dmlRow(int64(i)))
			}
			mustExec(t, db, &query.Query{Kind: query.Insert, Table: "dml", Rows: rows})
			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}
			re := openTestDB(t, dir)
			defer re.Close()
			p, err := re.PlanQuery(&query.Query{Kind: query.Select, Table: "dml",
				Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(77)}})
			if err != nil {
				t.Fatal(err)
			}
			if est := p.Root.Estimate().Rows; est < 0.5 || est > 2 {
				t.Errorf("after reopen the planner expects %.1f rows from a key lookup, want 1", est)
			}
		})
	}
}
