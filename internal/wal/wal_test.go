package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

func testSchema(t testing.TB) *schema.Table {
	t.Helper()
	return schema.MustNew("orders", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "region", Type: value.Varchar, Nullable: true},
		{Name: "amount", Type: value.Double, Nullable: true},
		{Name: "day", Type: value.Date},
	}, "id")
}

func TestValueRoundTrip(t *testing.T) {
	vals := []value.Value{
		value.NewInt(-42),
		value.NewBigint(1 << 60),
		value.NewDouble(3.25),
		value.NewDouble(-0.0),
		value.NewVarchar(""),
		value.NewVarchar("héllo"),
		value.NewDate(19000),
		value.Null(value.Integer),
		value.Null(value.Varchar),
		value.Null(value.Double),
	}
	e := NewEncoder()
	for _, v := range vals {
		e.Value(v)
	}
	d := NewDecoder(e.Bytes())
	for i, want := range vals {
		got := d.Value()
		if !value.Equal(got, want) || got.Type() != want.Type() {
			t.Fatalf("value %d: got %v (%s), want %v (%s)", i, got, got.Type(), want, want.Type())
		}
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over", d.Remaining())
	}
}

// liveRecords is one record of each kind the log writes, a table keyed by
// the hidden row key among them.
func liveRecords(t testing.TB) []*Record {
	sch := testSchema(t)
	keyless := schema.MustNew("notes", []schema.Column{{Name: "msg", Type: value.Varchar, Nullable: true}})
	spec := &catalog.PartitionSpec{
		Horizontal: &catalog.HorizontalSpec{
			SplitCol: 3, SplitVal: value.NewDate(15000),
			HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
		},
		Vertical: &catalog.VerticalSpec{RowCols: []int{0, 1}, ColCols: []int{0, 2, 3}},
	}
	rows := [][]value.Value{
		{value.NewBigint(1), value.NewVarchar("eu"), value.NewDouble(10), value.NewDate(100)},
		{value.NewBigint(2), value.Null(value.Varchar), value.Null(value.Double), value.NewDate(200)},
	}
	return []*Record{
		{Kind: RecCreateTable, Table: "orders", Schema: sch, Store: catalog.Partitioned, Spec: spec},
		{Kind: RecCreateTable, Table: "notes", Schema: keyless, Store: catalog.RowStore},
		{Kind: RecDropTable, Table: "orders"},
		{Kind: RecCreateIndex, Table: "orders", Col: 1},
		{Kind: RecSetLayout, Table: "orders", Store: catalog.ColumnStore},
		{Kind: RecInsert, Table: "orders", Width: 4, Rows: rows},
		{Kind: RecTxnCommit, Txn: []TxnTable{
			{Name: "orders", Width: 4, PKWidth: 1, DelPKs: [][]value.Value{{value.NewBigint(3)}}, Rows: rows},
			{Name: "notes", Width: 2, PKWidth: 1, DelPKs: [][]value.Value{{value.NewBigint(7)}}, Rows: [][]value.Value{{value.NewVarchar("hi"), value.NewBigint(7)}}},
		}},
		{Kind: RecCopy, Table: "orders", Width: 4, Rows: rows[:1]},
		// Sections with no rows are far shorter than the table is wide.
		{Kind: RecInsert, Table: "orders", Width: 4, Rows: [][]value.Value{}},
		{Kind: RecCopy, Table: "orders", Width: 4, Rows: [][]value.Value{}},
		{Kind: RecTxnCommit, Txn: []TxnTable{
			{Name: "wide", Width: 30, PKWidth: 1, DelPKs: [][]value.Value{{value.NewBigint(1)}}, Rows: [][]value.Value{}},
			{Name: "orders", Width: 4, PKWidth: 1, DelPKs: [][]value.Value{}, Rows: [][]value.Value{}},
		}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for i, rec := range liveRecords(t) {
		e := NewEncoder()
		rec.encode(e)
		d := NewDecoder(e.Bytes())
		got, err := decodeRecord(d)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Kind != rec.Kind || got.Table != rec.Table || got.Col != rec.Col || got.Store != rec.Store {
			t.Fatalf("record %d: header mismatch: %+v vs %+v", i, got, rec)
		}
		if (rec.Spec == nil) != (got.Spec == nil) || (rec.Spec != nil && got.Spec.String() != rec.Spec.String()) {
			t.Fatalf("record %d: spec mismatch", i)
		}
		if rec.Schema != nil {
			// A schema keyed by the hidden row key names it as its key, so
			// decoding does not add a second one.
			if got.Schema == nil || got.Schema.Name != rec.Schema.Name ||
				!reflect.DeepEqual(got.Schema.Columns, rec.Schema.Columns) ||
				!reflect.DeepEqual(got.Schema.PrimaryKey, rec.Schema.PrimaryKey) {
				t.Fatalf("record %d: schema mismatch: %+v vs %+v", i, got.Schema, rec.Schema)
			}
		}
		if !reflect.DeepEqual(got.Rows, rec.Rows) || !reflect.DeepEqual(got.Txn, rec.Txn) {
			t.Fatalf("record %d: rows mismatch", i)
		}
	}
}

// TestPredicateRoundTrip checks that UPDATE and DELETE by predicate, kinds
// 6 and 7, no longer decode and that the refusal names them. It also pins
// the numbers of the kinds after them and refuses a commit for a table
// without a primary key, which no build writes any more.
func TestPredicateRoundTrip(t *testing.T) {
	if RecTxnCommit != 8 || RecCopy != 9 {
		t.Fatalf("record kinds renumbered: TXN-COMMIT %d, COPY %d", RecTxnCommit, RecCopy)
	}
	for _, kind := range []byte{6, 7} {
		e := NewEncoder()
		e.Byte(kind)
		e.String("t")
		_, err := decodeRecord(NewDecoder(e.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "by predicate") {
			t.Fatalf("kind %d: got %v, want a retired-kind error", kind, err)
		}
	}
	e := NewEncoder()
	(&Record{Kind: RecTxnCommit, Txn: []TxnTable{{Name: "t", Width: 1, Rows: [][]value.Value{{value.NewInt(1)}}}}}).encode(e)
	_, err := decodeRecord(NewDecoder(e.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "pk width 0") {
		t.Fatalf("commit with PKWidth 0: got %v, want a no-primary-key error", err)
	}
}

// FuzzDecodeRecord asserts the record decoder never panics on a corrupt
// frame and that a record it accepts re-encodes and decodes to the same
// record.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range liveRecords(f) {
		e := NewEncoder()
		rec.encode(e)
		f.Add(e.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(NewDecoder(data))
		if err != nil {
			return
		}
		e := NewEncoder()
		rec.encode(e)
		again, err := decodeRecord(NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of a valid %s record failed: %v", rec.Kind, err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("%s record changed in a round trip:\n%+v\n%+v", rec.Kind, rec, again)
		}
	})
}

func insertRec(id int64) *Record {
	return &Record{Kind: RecInsert, Table: "t", Width: 1,
		Rows: [][]value.Value{{value.NewBigint(id)}}}
}

func TestAppendRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, 1, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := l.Append(insertRec(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	var ids []int64
	info, err := Recover(path, func(seq uint64, rec *Record) error {
		seqs = append(seqs, seq)
		ids = append(ids, rec.Rows[0][0].Int())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != n || info.MaxSeq != n {
		t.Fatalf("recovered %d records, maxSeq %d; want %d", info.Records, info.MaxSeq, n)
	}
	for i := range seqs {
		if seqs[i] != uint64(i+1) || ids[i] != int64(i) {
			t.Fatalf("record %d: seq %d id %d", i, seqs[i], ids[i])
		}
	}
	st, _ := os.Stat(path)
	if info.ValidLen != st.Size() {
		t.Fatalf("validLen %d != file size %d", info.ValidLen, st.Size())
	}
}

func TestRecoverTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, 1, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(insertRec(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop bytes off the tail: every truncation point must recover a
	// clean prefix, never error.
	for cut := 1; cut < 30; cut++ {
		torn := filepath.Join(t.TempDir(), "torn.log")
		if err := os.WriteFile(torn, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := Recover(torn, nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if info.Records >= 10 || info.Records < 5 {
			t.Fatalf("cut %d: recovered %d records", cut, info.Records)
		}
	}
	// Flip a byte mid-file: replay stops at the corrupt frame.
	flipped := append([]byte(nil), data...)
	flipped[len(data)/2] ^= 0xff
	corrupt := filepath.Join(t.TempDir(), "corrupt.log")
	if err := os.WriteFile(corrupt, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := Recover(corrupt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records >= 10 {
		t.Fatalf("corrupt mid-file frame not detected (%d records)", info.Records)
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, 1, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(insertRec(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-3], 0o644) // tear the last frame
	info, err := Recover(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 4 {
		t.Fatalf("recovered %d records, want 4", info.Records)
	}
	// Reopen at the valid prefix and append: the torn frame must not
	// shadow the new one.
	l, err = Open(path, info.MaxSeq+1, info.ValidLen, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(insertRec(99)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	var ids []int64
	info, err = Recover(path, func(seq uint64, rec *Record) error {
		ids = append(ids, rec.Rows[0][0].Int())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 5 || ids[4] != 99 || info.MaxSeq != 5 {
		t.Fatalf("after reopen: %d records, ids %v, maxSeq %d", info.Records, ids, info.MaxSeq)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, 1, 0, Options{MaxBatch: 32})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(insertRec(int64(w*per + i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	info, err := Recover(path, func(seq uint64, rec *Record) error {
		seen[rec.Rows[0][0].Int()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != writers*per || len(seen) != writers*per {
		t.Fatalf("recovered %d records (%d distinct), want %d", info.Records, len(seen), writers*per)
	}
}

func TestReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, 1, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(insertRec(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	// Sequence numbers keep rising across the reset.
	if got := l.NextSeq(); got != 6 {
		t.Fatalf("NextSeq after reset = %d, want 6", got)
	}
	if err := l.Append(insertRec(7)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	info, err := Recover(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 1 || info.MaxSeq != 6 {
		t.Fatalf("after reset: %d records, maxSeq %d", info.Records, info.MaxSeq)
	}
}

func TestEnqueueWaitSplit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, 1, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for i := 0; i < 3; i++ {
		seq, err := l.Enqueue(insertRec(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	for _, s := range seqs {
		if err := l.WaitDurable(s); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	info, err := Recover(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 3 {
		t.Fatalf("recovered %d records, want 3", info.Records)
	}
}
