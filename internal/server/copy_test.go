package server

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"hybridstore/internal/client"
	"hybridstore/internal/engine"
	"hybridstore/internal/value"
	"hybridstore/internal/wire"
)

// TestCopyEndToEnd drives the bulk-ingest path over TCP: the streaming
// driver API, the COPY SQL statement, duplicate-key rejection, and the
// typed unsupported error for COPY inside a transaction.
func TestCopyEndToEnd(t *testing.T) {
	srv := startServer(t, engine.New(), Config{})
	defer shutdown(t, srv)
	c, err := client.Dial(srv.Addr().String(), client.Options{Name: "copy-e2e"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if _, err := c.Exec(ctx, "CREATE TABLE kv (k BIGINT NOT NULL, grp INTEGER, v VARCHAR, PRIMARY KEY (k))"); err != nil {
		t.Fatal(err)
	}

	// Streaming driver API: enough rows to flush several frames.
	const n = 10000
	cp, err := c.CopyIn(ctx, "kv", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := cp.Send(value.NewBigint(int64(i)), value.NewBigint(int64(i%7)), value.NewVarchar(fmt.Sprintf("v%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	total, err := cp.Close()
	if err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Fatalf("CopyIn acknowledged %d rows, want %d", total, n)
	}
	res, err := c.Query(ctx, "SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != n {
		t.Fatalf("COUNT(*) = %d after CopyIn, want %d", got, n)
	}
	// Close is idempotent and keeps reporting the same outcome.
	if again, err := cp.Close(); err != nil || again != n {
		t.Fatalf("second Close = (%d, %v)", again, err)
	}

	// The COPY SQL statement takes the same fast path.
	r, err := c.Exec(ctx, "COPY kv FROM VALUES (100000, 1, 'a'), (100001, 2, 'b')")
	if err != nil {
		t.Fatal(err)
	}
	if r.Affected != 2 {
		t.Fatalf("COPY affected %d rows, want 2", r.Affected)
	}

	// A duplicate primary key rejects the whole batch atomically.
	if _, err := c.Exec(ctx, "COPY kv FROM VALUES (200000, 1, 'x'), (0, 1, 'dup')"); err == nil {
		t.Fatal("duplicate key in a COPY batch was accepted")
	}
	res, err = c.Query(ctx, "SELECT COUNT(*) FROM kv WHERE k = 200000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 0 {
		t.Fatal("failed COPY batch applied some of its rows")
	}

	// COPY inside an explicit transaction is a typed unsupported error —
	// on both the statement path and the dedicated frame path — and the
	// session survives it.
	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tx.Exec(ctx, "COPY kv FROM VALUES (300000, 1, 'y')")
	var se *client.Error
	if !errors.As(err, &se) || se.Code != wire.CodeUnsupported {
		t.Fatalf("COPY statement inside txn: got %v, want CodeUnsupported", err)
	}
	if err := tx.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	tx, err = c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := c.CopyIn(ctx, "kv", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp2.Send(value.NewBigint(300001), value.NewBigint(1), value.NewVarchar("z")); err != nil {
		t.Fatal(err)
	}
	if _, err := cp2.Close(); !errors.As(err, &se) || se.Code != wire.CodeUnsupported {
		t.Fatalf("copy frame inside txn: got %v, want CodeUnsupported", err)
	}
	if err := tx.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("session died after rejected COPY: %v", err)
	}
}

// TestHiddenRowKeyOverWire drives a table declared without a primary key
// over TCP: result columns and rows of SELECT * (single table and join)
// carry only the declared columns, INSERT takes the declared arity and
// no more, and CopyIn streams rows of declared width.
func TestHiddenRowKeyOverWire(t *testing.T) {
	srv := startServer(t, engine.New(), Config{})
	defer shutdown(t, srv)
	c, err := client.Dial(srv.Addr().String(), client.Options{Name: "rowkey"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for _, stmt := range []string{
		"CREATE TABLE note (msg VARCHAR, n INTEGER)",
		"CREATE TABLE tag (n INTEGER, label VARCHAR)",
		"INSERT INTO note VALUES ('a', 1), ('a', 1)",
		"INSERT INTO tag VALUES (1, 'one')",
	} {
		if _, err := c.Exec(ctx, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	if _, err := c.Exec(ctx, "INSERT INTO note VALUES ('b', 2, 3)"); err == nil {
		t.Fatal("INSERT with a value for the hidden key accepted")
	}
	cp, err := c.CopyIn(ctx, "note", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Send(value.NewVarchar("c"), value.NewInt(3)); err != nil {
		t.Fatal(err)
	}
	if n, err := cp.Close(); err != nil || n != 1 {
		t.Fatalf("CopyIn of a declared-width row: %d, %v", n, err)
	}
	for q, want := range map[string][]string{
		"SELECT * FROM note":                            {"msg", "n"},
		"SELECT * FROM note JOIN tag ON note.n = tag.n": {"note.msg", "note.n", "tag.n", "tag.label"},
	} {
		res, err := c.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if fmt.Sprint(res.Cols) != fmt.Sprint(want) || len(res.Rows) == 0 {
			t.Fatalf("%s: columns %v (%d rows), want %v", q, res.Cols, len(res.Rows), want)
		}
		for _, row := range res.Rows {
			if len(row) != len(want) {
				t.Fatalf("%s: row %v has %d values, want %d", q, row, len(row), len(want))
			}
		}
	}
}
