package server

import (
	"context"
	"strings"
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/client"
	"hybridstore/internal/engine"
	"hybridstore/internal/value"
)

// TestTxnEndToEnd drives multi-statement transactions over the wire:
// visibility across sessions, conflict surfacing as a retryable error,
// and the session staying usable through commit/rollback cycles.
func TestTxnEndToEnd(t *testing.T) {
	srv := startServer(t, engine.New(), Config{})
	defer shutdown(t, srv)
	ctx := context.Background()
	c1, err := client.Dial(srv.Addr().String(), client.Options{Name: "txn-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.Dial(srv.Addr().String(), client.Options{Name: "txn-2"})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	if _, err := c1.Exec(ctx, "CREATE TABLE kv (k BIGINT NOT NULL, v BIGINT, PRIMARY KEY (k))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c1.Exec(ctx, "INSERT INTO kv VALUES (?, ?)",
			value.NewBigint(int64(i)), value.NewBigint(0)); err != nil {
			t.Fatal(err)
		}
	}

	count := func(c *client.Conn) int {
		t.Helper()
		res, err := c.Query(ctx, "SELECT k FROM kv")
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}

	// Uncommitted writes are invisible to the other session; commit
	// publishes them atomically.
	tx, err := c1.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, "INSERT INTO kv VALUES (10, 1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, "UPDATE kv SET v = 5 WHERE k = 0"); err != nil {
		t.Fatal(err)
	}
	res, err := tx.Query(ctx, "SELECT v FROM kv WHERE k = 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 5 {
		t.Fatalf("txn does not see its own write: %v", res.Rows[0][0])
	}
	if n := count(c2); n != 4 {
		t.Fatalf("uncommitted insert leaked: other session sees %d rows", n)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if n := count(c2); n != 5 {
		t.Fatalf("after commit: other session sees %d rows", n)
	}

	// Rollback discards everything and the session keeps working.
	tx, err = c1.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, "DELETE FROM kv WHERE k = 10"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	if n := count(c1); n != 5 {
		t.Fatalf("rollback lost rows: %d", n)
	}

	// Write-write conflict: exactly one winner, the loser gets a
	// retryable CodeTxnConflict and its transaction is gone.
	txA, err := c1.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	txB, err := c2.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txA.Exec(ctx, "UPDATE kv SET v = 100 WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	_, errB := txB.Exec(ctx, "UPDATE kv SET v = 200 WHERE k = 1")
	if !client.IsRetryable(errB) {
		t.Fatalf("conflicting update: got %v, want retryable txn conflict", errB)
	}
	// The aborted transaction rejects further statements until rolled back.
	if _, err := txB.Exec(ctx, "SELECT k FROM kv"); err == nil {
		t.Fatal("statement accepted inside an aborted transaction")
	}
	if err := txB.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	if err := txA.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	res, err = c2.Query(ctx, "SELECT v FROM kv WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("winner's write lost: v = %v", res.Rows[0][0])
	}

	// Both sessions stay healthy for plain statements afterwards.
	if err := c1.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestTxnStatementRules pins the session-level transaction-control
// contract: BEGIN nesting, COMMIT outside a transaction, bare ROLLBACK,
// and DDL (CREATE and ALTER TABLE) inside a transaction.
func TestTxnStatementRules(t *testing.T) {
	srv := startServer(t, engine.New(), Config{})
	defer shutdown(t, srv)
	ctx := context.Background()
	c, err := client.Dial(srv.Addr().String(), client.Options{Name: "txn-rules"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(ctx, "CREATE TABLE kv (k BIGINT NOT NULL, v BIGINT, PRIMARY KEY (k))"); err != nil {
		t.Fatal(err)
	}

	// ROLLBACK outside a transaction is a harmless no-op.
	if _, err := c.Exec(ctx, "ROLLBACK"); err != nil {
		t.Fatalf("bare ROLLBACK: %v", err)
	}
	// COMMIT outside a transaction is an error.
	if _, err := c.Exec(ctx, "COMMIT"); err == nil {
		t.Fatal("COMMIT outside a transaction accepted")
	}

	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Nested BEGIN is rejected without killing the open transaction.
	if _, err := tx.Exec(ctx, "BEGIN"); err == nil {
		t.Fatal("nested BEGIN accepted")
	}
	// DDL inside a transaction is rejected; the transaction survives.
	if _, err := tx.Exec(ctx, "CREATE TABLE t2 (k BIGINT NOT NULL, PRIMARY KEY (k))"); err == nil {
		t.Fatal("DDL inside a transaction accepted")
	} else if !strings.Contains(err.Error(), "transaction") {
		t.Fatalf("DDL rejection message: %v", err)
	}
	if _, err := tx.Exec(ctx, "ALTER TABLE kv MOVE TO COLUMN STORE"); err == nil {
		t.Fatal("ALTER TABLE inside a transaction accepted")
	} else if !strings.Contains(err.Error(), "transaction") {
		t.Fatalf("ALTER TABLE rejection message: %v", err)
	}
	if store := srv.db.Catalog().Table("kv").Store; store != catalog.RowStore {
		t.Fatalf("a refused ALTER TABLE moved kv to the %s store", store)
	}
	if _, err := tx.Exec(ctx, "INSERT INTO kv VALUES (1, 1)"); err != nil {
		t.Fatalf("transaction unusable after rejected statements: %v", err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(ctx, "SELECT k FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("committed insert missing: %d rows", len(res.Rows))
	}

	// An empty transaction commits cleanly.
	tx, err = c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("empty commit: %v", err)
	}

	// Begin while a transaction is open on the same conn is a client error.
	tx, err = c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(ctx); err == nil {
		t.Fatal("second Begin on one connection accepted")
	}
	if err := tx.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
}
