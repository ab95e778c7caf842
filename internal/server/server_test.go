package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"hybridstore/internal/catalog"
	"hybridstore/internal/client"
	"hybridstore/internal/engine"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
	"hybridstore/internal/wire"
)

func startServer(t testing.TB, db *engine.Database, cfg Config) *Server {
	t.Helper()
	srv, err := Serve(db, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func shutdown(t testing.TB, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestServerEndToEnd(t *testing.T) {
	srv := startServer(t, engine.New(), Config{})
	defer shutdown(t, srv)
	c, err := client.Dial(srv.Addr().String(), client.Options{Name: "e2e"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, "CREATE TABLE kv (k BIGINT NOT NULL, grp INTEGER, v VARCHAR, PRIMARY KEY (k))"); err != nil {
		t.Fatal(err)
	}
	// Prepared insert with parameters.
	ins, err := c.Prepare(ctx, "INSERT INTO kv VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 3 {
		t.Fatalf("NumParams = %d", ins.NumParams())
	}
	for i := 0; i < 100; i++ {
		res, err := ins.Exec(ctx, value.NewBigint(int64(i)), value.NewBigint(int64(i%4)), value.NewVarchar(fmt.Sprintf("v%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Affected != 1 {
			t.Fatalf("affected = %d", res.Affected)
		}
	}
	// Duplicate key errors surface as SQL errors, not dead sessions.
	if _, err := ins.Exec(ctx, value.NewBigint(7), value.NewBigint(0), value.NewVarchar("dup")); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("session died after statement error: %v", err)
	}

	// Remote ORDER BY + LIMIT with a parameterized predicate.
	res, err := c.Query(ctx, "SELECT k, v FROM kv WHERE grp = ? ORDER BY k DESC LIMIT 3", value.NewBigint(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].Int() != 97 || res.Rows[2][0].Int() != 89 {
		t.Fatalf("ordered rows: %v", res.Rows)
	}
	// Aggregate.
	res, err = c.Query(ctx, "SELECT grp, COUNT(*) FROM kv GROUP BY grp ORDER BY grp")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || res.Rows[0][1].Int() != 25 {
		t.Fatalf("aggregate rows: %v", res.Rows)
	}
	// Update through the one-shot path (cached server-side).
	for i := 0; i < 3; i++ {
		if _, err := c.Exec(ctx, "UPDATE kv SET v = ? WHERE k = ?", value.NewVarchar("upd"), value.NewBigint(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// The three identical one-shot UPDATE texts share one cache entry:
	// one miss, two hits (prepared-statement executions bypass the
	// cache entirely — that is the point of the handle).
	hits, misses := srv.StmtCacheStats()
	if hits < 2 || misses == 0 {
		t.Fatalf("statement cache counters off: hits=%d misses=%d", hits, misses)
	}
	if err := ins.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Statement errors: unknown handle after close.
	if _, err := ins.Exec(ctx, value.NewBigint(1000), value.NewBigint(0), value.NewVarchar("x")); err == nil {
		// Stmt re-prepares transparently after Close, which is also fine.
		t.Log("stmt transparently re-prepared after Close")
	}
}

// analyticsTable loads n rows into a fresh engine directly (no wire
// overhead), so cancellation tests get a scan long enough to hit
// mid-flight even on single-CPU machines where the cancel goroutine is
// scheduled with ~10ms granularity.
func analyticsTable(t testing.TB, n int) *engine.Database {
	t.Helper()
	db := engine.New()
	sch := schema.MustNew("big", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "grp", Type: value.Integer},
		{Name: "x", Type: value.Double},
	}, "id")
	if err := db.CreateTable(sch, catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	batch := make([][]value.Value, 0, 8192)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "big", Rows: batch}); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
	}
	for i := 0; i < n; i++ {
		batch = append(batch, []value.Value{
			value.NewBigint(int64(i)), value.NewInt(int64(i % 32)), value.NewDouble(float64(i) + 0.5),
		})
		if len(batch) == cap(batch) {
			flush()
		}
	}
	flush()
	return db
}

// TestServerOversizedResultRefused: a result past the frame limit gets
// CodeProtocol instead of a frame the client would refuse, and the
// session serves its next statement.
func TestServerOversizedResultRefused(t *testing.T) {
	db := analyticsTable(t, 80_000)
	all, err := db.Exec(&query.Query{Kind: query.Select, Table: "big"})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(wire.EncodeResponse(&wire.Response{Type: wire.MsgRows, Cols: all.Cols, Rows: all.Rows})); n < 900<<10 {
		t.Fatalf("the whole table encodes to only %d bytes", n)
	}
	srv := startServer(t, db, Config{MaxFrame: 64 << 10})
	defer shutdown(t, srv)
	c, err := client.Dial(srv.Addr().String(), client.Options{Name: "oversized", NoReconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	_, err = c.Query(ctx, "SELECT * FROM big")
	var se *client.Error
	if !errors.As(err, &se) || se.Code != wire.CodeProtocol || !strings.Contains(se.Msg, "frame limit (page with LIMIT)") {
		t.Fatalf("oversized result: %v", err)
	}
	res, err := c.Query(ctx, "SELECT id, x FROM big WHERE id = 7")
	if err != nil {
		t.Fatalf("statement after the refused one: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Double() != 7.5 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestServerRefusesOldProtocolVersion: a client of the previous
// protocol version (2, before the cancel connection) gets a protocol
// error naming both versions.
func TestServerRefusesOldProtocolVersion(t *testing.T) {
	srv := startServer(t, engine.New(), Config{})
	defer shutdown(t, srv)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteRequest(conn, &wire.Request{Type: wire.MsgHello, ClientName: "old", Version: 2}); err != nil {
		t.Fatal(err)
	}
	rs, err := readResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("protocol version 2 not supported (server speaks %d)", wire.ProtocolVersion)
	if rs.Type != wire.MsgError || rs.Code != wire.CodeProtocol || rs.Err != want {
		t.Fatalf("hello at version 2: %+v", rs)
	}
}

func TestServerCancelAbortsAnalyticalScan(t *testing.T) {
	db := analyticsTable(t, 1_500_000)
	srv := startServer(t, db, Config{})
	defer shutdown(t, srv)
	c, err := client.Dial(srv.Addr().String(), client.Options{Name: "cancel"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	// Enough aggregates that the scan lasts several scheduler quanta even
	// on two cores: the timing assertion below compares the abort with
	// the full scan, and in this one process the cancel itself needs a
	// core the scan's workers are holding.
	const aggSQL = "SELECT grp, SUM(x), MIN(x), MAX(x), AVG(x), SUM(id), MIN(id), MAX(id), AVG(id), COUNT(*) FROM big WHERE x >= 0 GROUP BY grp"

	// Time an uncancelled analytical scan for scale.
	start := time.Now()
	if _, err := c.Query(ctx, aggSQL); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	// Now cancel it in flight: the client sends a cancel on a connection
	// of its own.
	cctx, cancel := context.WithCancel(ctx)
	go func() {
		time.Sleep(full / 10)
		cancel()
	}()
	start = time.Now()
	_, err = c.Query(cctx, aggSQL)
	aborted := time.Since(start)
	if err == nil {
		t.Skip("query finished before the cancel landed (scan too fast on this machine)")
	}
	if !client.IsCancelled(err) && !errors.Is(err, context.Canceled) {
		t.Fatalf("want cancellation, got %v", err)
	}
	// The abort must land well below the full scan time: one batch
	// boundary is ~1024 rows out of 1.5M, so the only slack we allow is
	// scheduling noise.
	t.Logf("full=%v aborted=%v", full, aborted)
	if aborted > full*3/4 {
		t.Fatalf("cancel did not abort the scan promptly: full=%v aborted=%v", full, aborted)
	}
	// The session survives and serves the next statement.
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	// Server-side statement deadlines: a session that asks for a tiny
	// per-statement timeout gets its scan aborted without any client
	// round trip.
	tc, err := client.Dial(srv.Addr().String(), client.Options{Name: "deadline", StatementTimeout: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	start = time.Now()
	_, err = tc.Query(ctx, aggSQL)
	if err == nil {
		t.Skip("scan beat the 2ms statement deadline")
	}
	if !client.IsCancelled(err) {
		t.Fatalf("want deadline cancellation, got %v", err)
	}
	if d := time.Since(start); d > full*3/4 {
		t.Fatalf("deadline did not abort promptly: %v of %v", d, full)
	}
}

func TestServerAdmissionControl(t *testing.T) {
	srv := startServer(t, engine.New(), Config{MaxSessions: 2})
	defer shutdown(t, srv)
	c1, err := client.Dial(srv.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.Dial(srv.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, err = client.Dial(srv.Addr().String(), client.Options{NoReconnect: true})
	if err == nil {
		t.Fatal("third session admitted past MaxSessions=2")
	}
	var se *client.Error
	if !errors.As(err, &se) {
		t.Fatalf("want a server error, got %v", err)
	}
	// Freeing a slot admits again.
	c1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c3, err := client.Dial(srv.Addr().String(), client.Options{})
		if err == nil {
			c3.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerDrainShutdown(t *testing.T) {
	dir := t.TempDir()
	db, err := engine.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, db, Config{})
	addr := srv.Addr().String()
	c, err := client.Dial(addr, client.Options{NoReconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Exec(ctx, "CREATE TABLE d (k BIGINT NOT NULL, v VARCHAR, PRIMARY KEY (k))"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, "INSERT INTO d VALUES (1, 'one'), (2, 'two')"); err != nil {
		t.Fatal(err)
	}
	shutdown(t, srv)
	// New connections are refused.
	if _, err := client.Dial(addr, client.Options{NoReconnect: true}); err == nil {
		t.Fatal("connection accepted after shutdown")
	}
	// The drain checkpointed through engine.Close: reopening shows the
	// data with an empty WAL tail.
	re, err := engine.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := re.Rows("d")
	if err != nil || n != 2 {
		t.Fatalf("rows after drain+reopen: %d, %v", n, err)
	}
	re.Close()
	c.Close()
}

func TestServerPipelining(t *testing.T) {
	srv := startServer(t, engine.New(), Config{Workers: 2})
	defer shutdown(t, srv)
	c, err := client.Dial(srv.Addr().String(), client.Options{Name: "pipe"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Exec(ctx, "CREATE TABLE p (k BIGINT NOT NULL, v INTEGER, PRIMARY KEY (k))"); err != nil {
		t.Fatal(err)
	}
	// Many goroutines share one connection; requests pipeline and every
	// response matches its request.
	const goroutines = 8
	const perG = 50
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < perG; i++ {
				k := int64(g*perG + i)
				res, err := c.Exec(ctx, "INSERT INTO p VALUES (?, ?)", value.NewBigint(k), value.NewBigint(k%7))
				if err != nil {
					errCh <- fmt.Errorf("insert %d: %w", k, err)
					return
				}
				if res.Affected != 1 {
					errCh <- fmt.Errorf("insert %d: affected %d", k, res.Affected)
					return
				}
			}
			errCh <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Query(ctx, "SELECT COUNT(*) FROM p")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
}

func TestClientReconnectAndRePrepare(t *testing.T) {
	db := engine.New()
	srv := startServer(t, db, Config{})
	addr := srv.Addr().String()
	c, err := client.Dial(addr, client.Options{Name: "re"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Exec(ctx, "CREATE TABLE r (k BIGINT NOT NULL, PRIMARY KEY (k))"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare(ctx, "INSERT INTO r VALUES (?)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(ctx, value.NewBigint(1)); err != nil {
		t.Fatal(err)
	}
	// Restart the server on the same address with the same engine.
	shutdownNoClose := func(s *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx) // closes the (in-memory) engine: only a flag
	}
	shutdownNoClose(srv)
	// The engine's closed flag survives in db; serve a fresh engine and
	// recreate state to prove the client side reconnects cleanly.
	db2 := engine.New()
	rsch := schema.MustNew("r", []schema.Column{{Name: "k", Type: value.Bigint}}, "k")
	if err := db2.CreateTable(rsch, catalog.RowStore); err != nil {
		t.Fatal(err)
	}
	srv2, err := Serve(db2, addr, Config{})
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer shutdown(t, srv2)

	// The first call after the outage may fail (connection lost mid-air
	// is reported, not retried, for write safety); the one after must
	// transparently redial and re-prepare.
	var ok bool
	for attempt := 0; attempt < 5; attempt++ {
		if _, err := st.Exec(ctx, value.NewBigint(int64(10+attempt))); err == nil {
			ok = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !ok {
		t.Fatal("prepared statement never recovered after reconnect")
	}
	n, err := db2.Rows("r")
	if err != nil || n == 0 {
		t.Fatalf("rows after reconnect: %d, %v", n, err)
	}
}
