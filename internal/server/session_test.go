package server

import (
	"context"
	"io"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"hybridstore/internal/catalog"
	"hybridstore/internal/client"
	"hybridstore/internal/engine"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
	"hybridstore/internal/wire"
	"hybridstore/internal/workload"
)

// rawSession opens a session on the bare wire and returns its Welcome.
func rawSession(t *testing.T, addr string) (net.Conn, *wire.Response) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	rs := rawCall(t, conn, &wire.Request{Type: wire.MsgHello, ClientName: "raw", Version: wire.ProtocolVersion})
	if rs.Type != wire.MsgWelcome {
		t.Fatalf("hello: %+v", rs)
	}
	return conn, rs
}

func rawCall(t *testing.T, conn net.Conn, rq *wire.Request) *wire.Response {
	t.Helper()
	if err := wire.WriteRequest(conn, rq); err != nil {
		t.Fatal(err)
	}
	rs, err := readResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// rawCancel sends one cancel on a connection of its own and waits for
// the server to close it, which it does once the cancel is applied.
func rawCancel(t *testing.T, addr string, session, key, seq uint64) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteRequest(conn, &wire.Request{Type: wire.MsgCancel, Session: session, Key: key, Seq: seq}); err != nil {
		t.Fatal(err)
	}
	if rest, err := io.ReadAll(conn); err != nil || len(rest) != 0 {
		t.Fatalf("cancel connection answered %q, %v", rest, err)
	}
}

// readResponse reads and decodes one response frame.
func readResponse(r io.Reader) (*wire.Response, error) {
	frame, err := wire.ReadFrame(r, nil, 0)
	if err != nil {
		return nil, err
	}
	return wire.DecodeResponse(frame)
}

func execRq(sql string) *wire.Request { return &wire.Request{Type: wire.MsgExec, SQL: sql} }

// TestServerCancelFinishedRequestIgnored: a cancel that names a request
// which has finished (it lands as its statement completes) leaves the
// session's next statement alone.
func TestServerCancelFinishedRequestIgnored(t *testing.T) {
	srv := startServer(t, engine.New(), Config{})
	defer shutdown(t, srv)
	addr := srv.Addr().String()
	conn, w := rawSession(t, addr)
	if rs := rawCall(t, conn, execRq("CREATE TABLE c (k BIGINT, PRIMARY KEY (k))")); rs.Type != wire.MsgOK { // request 1
		t.Fatalf("create: %+v", rs)
	}
	rawCancel(t, addr, w.Session, w.Key, 1)
	if rs := rawCall(t, conn, execRq("INSERT INTO c VALUES (1)")); rs.Type != wire.MsgOK || rs.Affected != 1 { // request 2
		t.Fatalf("statement after a cancel of a finished one: %+v", rs)
	}
}

// TestServerCancelUnreadRequest: a cancel that names a request the
// session has not read yet cancels it at its start, and only it.
func TestServerCancelUnreadRequest(t *testing.T) {
	srv := startServer(t, engine.New(), Config{})
	defer shutdown(t, srv)
	addr := srv.Addr().String()
	conn, w := rawSession(t, addr)
	rawCancel(t, addr, w.Session, w.Key, 1)
	if rs := rawCall(t, conn, execRq("CREATE TABLE c (k BIGINT, PRIMARY KEY (k))")); rs.Type != wire.MsgError || rs.Code != wire.CodeCancelled { // request 1
		t.Fatalf("cancelled before it was read: %+v", rs)
	}
	if rs := rawCall(t, conn, execRq("CREATE TABLE c (k BIGINT, PRIMARY KEY (k))")); rs.Type != wire.MsgOK { // request 2
		t.Fatalf("the request after the cancelled one: %+v", rs)
	}
}

// TestServerCancelWrongKey: a cancel whose key is not the session's, or
// that names another session, cancels nothing.
func TestServerCancelWrongKey(t *testing.T) {
	srv := startServer(t, engine.New(), Config{})
	defer shutdown(t, srv)
	addr := srv.Addr().String()
	conn, w := rawSession(t, addr)
	rawCancel(t, addr, w.Session, w.Key+1, 1)
	rawCancel(t, addr, w.Session+1, w.Key, 1)
	if rs := rawCall(t, conn, execRq("CREATE TABLE c (k BIGINT, PRIMARY KEY (k))")); rs.Type != wire.MsgOK {
		t.Fatalf("a cancel with a wrong key cancelled: %+v", rs)
	}
}

// TestServerProtocolErrorAfterOwedReplies: a garbage frame pipelined
// behind a Ping gets the Pong first, then a protocol error, then the
// connection closes.
func TestServerProtocolErrorAfterOwedReplies(t *testing.T) {
	srv := startServer(t, engine.New(), Config{})
	defer shutdown(t, srv)
	conn, _ := rawSession(t, srv.Addr().String())
	frames := wire.AppendRequest(nil, &wire.Request{Type: wire.MsgPing})
	frames = append(frames, 1, 0, 0, 0, 0x7F) // a one-byte frame of an unknown type
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	for _, want := range []byte{wire.MsgPong, wire.MsgError} {
		rs, err := readResponse(conn)
		if err != nil || rs.Type != want || (want == wire.MsgError && rs.Code != wire.CodeProtocol) {
			t.Fatalf("want type 0x%02x, got %+v, %v", want, rs, err)
		}
	}
	if _, err := readResponse(conn); err != io.EOF {
		t.Fatalf("the connection stayed open: %v", err)
	}
}

// TestServerOneGoroutinePerSession: each connection that has made a
// round trip costs the process one goroutine, its server session; the
// client runs none.
func TestServerOneGoroutinePerSession(t *testing.T) {
	srv := startServer(t, engine.New(), Config{})
	defer shutdown(t, srv)
	const n = 8
	// Goroutines of earlier tests may still be exiting: retry until the
	// count holds still across the dials.
	for attempt := 0; ; attempt++ {
		base := runtime.NumGoroutine()
		conns := make([]*client.Conn, n)
		for i := range conns {
			c, err := client.Dial(srv.Addr().String(), client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Ping(context.Background()); err != nil {
				t.Fatal(err)
			}
			conns[i] = c
		}
		added := runtime.NumGoroutine() - base
		for _, c := range conns {
			c.Close()
		}
		for deadline := time.Now().Add(5 * time.Second); srv.Sessions() > 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if added == n {
			return
		}
		if attempt == 20 {
			t.Fatalf("%d connections added %d goroutines", n, added)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// BenchmarkPointRoundTrip measures one client's round trips through an
// in-process server: a Ping, and a prepared key SELECT on a 10 000-row
// column table. allocs/op counts both sides.
func BenchmarkPointRoundTrip(b *testing.B) {
	db := engine.New()
	sch := schema.MustNew("pt", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "grp", Type: value.Integer},
		{Name: "x", Type: value.Double},
	}, "id")
	if err := db.CreateTable(sch, catalog.ColumnStore); err != nil {
		b.Fatal(err)
	}
	const rows = 10_000
	batch := make([][]value.Value, rows)
	for i := range batch {
		batch[i] = []value.Value{value.NewBigint(int64(i)), value.NewInt(int64(i % 32)), value.NewDouble(float64(i) + 0.5)}
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "pt", Rows: batch}); err != nil {
		b.Fatal(err)
	}
	srv := startServer(b, db, Config{})
	defer shutdown(b, srv)
	c, err := client.Dial(srv.Addr().String(), client.Options{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	b.Run("ping", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := c.Ping(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared_point", func(b *testing.B) {
		st, err := c.Prepare(ctx, "SELECT id, grp, x FROM pt WHERE id = ?")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			res, err := st.Exec(ctx, value.NewBigint(int64(i*7919%rows)))
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 1 {
				b.Fatalf("%d rows", len(res.Rows))
			}
			i++
		}
	})
}

// BenchmarkPartitionedAggregateRoundTrip is olap_scan's group_part class
// through an in-process server: GROUP BY g1, SUM(k0), AVG(k3) over 30 000
// rows of workload.StandardTable in the layout the benchmark advises —
// the newest tenth whole in the row store, the rest split vertically with
// k0 and k1 row-oriented. The session holds a pool slot while its
// statement runs, so the statement's loops get only what the pool has
// left, as on a server; an in-process aggregate, on a free pool, cannot
// show a loop that runs short of workers.
func BenchmarkPartitionedAggregateRoundTrip(b *testing.B) {
	const rows = 30_000
	spec := workload.StandardTable("tp")
	rowCols, colCols := append([]int{0}, spec.OLTPAttrs...), []int{0}
	for c := 1; c < spec.Schema.NumColumns(); c++ {
		if !slices.Contains(spec.OLTPAttrs, c) {
			colCols = append(colCols, c)
		}
	}
	db := engine.New()
	if err := spec.LoadLayout(db, catalog.Partitioned, &catalog.PartitionSpec{
		Horizontal: &catalog.HorizontalSpec{SplitCol: 0, SplitVal: value.NewBigint(rows * 9 / 10),
			HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore},
		Vertical: &catalog.VerticalSpec{RowCols: rowCols, ColCols: colCols},
	}, rows, 2012); err != nil {
		b.Fatal(err)
	}
	srv := startServer(b, db, Config{})
	defer shutdown(b, srv)
	c, err := client.Dial(srv.Addr().String(), client.Options{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	st, err := c.Prepare(ctx, "SELECT g1, SUM(k0), AVG(k3) FROM tp GROUP BY g1")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		res, err := st.Exec(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 20 {
			b.Fatalf("%d groups, want 20", len(res.Rows))
		}
	}
}
