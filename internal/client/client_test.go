package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"hybridstore/internal/value"
	"hybridstore/internal/wire"
)

// fakeServer accepts one connection and serves scripted responses: it
// answers Hello with Welcome and every other request via respond.
func fakeServer(t *testing.T, respond func(rq *wire.Request) *wire.Response) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					rq, err := readRequest(conn)
					if err != nil {
						return
					}
					var rs *wire.Response
					if rq.Type == wire.MsgHello {
						rs = &wire.Response{Type: wire.MsgWelcome, Session: 1}
					} else if rq.Type == wire.MsgQuit {
						return
					} else if rs = respond(rq); rs == nil {
						return // a cancel connection: one frame, no reply
					}
					if err := wire.WriteResponse(conn, rs); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// readRequest reads and decodes one request frame.
func readRequest(r io.Reader) (*wire.Request, error) {
	frame, err := wire.ReadFrame(r, nil, 0)
	if err != nil {
		return nil, err
	}
	return wire.DecodeRequest(frame)
}

func TestClientRoundTripAndErrorMapping(t *testing.T) {
	addr := fakeServer(t, func(rq *wire.Request) *wire.Response {
		switch rq.Type {
		case wire.MsgPing:
			return &wire.Response{Type: wire.MsgPong}
		case wire.MsgExec:
			if rq.SQL == "boom" {
				return &wire.Response{Type: wire.MsgError, Code: wire.CodeSQL, Err: "sql: boom"}
			}
			if rq.SQL == "slow" {
				return &wire.Response{Type: wire.MsgError, Code: wire.CodeCancelled, Err: "cancelled"}
			}
			return &wire.Response{Type: wire.MsgRows, Affected: 1,
				Cols: []string{"x"}, Rows: [][]value.Value{{value.NewInt(7)}}}
		default:
			return &wire.Response{Type: wire.MsgOK}
		}
	})
	c, err := Dial(addr, Options{Name: "unit"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(ctx, "ok")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
		t.Fatalf("rows: %v", res.Rows)
	}
	_, err = c.Exec(ctx, "boom")
	var se *Error
	if !errors.As(err, &se) || se.Code != wire.CodeSQL || IsCancelled(err) {
		t.Fatalf("sql error mapping: %v", err)
	}
	_, err = c.Exec(ctx, "slow")
	if !IsCancelled(err) {
		t.Fatalf("cancellation mapping: %v", err)
	}
}

func TestClientPipelineOrdering(t *testing.T) {
	// Responses echo the request's parameter so ordering mismatches are
	// visible. "hold" is answered only once release is closed.
	holding, release := make(chan struct{}, 1), make(chan struct{})
	cancels := make(chan uint64, 1)
	addr := fakeServer(t, func(rq *wire.Request) *wire.Response {
		switch {
		case rq.Type == wire.MsgCancel:
			cancels <- rq.Seq
			return nil
		case rq.SQL == "hold":
			holding <- struct{}{}
			<-release
		}
		return &wire.Response{Type: wire.MsgRows, Cols: []string{"p"},
			Rows: [][]value.Value{{rq.Params[0]}}}
	})
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 100; i++ {
				want := int64(g*1000 + i)
				res, err := c.Exec(ctx, "echo", value.NewBigint(want))
				if err != nil {
					done <- err
					return
				}
				if got := res.Rows[0][0].Int(); got != want {
					done <- errors.New("response matched to the wrong request")
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// A caller whose context ends while it holds the read token, with
	// another goroutine's call pipelined behind it: the caller's cancel
	// names its own request, and both calls return their own replies.
	c2, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.mu.Lock()
	ln := c2.ln
	c2.mu.Unlock()
	echo := func(ctx context.Context, sql string, want int64, out chan<- error) {
		res, err := c2.Exec(ctx, sql, value.NewBigint(want))
		if err == nil && res.Rows[0][0].Int() != want {
			err = fmt.Errorf("%s got the reply %v", sql, res.Rows[0][0])
		}
		out <- err
	}
	hctx, cancel := context.WithCancel(ctx)
	heldDone, behindDone := make(chan error, 1), make(chan error, 1)
	go echo(hctx, "hold", 1, heldDone)
	<-holding
	waitFor(t, "the held call to take the read token", func() bool { return len(ln.token) == 1 })
	go echo(ctx, "echo", 2, behindDone)
	waitFor(t, "a call pipelined behind it", func() bool { return len(ln.pending) == 2 })
	cancel()
	select {
	case seq := <-cancels:
		if seq != 1 {
			t.Fatalf("the cancel named request %d, want 1 (the first after Hello)", seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no cancel was sent")
	}
	close(release)
	if err := <-heldDone; err != nil {
		t.Fatalf("cancelled caller: %v", err)
	}
	if err := <-behindDone; err != nil {
		t.Fatalf("caller behind it: %v", err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestClientConnectionLostSurfaces(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Welcome, then die mid-conversation.
		rq, _ := readRequest(conn)
		if rq != nil && rq.Type == wire.MsgHello {
			wire.WriteResponse(conn, &wire.Response{Type: wire.MsgWelcome, Session: 1})
		}
		readRequest(conn) // swallow the next request...
		conn.Close()      // ...and cut the connection
	}()
	c, err := Dial(ln.Addr().String(), Options{NoReconnect: true, DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Exec(ctx, "anything"); err == nil {
		t.Fatal("lost connection did not surface")
	}
	// With NoReconnect the next call fails fast instead of redialing.
	if _, err := c.Exec(ctx, "anything"); err == nil {
		t.Fatal("NoReconnect redialed anyway")
	}
}

// TestTxnConnectionLossNoRetry pins the reconnect/transaction contract:
// when the connection dies inside an open transaction, the client must
// surface the loss instead of silently redialing and replaying the
// statement outside the (rolled-back) transaction. After Rollback
// releases the transaction, the connection redials normally.
func TestTxnConnectionLossNoRetry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var conns, statements int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			first := atomic.AddInt32(&conns, 1) == 1
			go func(conn net.Conn, first bool) {
				defer conn.Close()
				for {
					rq, err := readRequest(conn)
					if err != nil {
						return
					}
					switch {
					case rq.Type == wire.MsgHello:
						wire.WriteResponse(conn, &wire.Response{Type: wire.MsgWelcome, Session: 1})
					case rq.Type == wire.MsgQuit:
						return
					case first && rq.SQL == "INSERT INTO kv VALUES (1)":
						return // cut the connection mid-transaction
					default:
						atomic.AddInt32(&statements, 1)
						wire.WriteResponse(conn, &wire.Response{Type: wire.MsgOK})
					}
				}
			}(conn, first)
		}
	}()

	c, err := Dial(ln.Addr().String(), Options{DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, "INSERT INTO kv VALUES (1)"); err == nil {
		t.Fatal("statement on a cut connection succeeded")
	}
	// The client must NOT have redialed to retry the insert: the server
	// rolled the transaction back with the session, so a replay would
	// run outside any transaction.
	if n := atomic.LoadInt32(&conns); n != 1 {
		t.Fatalf("client redialed inside a transaction (%d connections)", n)
	}
	if _, err := tx.Exec(ctx, "INSERT INTO kv VALUES (2)"); err == nil {
		t.Fatal("follow-up statement inside a lost transaction succeeded")
	}
	// Rollback acknowledges the server-side rollback; transport errors
	// during it are not the caller's problem.
	if err := tx.Rollback(ctx); err != nil {
		t.Fatalf("rollback after connection loss: %v", err)
	}
	// With the transaction released, auto-reconnect resumes.
	if _, err := c.Exec(ctx, "SELECT 1"); err != nil {
		t.Fatalf("exec after rollback did not redial: %v", err)
	}
	if n := atomic.LoadInt32(&conns); n != 2 {
		t.Fatalf("expected exactly one redial, got %d connections", n)
	}
	if n := atomic.LoadInt32(&statements); n != 2 { // BEGIN + SELECT 1
		t.Fatalf("server answered %d statements, want 2 (no replays)", n)
	}
}
