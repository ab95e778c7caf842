// Package client is the Go driver for the hsqld network service. A Conn
// is a single wire-protocol connection that is safe for concurrent use:
// requests from multiple goroutines are written in one order, responses
// arrive in the same order, and callers waiting on a response are
// matched by position — which is also what makes pipelining free: a
// goroutine's request goes on the wire immediately, without waiting for
// earlier responses. No goroutine of its own reads the connection: a
// caller whose reply is pending takes the read token and hands each
// reply to its caller until its own arrives.
//
// Cancelling a call's context sends a cancel naming the call's request
// on a connection of its own; the server aborts that statement at the
// engine's next batch boundary and the call returns the server's
// cancellation error. A Conn that loses its connection reconnects
// automatically on the next call, and prepared statements re-prepare
// themselves transparently after a reconnect (handles are
// per-connection on the server).
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hybridstore/internal/value"
	"hybridstore/internal/wire"
)

// Options tunes a connection.
type Options struct {
	// Name labels the session in the server's slow-query log.
	Name string
	// StatementTimeout asks the server to deadline each statement.
	StatementTimeout time.Duration
	// MaxFrame caps response frames the client accepts (0 = wire
	// default).
	MaxFrame int
	// DialTimeout bounds connection establishment (0 = 5s).
	DialTimeout time.Duration
	// NoReconnect disables automatic redial after a broken connection.
	NoReconnect bool
}

// maxPipeline bounds requests in flight on the connection; a call arriving
// with the pipeline full fails fast with a "pipeline full" error rather
// than blocking (blocking would have to hold the write lock across the
// wait).
const maxPipeline = 256

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = wire.DefaultMaxFrame
	}
	return o
}

// Error is a server-reported failure.
type Error struct {
	Code byte
	Msg  string
}

func (e *Error) Error() string { return e.Msg }

// Cancelled reports whether the error is the server's statement
// cancellation (cancel frame or statement deadline).
func (e *Error) Cancelled() bool { return e.Code == wire.CodeCancelled }

// IsCancelled reports whether err is a server-side statement
// cancellation.
func IsCancelled(err error) bool {
	var se *Error
	return errors.As(err, &se) && se.Cancelled()
}

// Retryable reports whether the error is a snapshot-isolation
// write-write conflict: the transaction rolled back cleanly without
// applying anything, so rerunning the whole transaction (from Begin) is
// safe and expected. Individual statements are NOT safe to retry in
// isolation — retry the transaction function.
func (e *Error) Retryable() bool { return e.Code == wire.CodeTxnConflict }

// IsRetryable reports whether err is a retryable transaction conflict.
func IsRetryable(err error) bool {
	var se *Error
	return errors.As(err, &se) && se.Retryable()
}

// Result is one statement's outcome.
type Result struct {
	Cols     []string
	Rows     [][]value.Value
	Affected int
	// Duration is the server-measured execution time.
	Duration time.Duration
}

// call is one in-flight request awaiting its positional response; seq
// is the request's position on its connection (Hello is 0), the number
// a cancel names it by.
type call struct {
	seq  uint64
	rs   *wire.Response
	err  error
	done chan struct{}
}

// line is one connection's read side. The caller holding the one-slot
// read token reads the replies and hands each to the call at the head
// of pending, the calls in request order.
type line struct {
	conn    net.Conn
	r       *bufio.Reader
	buf     []byte // reused frame buffer of the token holder
	token   chan struct{}
	pending chan *call
	// session and key, from Welcome, authenticate a cancel.
	session, key uint64
}

// Conn is a driver connection. Zero value is not usable; Dial creates
// one.
type Conn struct {
	addr string
	opts Options

	mu     sync.Mutex
	ln     *line  // nil when the connection is lost
	epoch  uint64 // bumped per (re)connect; stale Stmt handles detect it
	closed bool
	// sent is the position of the next request on ln; wbuf is the reused
	// buffer requests are encoded into.
	sent uint64
	wbuf []byte

	// txn is the open explicit transaction (guarded by mu). While it is
	// set the connection will NOT redial after a connection loss: a
	// server transaction lives in its session, so statements on a fresh
	// session would silently auto-commit outside it. The transaction
	// must be resolved (Commit/Rollback, even failing ones) before the
	// connection becomes usable again.
	txn *Tx
}

// Dial connects to an hsqld server.
func Dial(addr string, opts Options) (*Conn, error) {
	c := &Conn{addr: addr, opts: opts.withDefaults()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// connectLocked (re)establishes the connection and performs the hello
// handshake.
func (c *Conn) connectLocked() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	ln := &line{conn: conn, r: bufio.NewReader(conn), token: make(chan struct{}, 1),
		pending: make(chan *call, maxPipeline)}
	conn.SetDeadline(time.Now().Add(c.opts.DialTimeout))
	var rs *wire.Response
	if err = wire.WriteRequest(conn, &wire.Request{Type: wire.MsgHello, ClientName: c.opts.Name,
		Version: wire.ProtocolVersion, Timeout: c.opts.StatementTimeout}); err == nil {
		rs, err = ln.next(c.opts.MaxFrame)
	}
	switch {
	case err != nil:
		err = fmt.Errorf("client: hello: %w", err)
	case rs.Type == wire.MsgError:
		err = &Error{Code: rs.Code, Msg: rs.Err}
	case rs.Type != wire.MsgWelcome:
		err = fmt.Errorf("client: unexpected hello response type 0x%02x", rs.Type)
	}
	if err != nil {
		conn.Close()
		return err
	}
	conn.SetDeadline(time.Time{})
	ln.session, ln.key = rs.Session, rs.Key
	c.ln = ln
	c.epoch++
	c.sent = 1
	return nil
}

// next reads and decodes one reply through the reused frame buffer; the
// decoded reply does not alias it.
func (ln *line) next(max int) (*wire.Response, error) {
	frame, err := wire.ReadFrame(ln.r, ln.buf, max)
	if err != nil {
		return nil, err
	}
	if cap(frame) <= wire.MaxRetained {
		ln.buf = frame
	}
	return wire.DecodeResponse(frame)
}

// roundTrip writes one request and waits for its positional response.
func (c *Conn) roundTrip(ctx context.Context, rq *wire.Request) (*wire.Response, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("client: connection closed")
	}
	if c.ln == nil {
		if c.txn != nil {
			// No transparent redial inside a transaction: the server
			// rolled it back when the session died, and a retried
			// statement on a new session would auto-commit outside it.
			c.mu.Unlock()
			return nil, errors.New("client: connection lost inside a transaction (the server rolled it back; retry from Begin)")
		}
		if c.opts.NoReconnect {
			c.mu.Unlock()
			return nil, errors.New("client: connection lost")
		}
		if err := c.connectLocked(); err != nil {
			c.mu.Unlock()
			return nil, err
		}
	}
	ln := c.ln
	cl := &call{seq: c.sent, done: make(chan struct{})}
	select {
	case ln.pending <- cl:
	default:
		c.mu.Unlock()
		return nil, fmt.Errorf("client: pipeline full (%d requests in flight)", maxPipeline)
	}
	c.sent++
	c.wbuf = wire.AppendRequest(c.wbuf[:0], rq)
	if _, err := ln.conn.Write(c.wbuf); err != nil {
		// The reply will never come: the read fails every pending call.
		ln.conn.Close()
	}
	if cap(c.wbuf) > wire.MaxRetained {
		c.wbuf = nil
	}
	c.mu.Unlock()

	c.await(ctx, ln, cl)
	if cl.err != nil {
		return nil, cl.err
	}
	if cl.rs.Type == wire.MsgError {
		return nil, &Error{Code: cl.rs.Code, Msg: cl.rs.Err}
	}
	return cl.rs, nil
}

// await returns once cl has its reply, reading the connection itself
// whenever no other caller is. If ctx ends first, a cancel names cl's
// request, and cl waits on for the reply so positional matching stays
// aligned: a reply that beats the cancel is returned faithfully, since
// a write that was applied must not be reported as cancelled.
func (c *Conn) await(ctx context.Context, ln *line, cl *call) {
	done := ctx.Done()
	for {
		select {
		case <-cl.done:
			return
		case ln.token <- struct{}{}:
			interrupted := c.read(ctx, ln, cl)
			<-ln.token
			if !interrupted {
				return
			}
		case <-done:
		}
		done, ctx = nil, context.Background()
		c.cancel(ln, cl.seq)
	}
}

// read hands each reply to the call at the head of the pipeline until
// cl's own arrives or the connection fails (every pending call then
// fails). It reports true when ctx ended while it waited for a frame.
func (c *Conn) read(ctx context.Context, ln *line, cl *call) bool {
	for {
		select {
		case <-cl.done:
			return false
		default:
		}
		// Only the wait for a frame's first bytes is interruptible: the
		// deadline ctx sets is cleared before the frame is read whole.
		var stop func() bool
		var fired chan struct{}
		if ctx.Done() != nil {
			fired = make(chan struct{})
			stop = context.AfterFunc(ctx, func() {
				ln.conn.SetReadDeadline(time.Unix(1, 0))
				close(fired)
			})
		}
		_, err := ln.r.Peek(1)
		if stop != nil && !stop() {
			<-fired
			ln.conn.SetReadDeadline(time.Time{})
			if err != nil {
				return true // the deadline, or an error the next read meets again
			}
		}
		var rs *wire.Response
		if err == nil {
			rs, err = ln.next(c.opts.MaxFrame)
		}
		if err == nil {
			select {
			case head := <-ln.pending:
				head.rs = rs
				close(head.done)
				continue
			default:
				err = fmt.Errorf("client: unsolicited response type 0x%02x", rs.Type)
			}
		}
		// The connection is lost: the next call redials, and every
		// pending call fails.
		c.mu.Lock()
		if c.ln == ln {
			c.ln = nil
		}
		c.mu.Unlock()
		ln.conn.Close()
		for {
			select {
			case p := <-ln.pending:
				p.err = fmt.Errorf("client: connection lost: %w", err)
				close(p.done)
			default:
				return false
			}
		}
	}
}

// cancel asks the server, on a connection of its own, to cancel request
// seq of ln's session (best effort).
func (c *Conn) cancel(ln *line, seq uint64) {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return
	}
	defer conn.Close()
	// A cancel that fails to go out leaves the call waiting for its
	// reply, as if the statement had beaten the cancel.
	_ = wire.WriteRequest(conn, &wire.Request{Type: wire.MsgCancel, Session: ln.session, Key: ln.key, Seq: seq})
}

func toResult(rs *wire.Response) *Result {
	return &Result{
		Cols: rs.Cols, Rows: rs.Rows,
		Affected: rs.Affected, Duration: rs.Duration,
	}
}

// Exec parses and executes one statement server-side, binding params to
// its '?' placeholders.
func (c *Conn) Exec(ctx context.Context, sqlText string, params ...value.Value) (*Result, error) {
	rs, err := c.roundTrip(ctx, &wire.Request{Type: wire.MsgExec, SQL: sqlText, Params: params})
	if err != nil {
		return nil, err
	}
	return toResult(rs), nil
}

// Query is Exec for statements expected to return rows.
func (c *Conn) Query(ctx context.Context, sqlText string, params ...value.Value) (*Result, error) {
	return c.Exec(ctx, sqlText, params...)
}

// Ping round-trips a liveness probe.
func (c *Conn) Ping(ctx context.Context) error {
	_, err := c.roundTrip(ctx, &wire.Request{Type: wire.MsgPing})
	return err
}

// Tx is an explicit transaction (BEGIN…COMMIT) on the connection's
// server session. Statements run under snapshot isolation: reads see
// the state committed at Begin plus the transaction's own writes;
// write-write conflicts abort with a Retryable error (first updater
// wins). The whole transaction — not individual statements — is the
// retry unit.
//
// A Tx pins its Conn's session: do not issue non-transactional
// statements on the Conn (from any goroutine) while a Tx is open — they
// would execute inside the transaction. Rollback is always safe to
// defer; it is a no-op after Commit.
type Tx struct {
	c  *Conn
	mu sync.Mutex
	// done: Commit or Rollback already resolved the transaction.
	done bool
}

// Begin opens an explicit transaction. Only one transaction may be open
// per connection.
func (c *Conn) Begin(ctx context.Context) (*Tx, error) {
	tx := &Tx{c: c}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("client: connection closed")
	}
	if c.txn != nil {
		c.mu.Unlock()
		return nil, errors.New("client: transaction already open on this connection")
	}
	// Redial here if needed: once the slot is reserved, roundTrip
	// refuses to reconnect (a fresh session would not hold the
	// transaction), but no transaction exists yet at this point.
	if c.ln == nil && !c.opts.NoReconnect {
		if err := c.connectLocked(); err != nil {
			c.mu.Unlock()
			return nil, err
		}
	}
	c.txn = tx // reserve before the round trip so concurrent Begins fail fast
	c.mu.Unlock()
	if _, err := c.roundTrip(ctx, &wire.Request{Type: wire.MsgExec, SQL: "BEGIN"}); err != nil {
		c.mu.Lock()
		c.txn = nil
		c.mu.Unlock()
		return nil, err
	}
	return tx, nil
}

// Exec runs one statement inside the transaction. After a statement
// error the server has aborted the transaction; further statements
// return the abort reason until Rollback.
func (tx *Tx) Exec(ctx context.Context, sqlText string, params ...value.Value) (*Result, error) {
	tx.mu.Lock()
	done := tx.done
	tx.mu.Unlock()
	if done {
		return nil, errors.New("client: transaction has already finished")
	}
	rs, err := tx.c.roundTrip(ctx, &wire.Request{Type: wire.MsgExec, SQL: sqlText, Params: params})
	if err != nil {
		return nil, err
	}
	return toResult(rs), nil
}

// Query is Exec for statements expected to return rows.
func (tx *Tx) Query(ctx context.Context, sqlText string, params ...value.Value) (*Result, error) {
	return tx.Exec(ctx, sqlText, params...)
}

// Commit makes the transaction's writes visible and durable. A
// Retryable error means a conflict aborted it (nothing was applied);
// any other error after the request went on the wire leaves the outcome
// unacknowledged, like a failed auto-commit write. Either way the Tx is
// finished and the connection is free again.
func (tx *Tx) Commit(ctx context.Context) error {
	return tx.finish(ctx, "COMMIT")
}

// Rollback discards the transaction. It is a no-op after Commit (or a
// previous Rollback), so defer tx.Rollback(ctx) is always safe; a lost
// connection is also success, since the server rolls back with the
// session.
func (tx *Tx) Rollback(ctx context.Context) error {
	err := tx.finish(ctx, "ROLLBACK")
	if err != nil {
		var se *Error
		if !errors.As(err, &se) {
			// Transport-level failure: the session died and took the
			// transaction with it — the rollback happened server-side.
			return nil
		}
	}
	return err
}

// finish resolves the transaction with COMMIT or ROLLBACK and releases
// the connection's transaction slot whatever the outcome.
func (tx *Tx) finish(ctx context.Context, stmt string) error {
	tx.mu.Lock()
	if tx.done {
		tx.mu.Unlock()
		if stmt == "ROLLBACK" {
			return nil
		}
		return errors.New("client: transaction has already finished")
	}
	tx.done = true
	tx.mu.Unlock()
	_, err := tx.c.roundTrip(ctx, &wire.Request{Type: wire.MsgExec, SQL: stmt})
	tx.c.mu.Lock()
	if tx.c.txn == tx {
		tx.c.txn = nil
	}
	tx.c.mu.Unlock()
	return err
}

// Stmt is a prepared statement. It survives reconnects: the handle is
// re-prepared transparently when the connection epoch changes.
type Stmt struct {
	c    *Conn
	text string

	mu       sync.Mutex
	id       uint64
	nparams  int
	epoch    uint64
	prepared bool
}

// Prepare registers a statement template server-side and returns its
// handle.
func (c *Conn) Prepare(ctx context.Context, sqlText string) (*Stmt, error) {
	st := &Stmt{c: c, text: sqlText}
	if err := st.ensure(ctx); err != nil {
		return nil, err
	}
	return st, nil
}

// ensure (re)prepares the statement if the connection was rebuilt since
// the handle was issued.
func (st *Stmt) ensure(ctx context.Context) error {
	st.c.mu.Lock()
	epoch := st.c.epoch
	dead := st.c.ln == nil
	st.c.mu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.prepared && !dead && st.epoch == epoch {
		return nil
	}
	rs, err := st.c.roundTrip(ctx, &wire.Request{Type: wire.MsgPrepare, SQL: st.text})
	if err != nil {
		return err
	}
	st.c.mu.Lock()
	st.epoch = st.c.epoch
	st.c.mu.Unlock()
	st.id = rs.Stmt
	st.nparams = rs.NumParams
	st.prepared = true
	return nil
}

// NumParams returns the number of '?' placeholders.
func (st *Stmt) NumParams() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.nparams
}

// Exec executes the prepared statement with the given parameters.
//
// Exactly one transparent retry happens, and only on the server's
// CodeUnknownStmt error — the case where another goroutine's reconnect
// invalidated the handle and the server provably did not execute the
// statement. Every other error — including connection loss and generic
// protocol errors — is NOT retried: the server may have applied the
// statement before the failure surfaced, so retrying could double-apply
// a write; the caller must treat such an error as "unacknowledged",
// exactly like an engine error.
func (st *Stmt) Exec(ctx context.Context, params ...value.Value) (*Result, error) {
	if err := st.ensure(ctx); err != nil {
		return nil, err
	}
	st.mu.Lock()
	id := st.id
	st.mu.Unlock()
	rs, err := st.c.roundTrip(ctx, &wire.Request{Type: wire.MsgStmtExec, Stmt: id, Params: params})
	if err != nil {
		var se *Error
		if !errors.As(err, &se) || se.Code != wire.CodeUnknownStmt {
			return nil, err
		}
		st.mu.Lock()
		st.prepared = false // force a fresh handle
		st.mu.Unlock()
		if err := st.ensure(ctx); err != nil {
			return nil, err
		}
		st.mu.Lock()
		id = st.id
		st.mu.Unlock()
		rs, err = st.c.roundTrip(ctx, &wire.Request{Type: wire.MsgStmtExec, Stmt: id, Params: params})
		if err != nil {
			return nil, err
		}
	}
	return toResult(rs), nil
}

// Query is Exec for statements expected to return rows.
func (st *Stmt) Query(ctx context.Context, params ...value.Value) (*Result, error) {
	return st.Exec(ctx, params...)
}

// Close releases the server-side handle (best effort).
func (st *Stmt) Close(ctx context.Context) error {
	st.mu.Lock()
	prepared, id := st.prepared, st.id
	st.prepared = false
	st.mu.Unlock()
	if !prepared {
		return nil
	}
	_, err := st.c.roundTrip(ctx, &wire.Request{Type: wire.MsgStmtClose, Stmt: id})
	return err
}

// Copy batching defaults: a frame flushes when it holds copyBatchRows
// rows or its estimated encoding reaches the frame budget, and at most
// copyMaxInflight frames ride the pipeline unacknowledged (enough to
// overlap encoding with the server's group-commit fsync without turning
// backpressure into "pipeline full" errors).
const (
	copyBatchRows   = 4096
	copyMaxInflight = 4
)

// Copy is a streaming bulk-ingest into one table. Send buffers rows;
// full batches go on the wire as dedicated copy frames, each applied by
// the server as ONE atomic, durable WAL record. Close flushes the rest
// and returns the total rows acknowledged.
//
// Atomicity is per frame, not per stream: if the connection (or server)
// dies mid-stream, every acknowledged frame is fully applied and the
// in-flight one is applied either fully or not at all — the stream as a
// whole is not transactional. A Copy is not safe for concurrent use and
// pins its Conn the same way a Tx does: don't run other statements on
// the connection until Close returns.
type Copy struct {
	c     *Conn
	ctx   context.Context
	table string
	width int

	rows  [][]value.Value
	bytes int

	sem chan struct{} // in-flight frame slots
	wg  sync.WaitGroup

	mu     sync.Mutex // guards err, total (written by flush goroutines)
	err    error
	total  int
	closed bool
}

// CopyIn starts a streaming bulk ingest into table, whose rows must
// have width columns in schema order. The context governs the whole
// stream: cancelling it aborts in-flight frames server-side.
//
// The fast path bypasses MVCC versioning, so CopyIn cannot run inside
// an explicit transaction — the server rejects such frames with a typed
// unsupported error.
func (c *Conn) CopyIn(ctx context.Context, table string, width int) (*Copy, error) {
	if table == "" || width <= 0 {
		return nil, fmt.Errorf("client: CopyIn needs a table and positive width (got %q, %d)", table, width)
	}
	return &Copy{
		c: c, ctx: ctx, table: table, width: width,
		sem: make(chan struct{}, copyMaxInflight),
	}, nil
}

// Send buffers one row, flushing a frame when the batch is full. It
// blocks only when copyMaxInflight frames are already unacknowledged
// (natural backpressure against a slow server). The row slice is
// retained until its frame is acknowledged; do not reuse it.
func (cp *Copy) Send(row ...value.Value) error {
	if len(row) != cp.width {
		return fmt.Errorf("client: copy row has %d values, table %q takes %d", len(row), cp.table, cp.width)
	}
	cp.mu.Lock()
	closed, err := cp.closed, cp.err
	cp.mu.Unlock()
	if closed {
		return errors.New("client: copy already closed")
	}
	if err != nil {
		return err
	}
	cp.rows = append(cp.rows, row)
	cp.bytes += rowWeight(row)
	if len(cp.rows) >= copyBatchRows || cp.bytes >= cp.c.opts.MaxFrame/2 {
		cp.flush()
	}
	return nil
}

// flush ships the buffered batch as one pipelined copy frame.
func (cp *Copy) flush() {
	rows := cp.rows
	cp.rows = nil
	cp.bytes = 0
	if len(rows) == 0 {
		return
	}
	cp.sem <- struct{}{} // wait for an in-flight slot
	cp.wg.Add(1)
	go func() {
		defer func() {
			<-cp.sem
			cp.wg.Done()
		}()
		rs, err := cp.c.roundTrip(cp.ctx, &wire.Request{
			Type: wire.MsgCopy, Table: cp.table, Width: cp.width, Rows: rows,
		})
		cp.mu.Lock()
		defer cp.mu.Unlock()
		if err != nil {
			if cp.err == nil {
				cp.err = err
			}
			return
		}
		cp.total += rs.Affected
	}()
}

// Close flushes the remaining rows, waits for every in-flight frame's
// acknowledgement, and returns the total row count the server applied
// durably. On error, the count still reflects exactly the acknowledged
// frames.
func (cp *Copy) Close() (int, error) {
	cp.mu.Lock()
	if cp.closed {
		total, err := cp.total, cp.err
		cp.mu.Unlock()
		return total, err
	}
	cp.closed = true
	failed := cp.err != nil
	cp.mu.Unlock()
	if !failed {
		cp.flush()
	}
	cp.wg.Wait()
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.total, cp.err
}

// rowWeight estimates a row's wire encoding size for frame budgeting;
// it only needs to be a safe overestimate of the common case.
func rowWeight(row []value.Value) int {
	n := 4
	for _, v := range row {
		n += 12
		if !v.IsNull() && v.Type() == value.Varchar {
			n += len(v.Varchar())
		}
	}
	return n
}

// Close sends Quit and closes the connection. Subsequent calls fail.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.ln != nil {
		_ = wire.WriteRequest(c.ln.conn, &wire.Request{Type: wire.MsgQuit})
		err := c.ln.conn.Close()
		c.ln = nil
		return err
	}
	return nil
}
