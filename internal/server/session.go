package server

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hybridstore/internal/engine"
	"hybridstore/internal/sql"
	"hybridstore/internal/value"
	"hybridstore/internal/wire"
)

// session is one client connection, served by one goroutine (run) that
// reads a request, handles it and writes its reply before it reads the
// next: requests a client pipelines wait in the socket, so the TCP
// window is the session's backpressure. The state machine is
// deliberately small — created → (hello) → serving → draining → gone —
// with the hello optional so bare clients can fire statements
// immediately.
type session struct {
	srv  *Server
	id   uint64
	conn net.Conn
	// key authenticates the cancel connections that name this session;
	// Welcome hands it to the client.
	key uint64

	// label attributes the session's statements in the slow-query log;
	// Hello refines it with the client's name.
	label string

	// timeout is the per-statement deadline from Hello (0 = none).
	timeout time.Duration

	// ctx parents every statement context; cancelled on server
	// hard-stop.
	ctx context.Context

	// stopped is set by drain: the request in progress finishes, and
	// nothing more is read.
	stopped atomic.Bool

	// seq is the position of the request in progress or, between
	// requests, of the next one to read (Hello is 0). curCancel aborts
	// the statement running now (nil when none is); cancels holds the
	// positions named by cancels that reached no running statement yet.
	cancelMu  sync.Mutex
	seq       uint64
	curCancel context.CancelFunc
	cancels   map[uint64]bool

	// rbuf and wbuf are the reused frame buffers of the last request
	// and reply; one larger than wire.MaxRetained is not kept.
	rbuf, wbuf []byte

	// stmts maps this session's prepared-statement handles (issued from
	// the server-wide counter) into the shared cache's templates.
	stmts map[uint64]*cachedStmt

	// tx is the session's open explicit transaction (BEGIN…COMMIT); nil
	// outside one. Statements executed while it is set join the
	// transaction instead of auto-committing. After a statement failure
	// the engine has already aborted the transaction, but tx stays set
	// (statements keep returning the abort reason) until the client
	// acknowledges with ROLLBACK — mirroring the usual SQL session
	// contract.
	tx *engine.Txn
}

func newSession(s *Server, id uint64, conn net.Conn) *session {
	var key [8]byte
	rand.Read(key[:]) // never fails: it crashes the program instead
	return &session{
		srv:   s,
		id:    id,
		conn:  conn,
		key:   binary.LittleEndian.Uint64(key[:]),
		label: fmt.Sprintf("sess#%d", id),
		ctx:   s.baseCtx,
		stmts: make(map[uint64]*cachedStmt),
		// The configured cap applies from the first statement, so a
		// client that never sends Hello cannot dodge it.
		timeout: s.cfg.MaxStmtTimeout,
	}
}

// stopReading lets the request in progress finish and wakes a blocked
// read; the requests a client pipelined behind it see a lost connection.
func (se *session) stopReading() {
	se.stopped.Store(true)
	se.conn.SetReadDeadline(time.Now())
}

// run serves the connection until it closes, Quit, a protocol error or
// drain. A connection whose first frame is a Cancel never becomes a
// session: it cancels the request it names and closes.
func (se *session) run() {
	defer func() {
		// A connection dying mid-transaction must not leave write claims
		// pinning other writers: roll back whatever is still open.
		if se.tx != nil {
			se.tx.Rollback()
			se.tx = nil
		}
		se.conn.Close()
		se.srv.dropSession(se)
	}()
	r := bufio.NewReader(se.conn)
	for {
		rq, err := se.read(r)
		if err != nil {
			// Garbage earns a final error frame; every reply owed is
			// already written. EOF is a normal hangup and net errors
			// (resets, closed conns, drain's deadline) are not worth one.
			var ne net.Error
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.As(err, &ne) {
				se.write(&wire.Response{Type: wire.MsgError, Code: wire.CodeProtocol, Err: err.Error()})
			}
			return
		}
		if rq.Type == wire.MsgCancel && se.seq == 0 {
			se.srv.cancelRequest(rq)
			return
		}
		rs := se.handle(rq)
		se.cancelMu.Lock()
		delete(se.cancels, se.seq)
		se.seq++
		se.cancelMu.Unlock()
		if rs == nil || se.write(rs) != nil || se.stopped.Load() { // Quit, lost, drain
			return
		}
	}
}

// read reads and decodes the next request through the session's reused
// buffer; the decoded request does not alias it.
func (se *session) read(r *bufio.Reader) (*wire.Request, error) {
	frame, err := wire.ReadFrame(r, se.rbuf, se.srv.cfg.MaxFrame)
	if err != nil {
		return nil, err
	}
	if cap(frame) <= wire.MaxRetained {
		se.rbuf = frame
	}
	return wire.DecodeRequest(frame)
}

// cancel cancels request seq now if it is running, at its start if it
// has not been read yet, and not at all if it has finished.
func (se *session) cancel(seq uint64) {
	se.cancelMu.Lock()
	defer se.cancelMu.Unlock()
	if seq < se.seq {
		return
	}
	if se.cancels == nil {
		se.cancels = make(map[uint64]bool)
	}
	se.cancels[seq] = true
	if seq == se.seq && se.curCancel != nil {
		se.curCancel()
	}
}

// begin readies the current request's statement to run: its context,
// with the session deadline applied and registered for cancels, and a
// slot of the shared worker pool (the statement runs on it; any further
// parallelism the engine finds comes from try-acquiring idle slots of
// the same pool). A request that a cancel named before it started, or
// that is cancelled while it waits for a slot, gets its reply instead.
func (se *session) begin(ctx context.Context) (context.Context, func(), *wire.Response) {
	var cancel context.CancelFunc
	if se.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, se.timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	se.cancelMu.Lock()
	se.curCancel = cancel
	cancelled := se.cancels[se.seq]
	se.cancelMu.Unlock()
	end := func() {
		se.cancelMu.Lock()
		se.curCancel = nil
		se.cancelMu.Unlock()
		cancel()
	}
	err := context.Canceled
	if !cancelled {
		err = se.srv.pool.Acquire(ctx)
	}
	if err != nil {
		end()
		return nil, nil, ctxError(err)
	}
	return ctx, func() { se.srv.pool.Release(); end() }, nil
}

// write encodes one response frame, header included, into the session's
// buffer and sends it in one Write. A result that would pass the frame
// limit is replaced by an error, so the client's reader survives; the
// encoder gives up on it at the limit.
func (se *session) write(rs *wire.Response) error {
	max := se.srv.cfg.MaxFrame
	frame, err := wire.AppendResponse(se.wbuf[:0], rs, max)
	if err != nil {
		frame, _ = wire.AppendResponse(frame[:0], &wire.Response{
			Type: wire.MsgError, Code: wire.CodeProtocol,
			Err: fmt.Sprintf("result of %d rows exceeds the %d-byte frame limit (page with LIMIT)", len(rs.Rows), max),
		}, 0)
	}
	if cap(frame) <= wire.MaxRetained {
		se.wbuf = frame
	} else {
		se.wbuf = nil
	}
	_, err = se.conn.Write(frame)
	return err
}

// handle serves one request, returning its response (nil for Quit).
func (se *session) handle(rq *wire.Request) *wire.Response {
	switch rq.Type {
	case wire.MsgHello:
		if rq.Version != wire.ProtocolVersion {
			return &wire.Response{Type: wire.MsgError, Code: wire.CodeProtocol,
				Err: fmt.Sprintf("protocol version %d not supported (server speaks %d)", rq.Version, wire.ProtocolVersion)}
		}
		if rq.ClientName != "" {
			se.label = fmt.Sprintf("%s#%d", rq.ClientName, se.id)
		}
		se.timeout = rq.Timeout
		if max := se.srv.cfg.MaxStmtTimeout; max > 0 && (se.timeout == 0 || se.timeout > max) {
			se.timeout = max
		}
		return &wire.Response{Type: wire.MsgWelcome, Session: se.id, Key: se.key}
	case wire.MsgPing:
		return &wire.Response{Type: wire.MsgPong}
	case wire.MsgQuit:
		return nil
	case wire.MsgPrepare:
		cs, err := se.prepare(rq.SQL)
		if err != nil {
			return sqlError(err)
		}
		id := se.srv.stmtIDs.Add(1)
		se.stmts[id] = cs
		return &wire.Response{Type: wire.MsgPrepared, Stmt: id, NumParams: cs.pp.NumParams}
	case wire.MsgStmtClose:
		delete(se.stmts, rq.Stmt)
		return &wire.Response{Type: wire.MsgOK}
	case wire.MsgExec:
		cs, err := se.srv.cache.get(rq.SQL)
		if err != nil {
			return sqlError(err)
		}
		return se.execPrepared(cs, rq.Params)
	case wire.MsgStmtExec:
		cs, ok := se.stmts[rq.Stmt]
		if !ok {
			// CodeUnknownStmt tells the driver the statement provably
			// did not execute (safe to re-prepare and retry).
			return &wire.Response{Type: wire.MsgError, Code: wire.CodeUnknownStmt,
				Err: fmt.Sprintf("unknown statement handle %d", rq.Stmt)}
		}
		return se.execPrepared(cs, rq.Params)
	case wire.MsgCopy:
		return se.execCopy(rq)
	default:
		return &wire.Response{Type: wire.MsgError, Code: wire.CodeProtocol,
			Err: fmt.Sprintf("unexpected request type 0x%02x", rq.Type)}
	}
}

// prepare resolves a statement template through the shared cache and
// validates it against the current catalog by a throwaway bind with
// NULL parameters, so syntax and column errors surface at Prepare time.
func (se *session) prepare(text string) (*cachedStmt, error) {
	cs, err := se.srv.cache.get(text)
	if err != nil {
		return nil, err
	}
	nulls := make([]value.Value, cs.pp.NumParams)
	for i := range nulls {
		nulls[i] = value.Null(value.Varchar)
	}
	if _, err := cs.pp.Bind(se.srv.resolve, nulls); err != nil {
		return nil, err
	}
	return cs, nil
}

// execPrepared binds and executes one statement under a fresh statement
// context on a worker-pool slot (see begin).
func (se *session) execPrepared(cs *cachedStmt, params []value.Value) *wire.Response {
	st, err := cs.pp.Bind(se.srv.resolve, params)
	if err != nil {
		return sqlError(err)
	}
	if st.Txn != sql.TxnNone {
		return se.execTxnCtl(st.Txn)
	}

	ctx := engine.WithSession(se.ctx, se.label)
	if se.tx != nil {
		ctx = engine.WithTxn(ctx, se.tx)
	}
	ctx, end, rs := se.begin(ctx)
	if rs != nil {
		return rs
	}
	defer end()

	rs, err = se.srv.execStatement(ctx, st, cs)
	mStatements.Inc()
	if err != nil {
		mStmtErrors.Inc()
		return execError(err)
	}
	return rs
}

// execCopy serves one MsgCopy bulk-ingest frame: the whole batch is
// applied and made durable atomically through the engine's ingest fast
// path. It takes a worker-pool slot and registers for cancels exactly
// like a statement, but skips SQL parsing entirely —
// the frame already carries typed rows.
func (se *session) execCopy(rq *wire.Request) *wire.Response {
	if se.tx != nil {
		// The ingest path bypasses MVCC versioning, so its rows cannot
		// join a snapshot transaction; the typed code tells drivers not
		// to retry the same frame on this session.
		return &wire.Response{Type: wire.MsgError, Code: wire.CodeUnsupported,
			Err: "server: COPY inside an open transaction is not supported (COMMIT or ROLLBACK first)"}
	}
	ctx, end, rs := se.begin(engine.WithSession(se.ctx, se.label))
	if rs != nil {
		return rs
	}
	defer end()

	res, err := se.srv.db.CopyRows(ctx, rq.Table, rq.Rows)
	mStatements.Inc()
	if err != nil {
		mStmtErrors.Inc()
		return execError(err)
	}
	return &wire.Response{Type: wire.MsgOK, Affected: res.Affected, Duration: res.Duration}
}

// execError maps an execution failure onto the wire's error codes.
func execError(err error) *wire.Response {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ctxError(err)
	case errors.Is(err, engine.ErrClosed):
		return &wire.Response{Type: wire.MsgError, Code: wire.CodeShutdown, Err: err.Error()}
	case engine.IsConflict(err):
		// First-updater-wins abort: the engine already rolled the
		// transaction back (explicit transactions stay open for
		// ROLLBACK; auto-commit statements exhausted their internal
		// retries). The client should retry from BEGIN.
		return &wire.Response{Type: wire.MsgError, Code: wire.CodeTxnConflict, Err: err.Error()}
	case engine.IsUnsupported(err):
		// Well-formed but the engine genuinely cannot execute it;
		// retrying unchanged will never succeed.
		return &wire.Response{Type: wire.MsgError, Code: wire.CodeUnsupported, Err: err.Error()}
	default:
		return sqlError(err)
	}
}

// execTxnCtl serves BEGIN/COMMIT/ROLLBACK. Transaction control runs on
// the session goroutine without a worker-pool slot: BEGIN and ROLLBACK
// are instant, and COMMIT's cost is the WAL group-commit wait, which
// holds no engine resources a pool slot would meter.
func (se *session) execTxnCtl(kind sql.TxnKind) *wire.Response {
	switch kind {
	case sql.TxnBegin:
		if se.tx != nil {
			return sqlError(errors.New("server: transaction already open (COMMIT or ROLLBACK it first)"))
		}
		tx, err := se.srv.db.Begin(engine.WithSession(se.ctx, se.label))
		if err != nil {
			return execError(err)
		}
		se.tx = tx
		return &wire.Response{Type: wire.MsgOK}
	case sql.TxnCommit:
		if se.tx == nil {
			return sqlError(errors.New("server: COMMIT outside a transaction"))
		}
		tx := se.tx
		se.tx = nil
		if err := tx.Commit(engine.WithSession(se.ctx, se.label)); err != nil {
			return execError(err)
		}
		return &wire.Response{Type: wire.MsgOK}
	default: // sql.TxnRollback
		if se.tx != nil {
			se.tx.Rollback()
			se.tx = nil
		}
		// ROLLBACK outside a transaction is a no-op, not an error: it is
		// how drivers reset session state after seeing an ambiguous
		// failure.
		return &wire.Response{Type: wire.MsgOK}
	}
}

func sqlError(err error) *wire.Response {
	return &wire.Response{Type: wire.MsgError, Code: wire.CodeSQL, Err: err.Error()}
}

func ctxError(err error) *wire.Response {
	return &wire.Response{Type: wire.MsgError, Code: wire.CodeCancelled, Err: err.Error()}
}
