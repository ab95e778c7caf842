package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"hybridstore/internal/engine"
	"hybridstore/internal/sql"
	"hybridstore/internal/value"
	"hybridstore/internal/wire"
)

// session is one client connection: a reader goroutine feeding a
// bounded request queue and an executor goroutine (run) serving it in
// order. The state machine is deliberately small — created → (hello) →
// serving → draining → gone — with the hello optional so bare clients
// can fire statements immediately.
type session struct {
	srv  *Server
	id   uint64
	conn net.Conn

	// label attributes the session's statements in the slow-query log;
	// Hello refines it with the client's name.
	label string

	// timeout is the per-statement deadline from Hello (0 = none).
	timeout time.Duration

	// ctx parents every statement context; cancelled on server
	// hard-stop.
	ctx context.Context

	// reqCh is the bounded pipeline queue; the reader blocks when it is
	// full, which is the per-session backpressure.
	reqCh chan *wire.Request

	// stopRead aborts a blocked read during drain.
	readMu      sync.Mutex
	readStopped bool

	// curCancel aborts the statement the executor is running (nil when
	// idle); Cancel frames call it from the reader goroutine.
	cancelMu  sync.Mutex
	curCancel context.CancelFunc

	// writeMu serializes response frames: the executor is the main
	// writer, but the reader emits a best-effort protocol-error frame
	// when a session dies on garbage input.
	writeMu sync.Mutex
	// wbuf is the reused frame buffer write encodes into (under
	// writeMu); one larger than wire.MaxRetained is not kept.
	wbuf []byte

	// stmts maps this session's prepared-statement handles (issued from
	// the server-wide counter) into the shared cache's templates. Only
	// the executor touches it.
	stmts map[uint64]*cachedStmt

	// tx is the session's open explicit transaction (BEGIN…COMMIT); nil
	// outside one. Only the executor touches it; statements executed
	// while it is set join the transaction instead of auto-committing.
	// After a statement failure the engine has already aborted the
	// transaction, but tx stays set (statements keep returning the abort
	// reason) until the client acknowledges with ROLLBACK — mirroring
	// the usual SQL session contract.
	tx *engine.Txn
}

func newSession(s *Server, id uint64, conn net.Conn) *session {
	return &session{
		srv:   s,
		id:    id,
		conn:  conn,
		label: fmt.Sprintf("sess#%d", id),
		ctx:   s.baseCtx,
		reqCh: make(chan *wire.Request, s.cfg.QueueDepth),
		stmts: make(map[uint64]*cachedStmt),
		// The configured cap applies from the first statement, so a
		// client that never sends Hello cannot dodge it.
		timeout: s.cfg.MaxStmtTimeout,
	}
}

// stopReading wakes a blocked read and prevents further ones; queued
// requests still execute (graceful drain).
func (se *session) stopReading() {
	se.readMu.Lock()
	se.readStopped = true
	se.readMu.Unlock()
	se.conn.SetReadDeadline(time.Now())
}

// reqProtoErr marks a poison queue entry the reader enqueues when the
// request stream turns to garbage: the executor emits it as an error
// frame IN ORDER — after every response already owed — and terminates
// the session. Writing it directly from the reader would interleave it
// ahead of queued responses and mis-correlate the client's positional
// matching. The value is a response type, which no valid request can
// carry.
const reqProtoErr = wire.MsgError

// run is the session's executor loop (and lifecycle owner).
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
	go se.readLoop()
	for rq := range se.reqCh {
		if rq.Type == reqProtoErr {
			se.write(&wire.Response{Type: wire.MsgError, Code: wire.CodeProtocol, Err: rq.SQL})
			break
		}
		rs := se.handle(rq)
		if rs == nil { // Quit
			break
		}
		if err := se.write(rs); err != nil {
			break
		}
	}
	// Let the reader's queue drain so it can exit (it may be blocked on
	// a full queue while we stop consuming).
	se.stopReading()
	for range se.reqCh {
	}
}

// readLoop decodes frames into the queue, intercepting out-of-band
// cancels. It owns closing reqCh.
func (se *session) readLoop() {
	defer close(se.reqCh)
	for {
		rq, err := wire.ReadRequest(se.conn, se.srv.cfg.MaxFrame)
		if err != nil {
			se.readMu.Lock()
			stopped := se.readStopped
			se.readMu.Unlock()
			if !stopped {
				// Protocol-level garbage earns a final error frame, but
				// it must flow through the executor queue so it lands
				// after every response already owed (response order is
				// the client's correlation mechanism). EOF is a normal
				// hangup and net errors (resets, closed conns) are not
				// worth one.
				var ne net.Error
				if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.As(err, &ne) {
					se.reqCh <- &wire.Request{Type: reqProtoErr, SQL: err.Error()}
				}
			}
			return
		}
		if rq.Type == wire.MsgCancel {
			se.cancelCurrent()
			continue
		}
		se.reqCh <- rq
		if rq.Type == wire.MsgQuit {
			return
		}
	}
}

func (se *session) cancelCurrent() {
	se.cancelMu.Lock()
	if se.curCancel != nil {
		se.curCancel()
	}
	se.cancelMu.Unlock()
}

// write encodes one response frame, header included, into the session's
// buffer and sends it in one Write. A result that would pass the frame
// limit is replaced by an error, so the client's reader survives; the
// encoder gives up on it at the limit.
func (se *session) write(rs *wire.Response) error {
	se.writeMu.Lock()
	defer se.writeMu.Unlock()
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
		return &wire.Response{Type: wire.MsgWelcome, Session: se.id}
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
	if _, err := cs.pp.Bind(se.srv.resolver, nulls); err != nil {
		return nil, err
	}
	return cs, nil
}

// execPrepared binds and executes one statement under a fresh statement
// context (session deadline applied, cancel registered for out-of-band
// Cancel frames) on a worker-pool slot.
func (se *session) execPrepared(cs *cachedStmt, params []value.Value) *wire.Response {
	st, err := cs.pp.Bind(se.srv.resolver, params)
	if err != nil {
		return sqlError(err)
	}
	if st.Txn != sql.TxnNone {
		return se.execTxnCtl(st.Txn)
	}
	if se.tx != nil && st.CreateTable != nil {
		return sqlError(errors.New("server: DDL is not allowed inside a transaction"))
	}

	ctx := engine.WithSession(se.ctx, se.label)
	if se.tx != nil {
		ctx = engine.WithTxn(ctx, se.tx)
	}
	var cancel context.CancelFunc
	if se.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, se.timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	se.cancelMu.Lock()
	se.curCancel = cancel
	se.cancelMu.Unlock()
	defer func() {
		se.cancelMu.Lock()
		se.curCancel = nil
		se.cancelMu.Unlock()
		cancel()
	}()

	// Shared worker pool: wait for an execution slot (or hard-stop).
	// The statement runs on this slot; any additional parallelism the
	// engine finds comes from try-acquiring idle slots of the same pool.
	if err := se.srv.pool.Acquire(ctx); err != nil {
		return ctxError(err)
	}
	defer se.srv.pool.Release()

	rs, err := se.srv.execStatement(ctx, st, cs)
	mStatements.Inc()
	if err != nil {
		mStmtErrors.Inc()
		return execError(err)
	}
	return rs
}

// execCopy serves one MsgCopy bulk-ingest frame: the whole batch is
// applied and made durable atomically through the engine's ingest fast
// path. It takes a worker-pool slot and registers for out-of-band
// cancel exactly like a statement, but skips SQL parsing entirely —
// the frame already carries typed rows.
func (se *session) execCopy(rq *wire.Request) *wire.Response {
	if se.tx != nil {
		// The ingest path bypasses MVCC versioning, so its rows cannot
		// join a snapshot transaction; the typed code tells drivers not
		// to retry the same frame on this session.
		return &wire.Response{Type: wire.MsgError, Code: wire.CodeUnsupported,
			Err: "server: COPY inside an open transaction is not supported (COMMIT or ROLLBACK first)"}
	}
	ctx := engine.WithSession(se.ctx, se.label)
	var cancel context.CancelFunc
	if se.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, se.timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	se.cancelMu.Lock()
	se.curCancel = cancel
	se.cancelMu.Unlock()
	defer func() {
		se.cancelMu.Lock()
		se.curCancel = nil
		se.cancelMu.Unlock()
		cancel()
	}()

	if err := se.srv.pool.Acquire(ctx); err != nil {
		return ctxError(err)
	}
	defer se.srv.pool.Release()

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
// the executor goroutine without a worker-pool slot: BEGIN and ROLLBACK
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
			if errors.Is(err, engine.ErrClosed) {
				return &wire.Response{Type: wire.MsgError, Code: wire.CodeShutdown, Err: err.Error()}
			}
			return sqlError(err)
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
			switch {
			case engine.IsConflict(err):
				return &wire.Response{Type: wire.MsgError, Code: wire.CodeTxnConflict, Err: err.Error()}
			case errors.Is(err, engine.ErrClosed):
				return &wire.Response{Type: wire.MsgError, Code: wire.CodeShutdown, Err: err.Error()}
			default:
				return sqlError(err)
			}
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
