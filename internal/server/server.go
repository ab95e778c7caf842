// Package server implements the hsqld network service: a TCP server
// speaking the internal/wire protocol in front of one engine.Database.
//
// Each accepted connection becomes a session served by one goroutine,
// which reads a request, executes it and writes its reply before it
// reads the next: responses stay in request order while clients
// pipeline, and the requests behind the one in progress wait in the
// socket — backpressure is the client's TCP window, not goroutines or
// buffers. Statement execution passes through a server-wide bounded
// worker pool: at most Config.Workers statements run in the engine at
// once. Admission control caps concurrent sessions; connections beyond
// the cap are refused with a CodeTooBusy error frame.
//
// Prepared statements are tokenized once and cached server-wide keyed
// by statement text (sessions hold handles into the shared cache), then
// re-bound against the live catalog per execution, so they survive
// schema and layout changes. Every statement executes under a
// per-session context: Hello can set a per-statement deadline, and a
// cancel aborts a statement at the engine's next batch boundary. As in
// PostgreSQL, a cancel comes on a connection of its own whose one frame
// names a session, the key its Welcome carried and a request; it never
// becomes a session.
//
// Shutdown drains gracefully: the listener closes, each session
// finishes the request in progress and reads no more (requests
// pipelined behind it see a lost connection; in-flight statements are
// hard-cancelled only if the drain deadline expires), and finally the
// engine is closed — which checkpoints durable state — so a drained
// shutdown never loses an acknowledged write.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridstore/internal/catalog"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/plan"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/sql"
	"hybridstore/internal/wire"
)

const (
	// stmtCacheSize caps the shared prepared-statement cache entries.
	stmtCacheSize = 256
	// drainTimeout bounds Shutdown's graceful phase when the caller's
	// context has no deadline.
	drainTimeout = 5 * time.Second
)

// Config tunes a server.
type Config struct {
	// MaxSessions caps concurrent sessions; further connections are
	// refused with CodeTooBusy. 0 = 128.
	MaxSessions int
	// Workers sizes the shared worker pool that bounds both statements
	// executing concurrently and the morsel helpers each statement's
	// scans may recruit. 0 = the process-wide default pool
	// (GOMAXPROCS slots unless exec.SetDefaultSize overrode it).
	Workers int
	// MaxFrame caps accepted request frames and emitted response
	// frames. 0 = wire.DefaultMaxFrame.
	MaxFrame int
	// MaxStmtTimeout caps the per-statement deadline a session may
	// request in Hello; sessions asking for more (or for none) get
	// this. 0 = no cap.
	MaxStmtTimeout time.Duration
	// Logf receives server diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 128
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = wire.DefaultMaxFrame
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server serves one engine.Database over TCP.
type Server struct {
	db  *engine.Database
	cfg Config
	ln  net.Listener

	// baseCtx is the parent of every session context; cancelling it is
	// the hard-stop that aborts in-flight statements.
	baseCtx context.Context
	cancel  context.CancelFunc

	// pool is the shared worker pool: one slot per statement executing
	// in the engine. The engine draws its intra-statement morsel
	// helpers from the same pool (Serve installs it via db.SetPool), so
	// statement admission and scan parallelism share one budget and a
	// loaded server degrades to one-core-per-statement instead of
	// oversubscribing.
	pool *exec.Pool

	cache   *stmtCache
	resolve sql.Resolver

	draining atomic.Bool

	mu       sync.Mutex
	sessions map[uint64]*session
	nextSess uint64

	// stmtIDs issues prepared-statement handles unique across the whole
	// server, not per session: a handle from a dead session can never
	// alias a freshly issued one, so a driver retrying after a
	// reconnect gets CodeUnknownStmt instead of silently executing the
	// wrong statement.
	stmtIDs atomic.Uint64

	wg sync.WaitGroup // accept loop + sessions
}

// Serve listens on addr (e.g. ":7878" or "127.0.0.1:0") and starts
// accepting sessions against db. The caller owns db until Shutdown,
// which closes it.
func Serve(db *engine.Database, addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	cfg = cfg.withDefaults()
	pool := exec.Default()
	if cfg.Workers > 0 {
		pool = exec.NewPool(cfg.Workers)
	}
	cfg.Workers = pool.Size()
	db.SetPool(pool)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		db:       db,
		cfg:      cfg,
		ln:       ln,
		baseCtx:  ctx,
		cancel:   cancel,
		pool:     pool,
		cache:    &stmtCache{stmts: make(map[string]*cachedStmt)},
		resolve:  Resolver(db),
		sessions: make(map[uint64]*session),
	}
	s.registerGauges()
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (Shutdown) or fatal
		}
		// Draining is checked under the lock: Shutdown sets the flag and
		// then stops every registered session's reading under this same
		// mutex, so a connection is either refused here or registered in
		// time to be drained.
		s.mu.Lock()
		var refusal *wire.Response
		switch {
		case s.draining.Load():
			refusal = &wire.Response{Type: wire.MsgError, Code: wire.CodeShutdown, Err: "server is shutting down"}
		case len(s.sessions) >= s.cfg.MaxSessions:
			refusal = &wire.Response{Type: wire.MsgError, Code: wire.CodeTooBusy,
				Err: fmt.Sprintf("server at its session limit (%d)", s.cfg.MaxSessions)}
		}
		if refusal != nil {
			s.mu.Unlock()
			mSessionsRefused.Inc()
			_ = wire.WriteResponse(conn, refusal)
			conn.Close()
			continue
		}
		s.nextSess++
		sess := newSession(s, s.nextSess, conn)
		s.sessions[sess.id] = sess
		s.mu.Unlock()
		mSessionsOpened.Inc()
		s.wg.Add(1)
		go sess.run()
	}
}

// cancelRequest serves a cancel connection's frame: the named session's
// request is cancelled if the key matches.
func (s *Server) cancelRequest(rq *wire.Request) {
	s.mu.Lock()
	sess := s.sessions[rq.Session]
	s.mu.Unlock()
	if sess != nil && sess.key == rq.Key {
		sess.cancel(rq.Seq)
	}
}

func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	s.wg.Done()
}

// Resolver adapts db's catalog to the SQL parser.
func Resolver(db *engine.Database) sql.Resolver {
	return func(name string) *schema.Table {
		if e := db.Catalog().Table(name); e != nil {
			return e.Schema
		}
		return nil
	}
}

// Sessions reports the number of live sessions.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Shutdown drains the server and closes the engine (checkpointing
// durable state): the listener stops accepting, every session finishes
// the request in progress and reads no more, and once every session has
// exited the database is closed. If ctx
// expires first (or, without a deadline, after drainTimeout),
// in-flight statements are hard-cancelled — they abort at the engine's
// next batch boundary — and connections are torn down before the
// engine closes.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return errors.New("server: already shut down")
	}
	s.ln.Close()
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, drainTimeout)
		defer cancel()
	}
	// Stop every session's reading: the request in progress finishes,
	// the ones pipelined behind it are not read.
	s.mu.Lock()
	for _, sess := range s.sessions {
		sess.stopReading()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	graceful := true
	select {
	case <-done:
	case <-ctx.Done():
		graceful = false
		s.cancel() // abort in-flight statements at their next batch
		s.mu.Lock()
		for _, sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.cancel()
	err := s.db.Close()
	if err == nil && !graceful {
		err = fmt.Errorf("server: drain deadline expired; in-flight statements were cancelled")
	}
	return err
}

// cachedStmt is one shared statement-cache entry: the tokenized
// template plus the last plan built for it. Plans are generic
// (parameter-independent), so one plan serves every binding; it is
// stamped with the catalog version it was built against and rebuilt —
// not trusted — when the catalog has moved (DDL, stats refresh, layout
// migration all bump the version).
type cachedStmt struct {
	pp   *sql.Prepared
	plan atomic.Pointer[plan.Plan]
}

// stmtCache is the server-wide prepared-statement and plan cache:
// tokenized templates keyed by whitespace/case-normalized statement
// text, shared across sessions. Eviction is clock-ish: when full, an
// arbitrary entry makes room (statement texts in a workload are few;
// the cap is a memory bound, not a tuning surface).
type stmtCache struct {
	mu    sync.Mutex
	stmts map[string]*cachedStmt
	hits  atomic.Int64
	miss  atomic.Int64
	// planHits/planMiss count executions served by a cached plan vs.
	// those that (re)planned — the plan-cache effectiveness signal.
	planHits atomic.Int64
	planMiss atomic.Int64
}

// normalizeSQL canonicalizes a statement text for cache keying:
// whitespace runs collapse to one space and characters outside
// single-quoted strings fold to lower case, so "SELECT  A FROM T" and
// "select a from t" share one cache entry (and one plan).
func normalizeSQL(text string) string {
	var b strings.Builder
	b.Grow(len(text))
	inStr := false
	space := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		if inStr {
			b.WriteByte(c)
			if c == '\'' {
				inStr = false
			}
			continue
		}
		switch {
		case c == '\'':
			inStr = true
			b.WriteByte(c)
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			space = true
		default:
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			b.WriteByte(c)
		}
	}
	return b.String()
}

// get returns the cached entry for text, preparing and caching it on a
// miss.
func (c *stmtCache) get(text string) (*cachedStmt, error) {
	key := normalizeSQL(text)
	c.mu.Lock()
	if cs, ok := c.stmts[key]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return cs, nil
	}
	c.mu.Unlock()
	pp, err := sql.Prepare(text)
	if err != nil {
		return nil, err
	}
	c.miss.Add(1)
	c.mu.Lock()
	if cs, ok := c.stmts[key]; ok { // lost the prepare race: share the winner
		c.mu.Unlock()
		return cs, nil
	}
	if len(c.stmts) >= stmtCacheSize {
		for k := range c.stmts {
			delete(c.stmts, k)
			break
		}
	}
	cs := &cachedStmt{pp: pp}
	c.stmts[key] = cs
	c.mu.Unlock()
	return cs, nil
}

// Stats reports cache hits and misses since start.
func (c *stmtCache) Stats() (hits, misses int64) { return c.hits.Load(), c.miss.Load() }

// size reports the number of cached statement entries.
func (c *stmtCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.stmts)
}

// StmtCacheStats exposes the shared statement cache's hit/miss counters
// (observability for the hsqld daemon and tests).
func (s *Server) StmtCacheStats() (hits, misses int64) { return s.cache.Stats() }

// PlanCacheStats exposes the plan cache's effectiveness counters and
// current size: hits are executions that reused a cached, still-valid
// plan; misses planned (first execution, or invalidated by a catalog
// change).
func (s *Server) PlanCacheStats() (hits, misses int64, size int) {
	return s.cache.planHits.Load(), s.cache.planMiss.Load(), s.cache.size()
}

// execCachedRead executes a read statement through the plan cache: a
// cached plan stamped with the current catalog version is reused as-is;
// otherwise the statement is planned and the plan published for
// subsequent executions. DDL, statistics refresh and layout migration
// all bump the catalog version, so stale plans are never trusted.
func (s *Server) execCachedRead(ctx context.Context, cs *cachedStmt, q *query.Query) (*engine.Result, error) {
	if p := cs.plan.Load(); p != nil && p.CatalogVersion == s.db.Catalog().Version() {
		s.cache.planHits.Add(1)
		mPlanCacheHits.Inc()
		return s.db.ExecPlannedContext(ctx, q, p)
	}
	s.cache.planMiss.Add(1)
	mPlanCacheMiss.Inc()
	p, err := s.db.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	cs.plan.Store(p)
	return s.db.ExecPlannedContext(ctx, q, p)
}

// execStatement runs one bound statement under the statement context:
// a read through its cache entry's plan slot, anything else through Exec.
func (s *Server) execStatement(ctx context.Context, st *sql.Statement, cs *cachedStmt) (*wire.Response, error) {
	var res *engine.Result
	var err error
	if q := st.Query; q != nil && !st.Explain && !st.ExplainAnalyze && (q.Kind == query.Select || q.Kind == query.Aggregate) {
		res, err = s.execCachedRead(ctx, cs, q)
	} else {
		res, err = Exec(ctx, s.db, st)
	}
	if err != nil {
		return nil, err
	}
	if len(res.Cols) == 0 {
		return &wire.Response{Type: wire.MsgOK, Affected: res.Affected, Duration: res.Duration}, nil
	}
	return &wire.Response{
		Type: wire.MsgRows, Affected: res.Affected, Duration: res.Duration,
		Cols: res.Cols, Rows: res.Rows,
	}, nil
}

// Exec runs one parsed statement against db: the one statement
// dispatcher, behind the server's sessions and the embedded hsql shell.
// BEGIN, COMMIT and ROLLBACK need a session and are refused; so is DDL
// inside the explicit transaction ctx carries (engine.WithTxn). CREATE
// TABLE puts the table in the row store, ALTER TABLE moves it with
// MigrateLayout, and COPY takes the bulk-ingest path.
func Exec(ctx context.Context, db *engine.Database, st *sql.Statement) (*engine.Result, error) {
	if st.Txn != sql.TxnNone {
		return nil, errors.New("server: BEGIN, COMMIT and ROLLBACK need a server session")
	}
	if st.CreateTable != nil || st.AlterTable != nil {
		if engine.TxnFromContext(ctx) != nil {
			return nil, errors.New("server: DDL is not allowed inside a transaction")
		}
		start := time.Now()
		var err error
		if a := st.AlterTable; a != nil {
			err = db.MigrateLayout(a.Table, a.Store, a.Spec)
		} else {
			err = db.CreateTable(st.CreateTable, catalog.RowStore)
		}
		if err != nil {
			return nil, err
		}
		return &engine.Result{Duration: time.Since(start)}, nil
	}
	switch {
	case st.ShowMetrics:
		return engine.MetricsResult(), nil
	case st.Copy:
		return db.CopyRows(ctx, st.Query.Table, st.Query.Rows)
	case st.Explain:
		return db.ExplainContext(ctx, st.Query)
	case st.ExplainAnalyze:
		return db.ExplainAnalyzeContext(ctx, st.Query)
	}
	return db.ExecContext(ctx, st.Query)
}
