package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"hybridstore/internal/engine"
	"hybridstore/internal/plan"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/sql"
	"hybridstore/internal/trace"
	"hybridstore/internal/value"
	"hybridstore/internal/wire"
)

// A stmt is one generated SQL statement of a replay sample.
type stmt struct {
	class  string
	text   string
	params []value.Value
	// adhoc statements travel as text (wire.MsgExec) and are tokenized
	// on every execution, like a statement-cache miss; the others are
	// prepared once and travel as a handle.
	adhoc bool
	// again, when set, yields the statement to run for the stage
	// breakdown instead of running this one a second time (an INSERT
	// cannot be repeated with the same key).
	again func() []value.Value
	// copyTable and copyRows make the statement a bulk-ingest frame
	// (wire.MsgCopy), which carries typed rows and skips SQL entirely.
	copyTable string
	copyRows  [][]value.Value
	// steps makes the statement an explicit transaction: BEGIN, the
	// steps, COMMIT, walked under one root span.
	steps []*stmt
	// q makes the statement an in-process call: no wire, no SQL, the
	// query goes straight to the engine, as the offline advisor tool's
	// do. againQ is again for such a statement.
	q      *query.Query
	againQ func() *query.Query
}

// A walker takes statements through the layers by hand, single-threaded,
// in the order a request crosses them: encode request, decode request,
// tokenize (ad-hoc only), bind, plan (on a plan-cache miss), execute,
// encode response, decode response. It stands in for the server's
// session loop, whose statement and plan caches it mirrors with maps.
type walker struct {
	db       *engine.Database
	tr       *tracer // nil: record nothing; else also break engine time into stages
	prepared map[string]*sql.Prepared
	plans    map[string]*plan.Plan
	handles  map[string]uint64
	tx       *engine.Txn // the open explicit transaction, if any

	pending []pendingStages

	statements int
	elapsed    time.Duration // wall time inside walk, stage passes excluded
	respBytes  int64
	qerrSum    float64 // sum of planner estimate q-errors over planned reads
	qerrN      int
}

func newWalker(db *engine.Database, tr *tracer) *walker {
	return &walker{
		db: db, tr: tr,
		prepared: map[string]*sql.Prepared{},
		plans:    map[string]*plan.Plan{},
		handles:  map[string]uint64{},
	}
}

func (w *walker) resolve(name string) *schema.Table {
	if e := w.db.Catalog().Table(name); e != nil {
		return e.Schema
	}
	return nil
}

// request builds the frame a driver would send for s.
func (w *walker) request(s *stmt) *wire.Request {
	if s.adhoc {
		return &wire.Request{Type: wire.MsgExec, SQL: s.text, Params: s.params}
	}
	h, ok := w.handles[s.text]
	if !ok {
		h = uint64(len(w.handles) + 1)
		w.handles[s.text] = h
	}
	return &wire.Request{Type: wire.MsgStmtExec, Stmt: h, Params: s.params}
}

// pendingStages is a statement whose stage breakdown is still to be
// taken: it runs after the root span has ended, so the second execution
// is in nobody's time.
type pendingStages struct {
	engineSpan int
	q          *query.Query
}

// walk replays one statement as the root span of statement id.
func (w *walker) walk(ctx context.Context, id int, s *stmt) error {
	t0 := time.Now()
	root := w.tr.begin("replay.self", -1, id, s.class)
	var err error
	switch {
	case s.copyRows != nil:
		err = w.copyFrame(ctx, root, id, s)
	case s.steps != nil:
		err = w.transaction(ctx, root, id, s)
	case s.q != nil:
		err = w.direct(ctx, root, id, s)
	default:
		_, err = w.statement(ctx, root, id, s)
	}
	w.tr.end(root, 0, 0)
	w.elapsed += time.Since(t0)
	w.statements++
	if err != nil {
		return err
	}
	return w.flushStages(ctx)
}

// flushStages runs every pending statement again under EXPLAIN ANALYZE
// and attaches the stage rows to its engine span.
func (w *walker) flushStages(ctx context.Context) error {
	for _, ps := range w.pending {
		stages, err := explainStages(ctx, w.db, ps.q)
		if err != nil {
			return fmt.Errorf("explain analyze %s: %w", ps.q, err)
		}
		w.tr.attach(ps.engineSpan, stages)
	}
	w.pending = w.pending[:0]
	return nil
}

// statement walks one statement under span parent and returns the
// engine's result.
func (w *walker) statement(ctx context.Context, parent, id int, s *stmt) (*engine.Result, error) {
	tr := w.tr
	rq, err := w.send(parent, id, s.class, w.request(s))
	if err != nil {
		return nil, err
	}

	pp := w.prepared[s.text]
	if pp == nil || s.adhoc {
		sp := tr.begin("sql.prepare", parent, id, s.class)
		pp, err = sql.Prepare(s.text)
		tr.end(sp, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("prepare %q: %w", s.text, err)
		}
		if !s.adhoc {
			w.prepared[s.text] = pp
		}
	}

	sp := tr.begin("sql.bind", parent, id, s.class)
	st, err := pp.Bind(w.resolve, rq.Params)
	tr.end(sp, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("bind %q: %w", s.text, err)
	}
	var res *engine.Result
	var esp int
	switch {
	case st.Txn != sql.TxnNone:
		res, err = w.txnControl(ctx, parent, id, s, st.Txn)
	case st.Query == nil:
		err = fmt.Errorf("not a query")
	default:
		res, esp, err = w.execute(ctx, parent, id, s, st.Query)
	}
	if err != nil {
		return nil, fmt.Errorf("execute %q: %w", s.text, err)
	}

	if err := w.reply(parent, id, s.class, res); err != nil {
		return nil, err
	}

	// Statements of an open transaction are not run twice: the second
	// run would conflict with the first one's uncommitted claim.
	if tr != nil && w.tx == nil && st.Query != nil {
		q2 := st.Query
		if s.again != nil {
			st2, err := pp.Bind(w.resolve, s.again())
			if err != nil {
				return nil, err
			}
			q2 = st2.Query
		}
		w.pending = append(w.pending, pendingStages{engineSpan: esp, q: q2})
	}
	return res, nil
}

// execute runs the bound query the way the server does: reads go through
// the plan cache, everything else straight to ExecContext. It returns
// the index of the engine span.
func (w *walker) execute(ctx context.Context, parent, id int, s *stmt, q *query.Query) (*engine.Result, int, error) {
	tr := w.tr
	if w.tx != nil {
		ctx = engine.WithTxn(ctx, w.tx)
	}
	if q.Kind != query.Select && q.Kind != query.Aggregate {
		sp := tr.begin("engine.self", parent, id, s.class)
		res, err := w.db.ExecContext(ctx, q)
		if err == nil {
			tr.end(sp, res.Affected, 0)
		}
		return res, sp, err
	}
	key := s.text
	p := w.plans[key]
	planned := false
	if s.adhoc || p == nil || p.CatalogVersion != w.db.Catalog().Version() {
		sp := tr.begin("plan.build", parent, id, s.class)
		var err error
		p, err = w.db.PlanQuery(q)
		tr.end(sp, 0, 0)
		if err != nil {
			return nil, -1, err
		}
		planned = true
		if !s.adhoc {
			w.plans[key] = p
		}
	}
	sp := tr.begin("engine.self", parent, id, s.class)
	res, err := w.db.ExecPlannedContext(ctx, q, p)
	if err != nil {
		return nil, sp, err
	}
	tr.end(sp, 0, len(res.Rows))
	if planned {
		w.qerrSum += qerror(float64(p.Root.Estimate().Rows), float64(len(res.Rows)))
		w.qerrN++
	}
	return res, sp, nil
}

// txnControl runs BEGIN or COMMIT as the server's session does. COMMIT
// runs under the engine's own trace, because a commit cannot be run a
// second time for EXPLAIN ANALYZE; its stages are attached right away.
func (w *walker) txnControl(ctx context.Context, parent, id int, s *stmt, kind sql.TxnKind) (*engine.Result, error) {
	tr := w.tr
	sp := tr.begin("engine.self", parent, id, s.class)
	var err error
	var stages []stage
	switch kind {
	case sql.TxnBegin:
		w.tx, err = w.db.Begin(ctx)
	case sql.TxnCommit:
		if w.tx == nil {
			return nil, fmt.Errorf("COMMIT outside a transaction")
		}
		et := trace.New()
		err = w.tx.Commit(trace.WithTrace(ctx, et))
		w.tx = nil
		for _, es := range et.Spans() {
			if name := es.Stage(); name == "wal_wait" {
				stages = append(stages, stage{name: name, ns: es.Duration().Nanoseconds()})
			} else if name == "commit" {
				stages = append(stages, stage{name: "apply", ns: es.Duration().Nanoseconds()})
			}
		}
	default:
		err = fmt.Errorf("unsupported transaction control")
	}
	tr.end(sp, 0, 0)
	if err != nil {
		return nil, err
	}
	tr.attach(sp, stages)
	return &engine.Result{}, nil
}

// transaction walks BEGIN, the statement's steps and COMMIT under the
// root span.
func (w *walker) transaction(ctx context.Context, root, id int, s *stmt) error {
	begin := &stmt{class: s.class, text: "BEGIN"}
	commit := &stmt{class: s.class, text: "COMMIT"}
	for _, step := range append(append([]*stmt{begin}, s.steps...), commit) {
		if _, err := w.statement(ctx, root, id, step); err != nil {
			if w.tx != nil {
				w.tx.Rollback() //nolint:errcheck // already failing
				w.tx = nil
			}
			return err
		}
	}
	return nil
}

// direct hands an in-process statement to the engine.
func (w *walker) direct(ctx context.Context, parent, id int, s *stmt) error {
	sp := w.tr.begin("engine.self", parent, id, s.class)
	res, err := w.db.ExecContext(ctx, s.q)
	if err != nil {
		return fmt.Errorf("execute %s: %w", s.q, err)
	}
	w.tr.end(sp, res.Affected, len(res.Rows))
	if w.tr != nil {
		q2 := s.q
		if s.againQ != nil {
			q2 = s.againQ()
		}
		w.pending = append(w.pending, pendingStages{engineSpan: sp, q: q2})
	}
	return nil
}

// copyFrame walks one bulk-ingest frame: typed rows on the wire, no SQL,
// straight into the engine's ingest path.
func (w *walker) copyFrame(ctx context.Context, parent, id int, s *stmt) error {
	rq, err := w.send(parent, id, s.class, &wire.Request{
		Type: wire.MsgCopy, Table: s.copyTable, Width: len(s.copyRows[0]), Rows: s.copyRows,
	})
	if err != nil {
		return err
	}
	sp := w.tr.begin("engine.self", parent, id, s.class)
	res, err := w.db.CopyRows(ctx, rq.Table, rq.Rows)
	if err != nil {
		return fmt.Errorf("copy into %s: %w", rq.Table, err)
	}
	w.tr.end(sp, len(rq.Rows), 0)
	return w.reply(parent, id, s.class, res)
}

// send takes a request frame over the wire: the driver's encode, the
// server's decode.
func (w *walker) send(parent, id int, class string, rq *wire.Request) (*wire.Request, error) {
	sp := w.tr.begin("wire.encode_request", parent, id, class)
	frame := wire.EncodeRequest(rq)
	w.tr.end(sp, len(rq.Rows), 0)

	sp = w.tr.begin("wire.decode_request", parent, id, class)
	got, err := wire.DecodeRequest(frame)
	w.tr.end(sp, 0, len(rq.Rows))
	if err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	return got, nil
}

// reply takes the engine's result back over the wire: the server's
// encode, the driver's decode.
func (w *walker) reply(parent, id int, class string, res *engine.Result) error {
	rs := &wire.Response{Type: wire.MsgOK, Affected: res.Affected, Duration: res.Duration}
	if len(res.Cols) > 0 {
		rs.Type, rs.Cols, rs.Rows = wire.MsgRows, res.Cols, res.Rows
	}
	sp := w.tr.begin("wire.encode_response", parent, id, class)
	out := wire.EncodeResponse(rs)
	w.tr.end(sp, len(res.Rows), 0)
	w.respBytes += int64(len(out))

	sp = w.tr.begin("wire.decode_response", parent, id, class)
	_, err := wire.DecodeResponse(out)
	w.tr.end(sp, 0, len(res.Rows))
	if err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// qerror is the planner's cardinality error as a ratio >= 1; both sides
// are floored at one row so an empty result does not divide by zero.
func qerror(est, actual float64) float64 {
	est, actual = math.Max(est, 1), math.Max(actual, 1)
	return math.Max(est/actual, actual/est)
}

// topStages are the stage rows of EXPLAIN ANALYZE that partition a
// statement's engine time. Rows named after plan nodes ("scan#1") lie
// inside one of these and are left out.
var topStages = map[string]bool{
	"scan": true, "aggregate": true, "join": true, "apply": true, "wal_wait": true,
}

// explainStages executes q under EXPLAIN ANALYZE and returns its
// top-level stage rows.
func explainStages(ctx context.Context, db *engine.Database, q *query.Query) ([]stage, error) {
	res, err := db.ExplainAnalyzeContext(ctx, q)
	if err != nil {
		return nil, err
	}
	var out []stage
	for _, row := range res.Rows {
		name := row[0].Varchar()
		if !topStages[name] {
			continue
		}
		out = append(out, stage{name: name, ns: row[1].Int(), in: row[2].Int(), out: row[3].Int()})
	}
	return out, nil
}

// walkAll walks a sample of statements through db.
func walkAll(db *engine.Database, tr *tracer, sample []*stmt) (*walker, error) {
	w := newWalker(db, tr)
	ctx := context.Background()
	for i, s := range sample {
		if err := w.walk(ctx, i, s); err != nil {
			return nil, err
		}
	}
	return w, nil
}
