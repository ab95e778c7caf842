package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hybridstore/internal/catalog"
	"hybridstore/internal/client"
	"hybridstore/internal/engine"
	"hybridstore/internal/query"
	"hybridstore/internal/server"
	"hybridstore/internal/value"
	"hybridstore/internal/workload"
)

// Statement classes of oltp_point.
const (
	clsSelect     = "select"
	clsUpdate     = "update"
	clsInsert     = "insert"
	clsAdhocPoint = "adhoc_point"
	clsAdhocRange = "adhoc_range"
)

const (
	oltpSelectSQL = "SELECT id, k0, k1, f0, g0 FROM t WHERE id = ?"
	oltpUpdateSQL = "UPDATE t SET k0 = ?, k1 = ? WHERE id = ?"
	// oltpRangeRows is the length of the ad-hoc key-range report.
	oltpRangeRows = 50
	// oltpWarmup is how many untimed operations each client issues
	// during set-up: statements get prepared, plans cached, pages hot.
	oltpWarmup = 500
)

// An oltpOp is one generated operation of a client's stream.
type oltpOp struct {
	class  string
	key    int64
	v0, v1 float64       // update values
	row    []value.Value // insert row
	text   string        // ad-hoc statement, literals inline
}

// An oltpStream generates one client's operations from the seed alone.
// Updates and inserts stay on the client's own keys (id mod clients), so
// the final table does not depend on how the clients interleave.
type oltpStream struct {
	rng       *rand.Rand
	zipf      *rand.Zipf
	spec      *workload.TableSpec
	client    int64
	clients   int64
	tableRows int64
	inserted  int64
}

func newOLTPStream(seed int64, spec *workload.TableSpec, client, clients, tableRows int) *oltpStream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1))
	return &oltpStream{
		rng:  rng,
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(tableRows-1)),
		spec: spec, client: int64(client), clients: int64(clients), tableRows: int64(tableRows),
	}
}

func (s *oltpStream) next() oltpOp {
	r := s.rng.Intn(100)
	switch {
	case r < 50:
		// Zipf ranks are spread over the key space so that hot keys are
		// not all neighbours in the index.
		return oltpOp{class: clsSelect, key: int64(s.zipf.Uint64()*2_654_435_761) % s.tableRows}
	case r < 75:
		key := s.rng.Int63n(s.tableRows/s.clients)*s.clients + s.client
		return oltpOp{
			class: clsUpdate, key: key,
			v0: float64(s.rng.Intn(10000)) / 100, v1: float64(s.rng.Intn(10000)) / 100,
		}
	case r < 90:
		key := s.freshKey()
		return oltpOp{class: clsInsert, key: key, row: s.spec.RowGen(s.rng, key)}
	case r < 95:
		key := s.rng.Int63n(s.tableRows)
		return oltpOp{class: clsAdhocPoint, key: key, text: fmt.Sprintf("SELECT id, k0, k1 FROM t WHERE id = %d", key)}
	default:
		key := s.rng.Int63n(s.tableRows - oltpRangeRows)
		return oltpOp{class: clsAdhocRange, key: key,
			text: fmt.Sprintf("SELECT id, k0, k1 FROM t WHERE id BETWEEN %d AND %d", key, key+oltpRangeRows-1)}
	}
}

// freshKey is the next key above the loaded table on this client's
// residue.
func (s *oltpStream) freshKey() int64 {
	key := (s.tableRows/s.clients+1+s.inserted)*s.clients + s.client
	s.inserted++
	return key
}

func (op oltpOp) String() string {
	return fmt.Sprintf("%s %d %.2f %.2f %v %s", op.class, op.key, op.v0, op.v1, op.row, op.text)
}

type oltpClient struct {
	conn          *client.Conn
	sel, upd, ins *client.Stmt
	stream        *oltpStream
	done          int // operations acknowledged, warm-up included
	series        map[string]*series
	failed        int
	err           error
}

// oltpBench is the oltp_point workload: the 30-attribute table in the
// row store of an in-memory engine, two closed-loop TCP clients.
type oltpBench struct {
	cfg     config
	rows    int
	clients int
	spec    *workload.TableSpec
	db      *engine.Database
	srv     *server.Server
	cl      []*oltpClient
	stats   runStats
}

func newOLTP(cfg config) *oltpBench {
	b := &oltpBench{cfg: cfg, rows: 100_000, clients: 2, spec: workload.StandardTable("t")}
	if cfg.smoke {
		b.rows = 2000
	}
	return b
}

func (b *oltpBench) setup() error {
	b.db = engine.New()
	if err := loadTable(b.db, b.spec, catalog.RowStore, nil, b.rows, b.cfg.seed); err != nil {
		return err
	}
	srv, err := server.Serve(b.db, "127.0.0.1:0", server.Config{})
	if err != nil {
		return err
	}
	b.srv = srv
	ctx := context.Background()
	insertSQL := insertSQLFor(b.spec.Schema)
	for c := 0; c < b.clients; c++ {
		conn, err := client.Dial(srv.Addr().String(), client.Options{Name: fmt.Sprintf("oltp%d", c)})
		if err != nil {
			return err
		}
		cl := &oltpClient{
			conn:   conn,
			stream: newOLTPStream(b.cfg.seed, b.spec, c, b.clients, b.rows),
			series: map[string]*series{},
		}
		b.cl = append(b.cl, cl)
		if cl.sel, err = conn.Prepare(ctx, oltpSelectSQL); err != nil {
			return err
		}
		if cl.upd, err = conn.Prepare(ctx, oltpUpdateSQL); err != nil {
			return err
		}
		if cl.ins, err = conn.Prepare(ctx, insertSQL); err != nil {
			return err
		}
		perClient := int(b.cfg.seconds*40_000) + 1024
		for class, share := range map[string]int{clsSelect: 50, clsUpdate: 25, clsInsert: 15, clsAdhocPoint: 5, clsAdhocRange: 5} {
			cl.series[class] = b.stats.rec.add(newSeries(class, perClient*(share+5)/100))
		}
	}
	// Warm-up: part of set-up, not timed per operation.
	return b.drive(func(cl *oltpClient) bool { return cl.done < oltpWarmup }, false)
}

// drive runs every client's closed loop until more reports false.
func (b *oltpBench) drive(more func(cl *oltpClient) bool, timed bool) error {
	var wg sync.WaitGroup
	for _, cl := range b.cl {
		wg.Add(1)
		go func(cl *oltpClient) {
			defer wg.Done()
			for cl.err == nil && more(cl) {
				cl.step(timed)
			}
		}(cl)
	}
	wg.Wait()
	for _, cl := range b.cl {
		if cl.err != nil {
			return cl.err
		}
	}
	return nil
}

// step issues the client's next operation and checks its reply.
func (cl *oltpClient) step(timed bool) {
	ctx := context.Background()
	op := cl.stream.next()
	var res *client.Result
	var err error
	want := 1
	t0 := time.Now()
	switch op.class {
	case clsSelect:
		res, err = cl.sel.Query(ctx, value.NewBigint(op.key))
	case clsUpdate:
		res, err = cl.upd.Exec(ctx, value.NewDouble(op.v0), value.NewDouble(op.v1), value.NewBigint(op.key))
	case clsInsert:
		res, err = cl.ins.Exec(ctx, op.row...)
	case clsAdhocPoint:
		res, err = cl.conn.Query(ctx, op.text)
	case clsAdhocRange:
		res, err = cl.conn.Query(ctx, op.text)
		want = oltpRangeRows
	}
	d := time.Since(t0)
	if err == nil {
		got := res.Affected
		if op.class != clsUpdate && op.class != clsInsert {
			got = len(res.Rows)
			if got > 0 && res.Rows[0][0].Int() != op.key {
				err = fmt.Errorf("oltp %s: asked for id %d, got %d", op.class, op.key, res.Rows[0][0].Int())
			}
		}
		if err == nil && got != want {
			err = fmt.Errorf("oltp %s id %d: %d rows, want %d", op.class, op.key, got, want)
		}
	}
	if err != nil {
		cl.failed++
		cl.err = err
		return
	}
	cl.done++
	if timed {
		cl.series[op.class].observe(d)
	}
}

func (b *oltpBench) run(d time.Duration) error {
	start := time.Now()
	deadline := start.Add(d)
	err := b.drive(func(*oltpClient) bool { return time.Now().Before(deadline) }, true)
	b.stats.wall += time.Since(start)
	for _, cl := range b.cl {
		b.stats.failed += cl.failed
	}
	return err
}

func (b *oltpBench) runStats() *runStats { return &b.stats }

func (b *oltpBench) classes() (point, scan []string) {
	return []string{clsSelect}, []string{clsAdhocRange}
}

func (b *oltpBench) memBytesPerRow() (float64, error) { return bytesPerRow(b.db, "t") }

// verify compares the final table with a replay of the generated
// streams: each client's acknowledged operations, in order, applied to
// the generated rows.
func (b *oltpBench) verify() error {
	want := make(map[int64][]value.Value, b.rows)
	for _, row := range genRows(b.spec, b.rows, b.cfg.seed) {
		want[row[0].Int()] = row
	}
	for c, cl := range b.cl {
		s := newOLTPStream(b.cfg.seed, b.spec, c, b.clients, b.rows)
		for i := 0; i < cl.done; i++ {
			switch op := s.next(); op.class {
			case clsUpdate:
				row := want[op.key]
				row[b.spec.Keyfigures[0]] = value.NewDouble(op.v0)
				row[b.spec.Keyfigures[1]] = value.NewDouble(op.v1)
			case clsInsert:
				want[op.key] = op.row
			}
		}
	}
	got, err := b.db.Exec(&query.Query{Kind: query.Select, Table: "t"})
	if err != nil {
		return err
	}
	if len(got.Rows) != len(want) {
		return fmt.Errorf("oltp oracle: table has %d rows, replay of the streams %d", len(got.Rows), len(want))
	}
	for _, row := range got.Rows {
		w, ok := want[row[0].Int()]
		if !ok {
			return fmt.Errorf("oltp oracle: unexpected id %d", row[0].Int())
		}
		for j := range row {
			if !value.Equal(row[j], w[j]) {
				return fmt.Errorf("oltp oracle: id %d column %d: table %v, replay %v", row[0].Int(), j, row[j], w[j])
			}
		}
	}
	return nil
}

// sample is the replay's statement sample: n operations of a stream of
// its own with the workload's mix, inserting on keys that no client and
// no other pass reaches.
func (b *oltpBench) sample(pass, n int) []*stmt {
	s := newOLTPStream(b.cfg.seed, b.spec, b.clients, b.clients, b.rows)
	s.client = 0
	s.inserted = int64(pass+1) << 32
	insertSQL := insertSQLFor(b.spec.Schema)
	out := make([]*stmt, 0, n)
	for len(out) < n {
		op := s.next()
		st := &stmt{class: op.class}
		switch op.class {
		case clsSelect:
			st.text, st.params = oltpSelectSQL, []value.Value{value.NewBigint(op.key)}
		case clsUpdate:
			st.text = oltpUpdateSQL
			st.params = []value.Value{value.NewDouble(op.v0), value.NewDouble(op.v1), value.NewBigint(op.key)}
		case clsInsert:
			st.text, st.params = insertSQL, op.row
			// The stage breakdown's second execution inserts one more
			// row, on a fresh key.
			st.again = func() []value.Value {
				key := s.freshKey()
				return s.spec.RowGen(rand.New(rand.NewSource(key)), key)
			}
		case clsAdhocPoint, clsAdhocRange:
			st.text, st.adhoc = op.text, true
		}
		out = append(out, st)
	}
	return out
}

func (b *oltpBench) replay(pass int, tr *tracer, n int) (*walker, error) {
	return walkAll(b.db, tr, b.sample(pass, n))
}

func (b *oltpBench) probes(p *probeSet) error {
	if err := p.clientPing(b.cl[0].conn); err != nil {
		return err
	}
	p.serverCaches(b.srv)
	rows := genRows(b.spec, b.rows, b.cfg.seed)
	p.rowstore(b.spec, rows)
	return p.txnBeginCommit(b.spec, rows)
}

func (b *oltpBench) close() {
	for _, cl := range b.cl {
		cl.conn.Close()
	}
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		b.srv.Shutdown(ctx) //nolint:errcheck // in-memory engine: nothing to lose
		cancel()
	}
}
