package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hybridstore/internal/advisor"
	"hybridstore/internal/catalog"
	"hybridstore/internal/client"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/engine"
	"hybridstore/internal/migrate"
	"hybridstore/internal/monitor"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/server"
	"hybridstore/internal/value"
	"hybridstore/internal/wal"
	"hybridstore/internal/workload"
)

// Statement classes of htap_durable.
const (
	clsCopy    = "copy"    // writer: one bulk-ingest frame
	clsInsert1 = "insert1" // writer: auto-commit single-row INSERT
	clsUpdate1 = "update1" // writer: auto-commit single-row UPDATE
	clsTxn     = "txn"     // writer: BEGIN, two UPDATEs, COMMIT
	clsAgg     = "agg"     // reader: grouped aggregate on the column table
	clsSumBal  = "sum_bal" // reader: SUM(balance), which transfers conserve
	clsRPoint  = "r_point" // reader: key lookup
	htapDMLs   = 50        // single-row statements per writer cycle
	htapTxns   = 50        // transactions per writer cycle
	htapAggs   = 3         // grouped aggregates per reader cycle
	htapRPoint = 4         // key lookups per reader cycle
	openBal    = 1000.0    // every account's opening balance
	htapUpdSQL = "UPDATE t SET k0 = ? WHERE id = ?"
	htapAccSQL = "UPDATE accounts SET balance = ? WHERE id = ?"
	htapAggSQL = "SELECT g1, SUM(k0), AVG(k3) FROM t GROUP BY g1"
	htapSumSQL = "SELECT SUM(balance) FROM accounts"
	htapPtSQL  = "SELECT id, k0, k1, f0, g0 FROM t WHERE id = ?"
)

func accountsSchema() *schema.Table {
	return schema.MustNew("accounts", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "balance", Type: value.Double},
		{Name: "owner", Type: value.Integer},
	}, "id")
}

// htapSizes are the workload's dimensions.
type htapSizes struct {
	rows, accounts, frame int
	compactDelta          int
	compactMin, advise    time.Duration
}

// htapModel is what the writer knows it has been acknowledged: the state
// the database must hold after recovery.
type htapModel struct {
	nextID   int64             // ids below it are in t
	k0       map[int64]float64 // acknowledged k0 updates
	balances []float64
}

// htapBench is the htap_durable workload: a durable engine (WAL with
// group commit, fsync on) with the background merge scheduler running, a
// writer client mixing bulk ingest, single-row DML and transactions, and
// a reader client running analytics beside it.
type htapBench struct {
	cfg  config
	sz   htapSizes
	spec *workload.TableSpec
	dir  string

	db  *engine.Database
	mgr *migrate.Manager
	srv *server.Server

	w, r   *client.Conn
	wStmt  map[string]*client.Stmt
	rStmt  map[string]*client.Stmt
	wRng   *rand.Rand
	rRng   *rand.Rand
	maker  *rowMaker
	model  htapModel
	series map[string]*series
	stats  runStats
	cycles int

	copyRows      int64
	copyTime      time.Duration
	userBytes     int64
	walBytes      int64
	checkpointS   float64
	deltaPeak     int
	recoveryS     float64
	recoveredRows int
	migrations0   float64
}

func newHTAP(cfg config) bench {
	b := &htapBench{cfg: cfg, spec: workload.StandardTable("t")}
	b.sz = htapSizes{rows: 20_000, accounts: 10_000, frame: 128, compactDelta: 1024, compactMin: time.Second, advise: time.Second}
	if cfg.smoke {
		b.sz = htapSizes{rows: 1000, accounts: 200, frame: 64, compactDelta: 256, compactMin: 50 * time.Millisecond, advise: 100 * time.Millisecond}
	}
	return b
}

func (b *htapBench) setup() error {
	dir, err := os.MkdirTemp(b.cfg.scratch, "htap-")
	if err != nil {
		return err
	}
	b.dir = dir
	if b.db, err = engine.OpenOptions(dir, engine.Options{}); err != nil {
		return err
	}
	b.maker = newRowMaker(b.spec, b.cfg.seed)
	if err := b.db.CreateTable(b.spec.Schema, catalog.ColumnStore); err != nil {
		return err
	}
	for lo := 0; lo < b.sz.rows; lo += loadBatch {
		rows := make([][]value.Value, 0, loadBatch)
		for id := lo; id < min(lo+loadBatch, b.sz.rows); id++ {
			rows = append(rows, b.maker.row(int64(id)))
		}
		if _, err := b.db.Exec(&query.Query{Kind: query.Insert, Table: "t", Rows: rows}); err != nil {
			return err
		}
	}
	if err := b.db.Compact("t"); err != nil {
		return err
	}
	if err := b.db.CreateTable(accountsSchema(), catalog.RowStore); err != nil {
		return err
	}
	acc := make([][]value.Value, b.sz.accounts)
	b.model = htapModel{nextID: int64(b.sz.rows), k0: map[int64]float64{}, balances: make([]float64, b.sz.accounts)}
	for i := range acc {
		acc[i] = []value.Value{value.NewBigint(int64(i)), value.NewDouble(openBal), value.NewInt(int64(i % 97))}
		b.model.balances[i] = openBal
	}
	if _, err := b.db.Exec(&query.Query{Kind: query.Insert, Table: "accounts", Rows: acc}); err != nil {
		return err
	}
	if err := b.db.Checkpoint(); err != nil {
		return err
	}

	// The merge scheduler runs as in hsqld. The advisory tick stays on,
	// but with a hysteresis no recommendation can meet, so the layout
	// never moves under the measurement.
	mon := monitor.New(b.db, monitor.DefaultConfig())
	mcfg := migrate.DefaultConfig()
	mcfg.CompactDeltaRows, mcfg.CompactMinInterval = b.sz.compactDelta, b.sz.compactMin
	b.mgr = migrate.NewManager(b.db, advisor.New(costmodel.DefaultModel()), mon, mcfg)
	if err := b.mgr.AutoAdvise(b.sz.advise, 2); err != nil {
		return err
	}
	b.migrations0 = registryValues()["hs_engine_migrations_total"]

	if b.srv, err = server.Serve(b.db, "127.0.0.1:0", server.Config{}); err != nil {
		return err
	}
	addr := b.srv.Addr().String()
	if b.w, err = client.Dial(addr, client.Options{Name: "htap-w"}); err != nil {
		return err
	}
	if b.r, err = client.Dial(addr, client.Options{Name: "htap-r"}); err != nil {
		return err
	}
	ctx := context.Background()
	prep := func(c *client.Conn, texts ...string) (map[string]*client.Stmt, error) {
		out := map[string]*client.Stmt{}
		for _, t := range texts {
			st, err := c.Prepare(ctx, t)
			if err != nil {
				return nil, fmt.Errorf("prepare %q: %w", t, err)
			}
			out[t] = st
		}
		return out, nil
	}
	if b.wStmt, err = prep(b.w, insertSQLFor(b.spec.Schema), htapUpdSQL, htapAccSQL); err != nil {
		return err
	}
	if b.rStmt, err = prep(b.r, htapAggSQL, htapSumSQL, htapPtSQL); err != nil {
		return err
	}
	b.wRng = rand.New(rand.NewSource(b.cfg.seed*1_000_003 + 11))
	b.rRng = rand.New(rand.NewSource(b.cfg.seed*1_000_003 + 12))
	b.series = map[string]*series{}
	perSec := map[string]int{clsCopy: 40, clsInsert1: 400, clsUpdate1: 400, clsTxn: 800, clsAgg: 800, clsSumBal: 800, clsRPoint: 3000}
	for class, n := range perSec {
		b.series[class] = b.stats.rec.add(newSeries(class, int(b.cfg.seconds*float64(n))+256))
	}
	// Warm-up: one cycle of each client, untimed.
	if err := b.writerCycle(false); err != nil {
		return err
	}
	return b.readerCycle(false)
}

func (b *htapBench) observe(class string, timed bool, d time.Duration) {
	if timed {
		b.series[class].observe(d)
	}
}

// writerCycle is the writer's fixed cycle: one bulk-ingest frame, then
// single-row statements, then transactions.
func (b *htapBench) writerCycle(timed bool) error {
	ctx := context.Background()
	m := &b.model
	enc := wal.NewEncoder()

	rows := make([][]value.Value, b.sz.frame)
	for i := range rows {
		rows[i] = b.maker.row(m.nextID + int64(i))
		enc.Row(rows[i])
	}
	t0 := time.Now()
	cp, err := b.w.CopyIn(ctx, "t", b.spec.Schema.NumColumns())
	if err != nil {
		return err
	}
	for _, row := range rows {
		if err := cp.Send(row...); err != nil {
			return fmt.Errorf("copy send: %w", err)
		}
	}
	n, err := cp.Close()
	d := time.Since(t0)
	if err != nil || n != len(rows) {
		return fmt.Errorf("copy close: %d of %d rows acknowledged: %v", n, len(rows), err)
	}
	m.nextID += int64(n)
	b.observe(clsCopy, timed, d)
	if timed {
		b.copyRows += int64(n)
		b.copyTime += d
	}

	for i := 0; i < htapDMLs; i++ {
		var res *client.Result
		var t0 time.Time
		class := clsInsert1
		if i%2 == 0 {
			row := b.maker.row(m.nextID)
			enc.Row(row)
			t0 = time.Now()
			res, err = b.wStmt[insertSQLFor(b.spec.Schema)].Exec(ctx, row...)
			if err == nil {
				m.nextID++
			}
		} else {
			class = clsUpdate1
			id, v := b.wRng.Int63n(int64(b.sz.rows)), float64(b.wRng.Intn(10000))/100
			enc.Value(value.NewDouble(v))
			t0 = time.Now()
			res, err = b.wStmt[htapUpdSQL].Exec(ctx, value.NewDouble(v), value.NewBigint(id))
			if err == nil {
				m.k0[id] = v
			}
		}
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("dml: %w", err)
		}
		if res.Affected != 1 {
			return fmt.Errorf("dml: %d rows affected, want 1", res.Affected)
		}
		b.observe(class, timed, d)
	}

	for i := 0; i < htapTxns; i++ {
		from, to := b.wRng.Intn(b.sz.accounts), b.wRng.Intn(b.sz.accounts-1)
		if to >= from {
			to++
		}
		amount := float64(1 + b.wRng.Intn(10))
		nf, nt := m.balances[from]-amount, m.balances[to]+amount
		enc.Value(value.NewDouble(nf))
		enc.Value(value.NewDouble(nt))
		t0 := time.Now()
		for {
			err = b.transfer(ctx, from, to, nf, nt)
			if err == nil || !client.IsRetryable(err) {
				break
			}
		}
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("txn: %w", err)
		}
		m.balances[from], m.balances[to] = nf, nt
		b.observe(clsTxn, timed, d)
	}
	if timed {
		b.userBytes += int64(enc.Len())
	}
	return nil
}

// transfer moves an amount between two accounts in one transaction.
func (b *htapBench) transfer(ctx context.Context, from, to int, nf, nt float64) error {
	tx, err := b.w.Begin(ctx)
	if err != nil {
		return err
	}
	for _, u := range []struct {
		id  int
		bal float64
	}{{from, nf}, {to, nt}} {
		if _, err := tx.Exec(ctx, htapAccSQL, value.NewDouble(u.bal), value.NewBigint(int64(u.id))); err != nil {
			tx.Rollback(ctx) //nolint:errcheck // the statement's error is the one to report
			return err
		}
	}
	return tx.Commit(ctx)
}

// readerCycle is the reader's cycle: grouped aggregates on the column
// table, the conserved sum, and a few key lookups.
func (b *htapBench) readerCycle(timed bool) error {
	ctx := context.Background()
	for i := 0; i < htapAggs; i++ {
		t0 := time.Now()
		res, err := b.rStmt[htapAggSQL].Query(ctx)
		d := time.Since(t0)
		if err != nil || len(res.Rows) == 0 {
			return fmt.Errorf("agg: %d rows: %v", len(res.Rows), err)
		}
		b.observe(clsAgg, timed, d)
	}

	t0 := time.Now()
	res, err := b.rStmt[htapSumSQL].Query(ctx)
	d := time.Since(t0)
	if err != nil {
		return fmt.Errorf("sum(balance): %w", err)
	}
	if got, want := res.Rows[0][0].Float(), openBal*float64(b.sz.accounts); got != want {
		return fmt.Errorf("sum(balance) = %v, want %v: a reader saw a transfer half done", got, want)
	}
	b.observe(clsSumBal, timed, d)

	for i := 0; i < htapRPoint; i++ {
		id := b.rRng.Int63n(int64(b.sz.rows))
		t0 = time.Now()
		res, err = b.rStmt[htapPtSQL].Query(ctx, value.NewBigint(id))
		d = time.Since(t0)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != id {
			return fmt.Errorf("lookup of id %d: %d rows: %v", id, len(res.Rows), err)
		}
		b.observe(clsRPoint, timed, d)
	}
	return nil
}

func (b *htapBench) walSize() int64 {
	st, err := os.Stat(filepath.Join(b.dir, "wal.log"))
	if err != nil {
		return 0
	}
	return st.Size()
}

func (b *htapBench) run(d time.Duration) error {
	start := time.Now()
	deadline := start.Add(d)
	stop := make(chan struct{})
	var wg, bg sync.WaitGroup
	errs := make([]error, 2)
	loop := func(i int, cycle func(bool) error) {
		defer wg.Done()
		for errs[i] == nil && time.Now().Before(deadline) {
			errs[i] = cycle(true)
		}
	}
	wg.Add(2)
	go loop(0, b.writerCycle)
	go loop(1, b.readerCycle)

	// Half-way through, one checkpoint; all along, the delta's size.
	walStart := b.walSize()
	var cpErr error
	bg.Add(2)
	go func() {
		defer bg.Done()
		select {
		case <-stop:
			return
		case <-time.After(d / 2):
		}
		b.walBytes += b.walSize() - walStart
		t0 := time.Now()
		cpErr = b.db.Checkpoint()
		b.checkpointS = time.Since(t0).Seconds()
		walStart = b.walSize()
	}()
	go func() {
		defer bg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if n, err := b.db.DeltaRows("t"); err == nil && n > b.deltaPeak {
					b.deltaPeak = n
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()
	b.walBytes += b.walSize() - walStart
	b.stats.wall += time.Since(start)
	for _, err := range append(errs, cpErr) {
		if err != nil {
			b.stats.failed++
			return err
		}
	}
	return nil
}

func (b *htapBench) runStats() *runStats { return &b.stats }

// classes: the reader's two classes. The writer's statements wait for an
// fsync each, and on this host's virtual disk the time of an fsync drifts
// by a factor of two for minutes; they show in ops_per_s, which their
// mean sets, and in the per-layer metrics.
func (b *htapBench) classes() (point, scan []string) { return []string{clsRPoint}, []string{clsAgg} }

// memBytesPerRow compacts first: how much of the table the run's last
// merge left in the delta is chance, the merged size is not.
func (b *htapBench) memBytesPerRow() (float64, error) {
	if err := b.db.Compact("t"); err != nil {
		return 0, err
	}
	return bytesPerRow(b.db, "t")
}

// verify crashes the engine with a transaction open, reopens the
// directory and checks that exactly the acknowledged state came back:
// every bulk-ingested, inserted and updated row, every committed
// transfer, and nothing of the open transaction.
func (b *htapBench) verify() error {
	ctx := context.Background()
	if moved := registryValues()["hs_engine_migrations_total"] - b.migrations0; moved != 0 {
		return fmt.Errorf("htap: %v layout migrations ran under the measurement, want 0", moved)
	}
	tx, err := b.w.Begin(ctx)
	if err != nil {
		return err
	}
	if _, err := tx.Exec(ctx, htapAccSQL, value.NewDouble(-1), value.NewBigint(0)); err != nil {
		return err
	}
	b.mgr.Stop()
	if err := b.db.Crash(); err != nil {
		return err
	}
	b.stopServer() // its engine is dead; the close error says so
	t0 := time.Now()
	db, err := engine.Open(b.dir)
	if err != nil {
		return fmt.Errorf("htap: recovery: %w", err)
	}
	b.recoveryS = time.Since(t0).Seconds()
	b.db = db

	m := &b.model
	got, err := db.Exec(&query.Query{Kind: query.Select, Table: "t"})
	if err != nil {
		return err
	}
	b.recoveredRows = len(got.Rows)
	if int64(len(got.Rows)) != m.nextID {
		return fmt.Errorf("htap oracle: %d rows recovered, %d acknowledged", len(got.Rows), m.nextID)
	}
	k0 := b.spec.Keyfigures[0]
	for _, row := range got.Rows {
		id := row[0].Int()
		want := b.maker.row(id)
		if v, ok := m.k0[id]; ok {
			want[k0] = value.NewDouble(v)
		}
		for j := range want {
			if !value.Equal(row[j], want[j]) {
				return fmt.Errorf("htap oracle: id %d column %d: recovered %v, acknowledged %v", id, j, row[j], want[j])
			}
		}
	}
	acc, err := db.Exec(&query.Query{Kind: query.Select, Table: "accounts", OrderBy: []query.Order{{Col: 0}}})
	if err != nil {
		return err
	}
	if len(acc.Rows) != len(m.balances) {
		return fmt.Errorf("htap oracle: %d accounts recovered, want %d", len(acc.Rows), len(m.balances))
	}
	for i, row := range acc.Rows {
		if row[1].Double() != m.balances[i] {
			return fmt.Errorf("htap oracle: account %d: recovered balance %v, committed %v", i, row[1], m.balances[i])
		}
	}
	return nil
}

// replay walks the workload's nominal mix on the recovered engine: per
// writer cycle one bulk-ingest frame, its single-row statements and its
// transactions, with as many reader cycles as statements allow.
func (b *htapBench) replay(_ int, tr *tracer, n int) (*walker, error) {
	m := &b.model // fresh rows continue from the last acknowledged id
	rng := rand.New(rand.NewSource(b.cfg.seed*1_000_003 + 13))
	insertSQL := insertSQLFor(b.spec.Schema)
	var sample []*stmt
	for len(sample) < n {
		rows := make([][]value.Value, b.sz.frame)
		for i := range rows {
			rows[i] = b.maker.row(m.nextID)
			m.nextID++
		}
		sample = append(sample, &stmt{class: clsCopy, copyTable: "t", copyRows: rows})
		for i := 0; i < htapDMLs; i++ {
			if i%2 == 0 {
				id := m.nextID
				m.nextID += 2 // one key for the walk, one for the stage breakdown
				sample = append(sample, &stmt{class: clsInsert1, text: insertSQL, params: b.maker.row(id),
					again: func() []value.Value { return b.maker.row(id + 1) }})
			} else {
				sample = append(sample, &stmt{class: clsUpdate1, text: htapUpdSQL, params: []value.Value{
					value.NewDouble(float64(rng.Intn(10000)) / 100), value.NewBigint(rng.Int63n(int64(b.sz.rows)))}})
			}
		}
		for i := 0; i < htapTxns; i++ {
			from, to := rng.Intn(b.sz.accounts), rng.Intn(b.sz.accounts)
			sample = append(sample, &stmt{class: clsTxn, steps: []*stmt{
				{class: clsTxn, text: htapAccSQL, params: []value.Value{value.NewDouble(openBal), value.NewBigint(int64(from))}},
				{class: clsTxn, text: htapAccSQL, params: []value.Value{value.NewDouble(openBal), value.NewBigint(int64(to))}},
			}})
		}
		for c := 0; c < 4; c++ {
			for i := 0; i < htapAggs; i++ {
				sample = append(sample, &stmt{class: clsAgg, text: htapAggSQL})
			}
			sample = append(sample, &stmt{class: clsSumBal, text: htapSumSQL})
			for i := 0; i < htapRPoint; i++ {
				sample = append(sample, &stmt{class: clsRPoint, text: htapPtSQL,
					params: []value.Value{value.NewBigint(rng.Int63n(int64(b.sz.rows)))}})
			}
		}
	}
	return walkAll(b.db, tr, sample[:n])
}

func (b *htapBench) probes(p *probeSet) error {
	p.set("engine.checkpoint_s", b.checkpointS)
	p.set("engine.recovery_s", b.recoveryS)
	p.set("engine.recovered_rows", float64(b.recoveredRows))
	p.set("colstore.delta_rows_peak", float64(b.deltaPeak))
	p.set("txn.client_p50_ms", float64(percentile(merged(b.stats.rec.pick(clsTxn)), 0.5))/1e6)
	p.set("txn.autocommit_p50_us", float64(percentile(merged(b.stats.rec.pick(clsInsert1)), 0.5))/1e3)
	if b.copyTime > 0 {
		p.set("ingest.rows_per_s", float64(b.copyRows)/b.copyTime.Seconds())
	}
	if b.userBytes > 0 {
		p.set("wal.bytes_per_user_byte", float64(b.walBytes)/float64(b.userBytes))
	}
	if err := p.walAppend(b.dir); err != nil {
		return err
	}
	rows := make([][]value.Value, min(b.sz.rows, probeRows))
	for i := range rows {
		rows[i] = b.maker.row(int64(i))
	}
	p.colstore(b.spec, rows)
	return p.txnBeginCommit(b.spec, rows)
}

func (b *htapBench) stopServer() {
	for _, c := range []*client.Conn{b.w, b.r} {
		if c != nil {
			c.Close()
		}
	}
	b.w, b.r = nil, nil
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		b.srv.Shutdown(ctx) //nolint:errcheck // closes the engine too; close() reports nothing
		cancel()
		b.srv = nil
	}
}

func (b *htapBench) close() {
	if b.mgr != nil {
		b.mgr.Stop()
	}
	if b.srv != nil {
		b.stopServer()
	} else if b.db != nil {
		b.db.Close() //nolint:errcheck // the directory is removed next
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}
