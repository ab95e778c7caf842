package main

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/client"
	"hybridstore/internal/colstore"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/metrics"
	"hybridstore/internal/query"
	"hybridstore/internal/rowstore"
	"hybridstore/internal/server"
	"hybridstore/internal/value"
	"hybridstore/internal/wal"
	"hybridstore/internal/workload"
)

// A probeSet collects the per-layer metrics of one traced run: shares of
// the layer replay, deltas of the program's own counters over the
// untraced run, and single layers timed in isolation.
type probeSet struct {
	cfg        config
	vals       map[string]float64
	before     map[string]float64
	poolBefore exec.PoolStats
}

func newProbeSet(cfg config) *probeSet {
	return &probeSet{cfg: cfg, vals: map[string]float64{}}
}

func (p *probeSet) set(name string, v float64) { p.vals[name] = v }

func registryValues() map[string]float64 {
	out := map[string]float64{}
	for _, r := range metrics.Default().Rows() {
		out[r.Name] = r.Value
	}
	return out
}

// snapshotCounters remembers the program's counters before the untraced
// run; counterDeltas reports what the run added to them.
func (p *probeSet) snapshotCounters() {
	p.before = registryValues()
	p.poolBefore = exec.Default().Stats()
}

func (p *probeSet) counterDeltas() {
	now := registryValues()
	d := func(name string) float64 { return now[name] - p.before[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	p.set("wal.flushes", d("hs_wal_flushes_total"))
	p.set("wal.records_per_flush", ratio(d("hs_wal_records_total"), d("hs_wal_flushes_total")))
	p.set("migrate.merges", d("hs_delta_merge_total"))
	p.set("migrate.merge_rows", d("hs_delta_merge_rows_total"))
	p.set("server.statement_errors", d("hs_server_statement_errors_total"))
	p.set("txn.conflicts", d("hs_txn_conflict_total"))
	p.set("txn.aborts", d("hs_txn_abort_total"))
	p.set("txn.commit_ratio", ratio(d("hs_txn_commit_total"), d("hs_txn_begin_total")))
	reads := d("hs_engine_select_total") + d("hs_engine_aggregate_total")
	decoded := d("hs_colstore_blocks_decoded_total")
	skipped := d("hs_colstore_blocks_zone_skipped_total")
	p.set("colstore.blocks_decoded_per_query", ratio(decoded, reads))
	p.set("colstore.zone_skip_ratio", ratio(skipped, skipped+decoded+d("hs_colstore_blocks_zone_wholesale_total")))
	pool := exec.Default().Stats()
	p.set("exec.tasks_done", float64(pool.Done-p.poolBefore.Done))
	p.set("exec.queued_peak", float64(pool.PeakQueued))
}

// replay turns the traced replay's spans into layer shares. clientNs is
// the mean client-observed latency of the untraced run; what the replay
// does not account for of it is the server's residual: TCP, session
// queue, goroutine hand-off, pool admission.
func (p *probeSet) replay(spans []span, traced, plain *walker, clientNs float64) {
	means := layerMeans(spans, traced.statements)
	total := 0.0
	for name, ns := range means {
		total += ns
		p.set(name+"_ns", ns)
	}
	exec := means["engine.self"]
	for name, ns := range means {
		if len(name) > len("engine.stage_") && name[:len("engine.stage_")] == "engine.stage_" {
			exec += ns
		}
	}
	p.set("engine.exec_ns", exec)
	p.set("replay.total_ns", total)
	p.set("server.residual_us", (clientNs-total)/1e3)
	if plain.statements > 0 && plain.elapsed > 0 {
		p.set("trace.overhead_ratio",
			(float64(traced.elapsed)/float64(traced.statements))/(float64(plain.elapsed)/float64(plain.statements)))
	}
	if traced.statements > 0 {
		p.set("wire.response_bytes", float64(traced.respBytes)/float64(traced.statements))
	}
	if traced.qerrN > 0 {
		p.set("plan.est_rows_qerror", traced.qerrSum/float64(traced.qerrN))
	}
}

// clientPing is the round trip of an empty request: network stack plus
// session loop, the floor under every statement's latency.
func (p *probeSet) clientPing(c *client.Conn) error {
	const n = 2000
	ctx := context.Background()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := c.Ping(ctx); err != nil {
			return err
		}
	}
	p.set("client.ping_us", float64(time.Since(t0).Microseconds())/n)
	return nil
}

func (p *probeSet) serverCaches(srv *server.Server) {
	hits, misses := srv.StmtCacheStats()
	if hits+misses > 0 {
		p.set("server.stmt_cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	ph, pm, _ := srv.PlanCacheStats()
	if ph+pm > 0 {
		p.set("server.plan_cache_hit_ratio", float64(ph)/float64(ph+pm))
	}
}

// probeRows caps the standalone tables, so a probe costs about a second.
const probeRows = 25_000

func capRows(rows [][]value.Value) [][]value.Value {
	if len(rows) > probeRows {
		return rows[:probeRows]
	}
	return rows
}

// perOp times fn over n calls and returns mean nanoseconds per call.
func perOp(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// medianOf runs fn reps times and returns the median nanoseconds.
func medianOf(reps int, fn func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0).Nanoseconds())
	}
	sort.Float64s(ds)
	return ds[reps/2]
}

// rowstore times a standalone row-store table built from the workload's
// own rows.
func (p *probeSet) rowstore(spec *workload.TableSpec, rows [][]value.Value) {
	rows = capRows(rows)
	n := len(rows)
	t := rowstore.New(spec.Schema)
	p.set("rowstore.insert_ns_per_row", perOp(n, func(i int) {
		if err := t.Insert(rows[i : i+1]); err != nil {
			panic(err)
		}
	}))
	rng := rand.New(rand.NewSource(p.cfg.seed))
	key := make([]value.Value, 1)
	p.set("rowstore.lookup_pk_ns", perOp(20_000, func(int) {
		key[0] = value.NewBigint(rng.Int63n(int64(n)))
		if _, ok := t.LookupPK(key); !ok {
			panic("rowstore probe: key not found")
		}
	}))
	col := spec.OLTPAttrs[0]
	p.set("rowstore.update_ns", perOp(5000, func(i int) {
		pred := &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(rng.Int63n(int64(n)))}
		if _, err := t.Update(pred, map[int]value.Value{col: value.NewDouble(float64(i))}); err != nil {
			panic(err)
		}
	}))
	seen := 0
	ns := medianOf(5, func() {
		seen = 0
		t.Scan(nil, func(int, []value.Value) bool { seen++; return true })
	})
	p.set("rowstore.scan_ns_per_row", ns/float64(seen))
	p.set("rowstore.bytes_per_row", float64(t.MemoryBytes())/float64(t.Rows()))
}

// colstore times a standalone column-store table built from the
// workload's own rows: delta inserts, the merge, then the read kernels on
// the merged main fragment.
func (p *probeSet) colstore(spec *workload.TableSpec, rows [][]value.Value) {
	rows = capRows(rows)
	n := len(rows)
	t := colstore.New(spec.Schema)
	t.AutoMerge = false
	t0 := time.Now()
	for lo := 0; lo < n; lo += 1024 {
		if err := t.Insert(rows[lo:min(lo+1024, n)]); err != nil {
			panic(err)
		}
	}
	p.set("colstore.insert_ns_per_row", float64(time.Since(t0).Nanoseconds())/float64(n))
	t0 = time.Now()
	t.Merge()
	p.set("colstore.merge_ns_per_row", float64(time.Since(t0).Nanoseconds())/float64(n))

	specs := []agg.Spec{{Func: agg.Sum, Col: spec.Keyfigures[0]}, {Func: agg.Avg, Col: spec.Keyfigures[1]}}
	groupBy := []int{spec.GroupBys[0]}
	serial := &exec.Ctx{Pool: exec.NewPool(1)}
	one := medianOf(7, func() { t.AggregateExec(specs, groupBy, nil, serial) })
	p.set("colstore.aggregate_ns_per_row", one/float64(n))
	wide := &exec.Ctx{Pool: exec.NewPool(runtime.NumCPU())}
	all := medianOf(7, func() { t.AggregateExec(specs, groupBy, nil, wide) })
	p.set("exec.parallel_speedup", one/all)

	cols := append([]int{0}, spec.Keyfigures[:4]...)
	cols = append(cols, spec.Filters[0], spec.Filters[1], spec.GroupBys[0])
	seen := 0
	ns := medianOf(5, func() {
		seen = 0
		t.ScanBatches(nil, cols, func(rids []int32, _ [][]value.Value) bool { seen += len(rids); return true })
	})
	p.set("colstore.scan_ns_per_row", ns/float64(seen))

	rng := rand.New(rand.NewSource(p.cfg.seed))
	key := make([]value.Value, 1)
	p.set("colstore.lookup_pk_ns", perOp(20_000, func(int) {
		key[0] = value.NewBigint(rng.Int63n(int64(n)))
		if _, ok := t.LookupPK(key); !ok {
			panic("colstore probe: key not found")
		}
	}))
	p.set("colstore.bytes_per_row", float64(t.MemoryBytes())/float64(t.Rows()))
	rate := 0.0
	for c := 0; c < spec.Schema.NumColumns(); c++ {
		rate += t.CompressionRate(c)
	}
	p.set("colstore.compression_rate", rate/float64(spec.Schema.NumColumns()))
}

// walAppend is the durable-append floor: one small record, written and
// fsynced, on a scratch log in the directory the durable engine uses.
func (p *probeSet) walAppend(dir string) error {
	path := filepath.Join(dir, "probe.wal")
	log, err := wal.Open(path, 1, 0, wal.Options{})
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer log.Close()
	rec := &wal.Record{Kind: wal.RecInsert, Table: "probe", Width: 2,
		Rows: [][]value.Value{{value.NewBigint(1), value.NewDouble(1.5)}}}
	const n = 200
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := log.Append(rec); err != nil {
			return err
		}
	}
	p.set("wal.append_durable_us", float64(time.Since(t0).Microseconds())/n)
	return nil
}

// txnBeginCommit times an explicit one-statement transaction against an
// in-memory engine: Begin, one UPDATE by key, Commit.
func (p *probeSet) txnBeginCommit(spec *workload.TableSpec, rows [][]value.Value) error {
	if len(rows) > 5000 {
		rows = rows[:5000]
	}
	db := engine.New()
	defer db.Close()
	if err := db.CreateTable(spec.Schema, catalog.RowStore); err != nil {
		return err
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: spec.Schema.Name, Rows: rows}); err != nil {
		return err
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(p.cfg.seed))
	col := spec.OLTPAttrs[0]
	var first error
	ns := perOp(2000, func(i int) {
		tx, err := db.Begin(ctx)
		if err == nil {
			_, err = tx.ExecContext(ctx, &query.Query{
				Kind: query.Update, Table: spec.Schema.Name,
				Set:  map[int]value.Value{col: value.NewDouble(float64(i))},
				Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(rng.Int63n(int64(len(rows))))},
			})
		}
		if err == nil {
			err = tx.Commit(ctx)
		}
		if err != nil && first == nil {
			first = err
		}
	})
	p.set("txn.begin_commit_ns", ns)
	return first
}
