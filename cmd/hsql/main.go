// Command hsql is an interactive SQL shell for the hybrid-store engine.
// It supports the engine's SQL dialect (CREATE TABLE, SELECT with
// aggregates and joins, INSERT, UPDATE, DELETE, COPY <table> FROM
// VALUES ... — the bulk-ingest fast path: one atomic WAL record and
// one group-commit wait for the whole batch — and ALTER TABLE, which
// moves a table between stores or into a partitioned layout) plus shell
// commands:
//
//	\stats                        show the live rolling workload window
//	\stats <table>                collect and show table statistics
//	\tables                       list tables with store and row count
//	\advise                       recommend a layout for the observed workload
//	\checkpoint                   snapshot durable state and truncate the WAL
//	\metrics                      dump the process metrics registry (same as SHOW METRICS)
//	\slowlog <dur>|off            arm the slow-query log at a threshold (JSON lines on stderr)
//	\quit
//
// \advise prints the recommendation as ALTER TABLE statements; pasting
// them applies it, and the migration blocks until the table has moved.
//
// EXPLAIN ANALYZE <statement> executes the statement with tracing armed
// and prints one row per execution stage (wall time, rows in/out,
// storage counters such as blocks decoded vs zone-map-skipped, morsel
// and per-worker busy breakdown) instead of the statement's rows.
// SHOW METRICS dumps the process-wide metrics registry; both also work
// over -connect since they travel as ordinary result sets.
//
// With -data <dir> the session is durable: every statement is logged to
// a write-ahead log before it is acknowledged, and restarting hsql with
// the same -data recovers the database (tables, layouts, indexes, data).
//
// With -connect <host:port> hsql is a remote shell instead: statements,
// ALTER TABLE included, go to a running hsqld over the wire protocol and
// execute server-side (among the shell commands only \quit, \ping,
// \metrics and \stats work). Both modes run every statement through the
// same dispatcher, server.Exec.
//
// Every query prints its result and engine-measured execution time; the
// session's statements feed the live workload monitor, so \advise
// reflects the workload actually executed. With -auto the advisory loop
// runs in the background and migrates stores on its own once the
// predicted improvement clears -hysteresis.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hybridstore/internal/advisor"
	"hybridstore/internal/client"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/metrics"
	"hybridstore/internal/migrate"
	"hybridstore/internal/monitor"
	"hybridstore/internal/server"
	"hybridstore/internal/sql"
)

// session bundles the engine with its online-advisory stack.
type session struct {
	db  *engine.Database
	mon *monitor.Monitor
	mgr *migrate.Manager
}

func main() {
	auto := flag.Duration("auto", 0, "auto-advise interval; also the idle ceiling of the delta-merge cadence (0 disables, e.g. 30s)")
	hysteresis := flag.Float64("hysteresis", -1, "min relative improvement before auto-migrating (-1 = default)")
	compactRows := flag.Int("compact-delta", 0, "delta rows that trigger a background merge on a column store; needs -auto (0 = default 50000)")
	compactMin := flag.Duration("compact-min-interval", 0, "floor of the adaptive delta-merge cadence under bulk-ingest (COPY) pressure; needs -auto (0 = default 1s, negative disables adaptation)")
	dataDir := flag.String("data", "", "data directory for durable mode (WAL + snapshots; empty = in-memory)")
	groupCommit := flag.Int("group-commit", 0, "max WAL records per fsync batch (0 = default)")
	connect := flag.String("connect", "", "connect to a running hsqld at host:port instead of embedding the engine")
	workers := flag.Int("workers", 0, "worker-pool slots for morsel-parallel scans (0 = GOMAXPROCS)")
	flag.Parse()
	if *workers > 0 {
		exec.SetDefaultSize(*workers)
	}

	if *connect != "" {
		conn, err := client.Dial(*connect, client.Options{Name: "hsql"})
		if err != nil {
			fmt.Println("error:", err)
			os.Exit(1)
		}
		defer conn.Close()
		fmt.Printf("connected to %s — \\quit to exit, \\ping, \\stats, \\metrics\n", *connect)
		run := func(text string) (*engine.Result, error) {
			res, err := conn.Exec(context.Background(), text)
			if err != nil {
				return nil, err
			}
			return &engine.Result{Cols: res.Cols, Rows: res.Rows, Affected: res.Affected, Duration: res.Duration}, nil
		}
		repl(os.Stdin, run, func(fields []string) { remoteCommand(conn, run, fields) })
		return
	}

	var db *engine.Database
	if *dataDir != "" {
		var err error
		db, err = engine.OpenOptions(*dataDir, engine.Options{GroupCommit: *groupCommit})
		if err != nil {
			fmt.Println("error:", err)
			os.Exit(1)
		}
		defer func() {
			if err := db.Close(); err != nil {
				fmt.Println("close error:", err)
			}
		}()
		fmt.Printf("durable mode: %s (%d tables recovered)\n", *dataDir, len(db.Catalog().Names()))
	} else {
		db = engine.New()
	}
	adv := advisor.New(costmodel.DefaultModel())
	mon := monitor.New(db, monitor.DefaultConfig())
	mcfg := migrate.DefaultConfig()
	if *compactRows > 0 {
		mcfg.CompactDeltaRows = *compactRows
	}
	if *compactMin != 0 {
		mcfg.CompactMinInterval = *compactMin
	}
	s := &session{db: db, mon: mon, mgr: migrate.NewManager(db, adv, mon, mcfg)}
	if *auto > 0 {
		if err := s.mgr.AutoAdvise(*auto, *hysteresis); err != nil {
			fmt.Println("error:", err)
			os.Exit(1)
		}
		defer s.mgr.Stop()
		fmt.Printf("auto-advise every %v\n", *auto)
	}

	fmt.Println("hybrid-store SQL shell — \\quit to exit, \\tables, \\stats, \\advise, \\metrics")
	repl(os.Stdin, s.exec, s.command)
}

// repl reads statements and backslash commands from in until \quit or
// EOF, in either mode: run executes each statement and command each
// backslash command but \quit and \metrics (SHOW METRICS, through run).
func repl(in io.Reader, run func(text string) (*engine.Result, error), command func(fields []string)) {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("hsql> ")
		} else {
			fmt.Print("  ... ")
		}
	}
	show := func(text string) {
		res, err := run(text)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		printResult(res)
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		if trimmed := strings.TrimSpace(line); buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			switch fields := strings.Fields(trimmed); fields[0] {
			case "\\quit", "\\q":
				return
			case "\\metrics":
				show("SHOW METRICS;")
			default:
				command(fields)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if !strings.Contains(line, ";") {
			prompt()
			continue
		}
		for _, text := range sql.SplitStatements(buf.String()) {
			show(text)
		}
		buf.Reset()
		prompt()
	}
}

// remoteCommand serves the backslash commands of -connect mode, where
// statements execute server-side: \ping and \stats.
func remoteCommand(conn *client.Conn, run func(string) (*engine.Result, error), fields []string) {
	switch fields[0] {
	case "\\ping":
		start := time.Now()
		if err := conn.Ping(context.Background()); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Printf("pong (%v)\n", time.Since(start))
		}
	case "\\stats":
		printStats(run)
	default:
		fmt.Println("unknown remote command (only \\quit, \\ping, \\metrics and \\stats work over -connect):", fields[0])
	}
}

// printStats prints the counters \stats shows in either mode, read from
// SHOW METRICS through run; the caches' lines only where a server runs.
func printStats(run func(string) (*engine.Result, error)) {
	res, err := run("SHOW METRICS;")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	vals := map[string]float64{}
	for _, row := range res.Rows {
		vals[row[0].String()] = row[1].Float()
	}
	if _, ok := vals["hs_plan_cache_size"]; ok {
		hits, miss := vals["hs_plan_cache_hits_total"], vals["hs_plan_cache_misses_total"]
		if total := hits + miss; total > 0 {
			fmt.Printf("plan cache: %d entries, %.0f hits / %.0f misses (%.1f%% hit rate)\n",
				int(vals["hs_plan_cache_size"]), hits, miss, 100*hits/total)
		} else {
			fmt.Println("plan cache: no planned reads yet")
		}
		fmt.Printf("stmt cache: %.0f hits / %.0f misses\n",
			vals["hs_server_stmt_cache_hits"], vals["hs_server_stmt_cache_misses"])
	}
	fmt.Printf("txns: %.0f active, %.0f begun, %.0f committed, %.0f aborted, %.0f conflicts\n",
		vals["hs_txn_active"], vals["hs_txn_begin_total"], vals["hs_txn_commit_total"],
		vals["hs_txn_abort_total"], vals["hs_txn_conflict_total"])
	fmt.Printf("row store arena: %.0f bytes; %.0f keys folded\n",
		vals["hs_rowstore_arena_bytes"], vals["hs_txn_fold_keys_total"])
	fmt.Printf("column store: %.0f bytes resident for %.0f bytes of payload\n",
		vals["hs_colstore_resident_bytes"], vals["hs_colstore_payload_bytes"])
	fmt.Printf("indexes: %.0f bytes\n", vals["hs_index_bytes"])
}

// exec parses one statement against the catalog and runs it through the
// server's statement dispatcher, as an hsqld session would.
func (s *session) exec(text string) (*engine.Result, error) {
	st, err := sql.Parse(text, server.Resolver(s.db))
	if err != nil {
		return nil, err
	}
	return server.Exec(context.Background(), s.db, st)
}

func printResult(res *engine.Result) {
	if len(res.Cols) > 0 {
		fmt.Println(strings.Join(res.Cols, " | "))
		for _, row := range res.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			fmt.Println(strings.Join(parts, " | "))
		}
	}
	fmt.Printf("(%d rows, %v)\n", res.Affected, res.Duration)
}

// command serves the embedded shell's backslash commands.
func (s *session) command(fields []string) {
	db := s.db
	switch fields[0] {
	case "\\tables":
		for _, name := range db.Catalog().Names() {
			e := db.Catalog().Table(name)
			n, _ := db.Rows(name)
			fmt.Printf("  %-20s %-12s %10d rows", name, e.Store, n)
			if e.Partitioning != nil {
				fmt.Printf("  %s", e.Partitioning)
			}
			if db.Migrating(name) {
				fmt.Print("  (migrating)")
			}
			fmt.Println()
		}
	case "\\checkpoint":
		if err := db.Checkpoint(); err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("checkpoint written; WAL truncated")
	case "\\slowlog":
		if len(fields) != 2 {
			fmt.Println("usage: \\slowlog <threshold, e.g. 100ms> | off")
			break
		}
		if strings.EqualFold(fields[1], "off") {
			db.SlowQueryLogHandle().SetThreshold(0)
			fmt.Println("slow-query log disarmed")
			break
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil || d <= 0 {
			fmt.Println("bad threshold:", fields[1])
			break
		}
		if sl := db.SlowQueryLogHandle(); sl != nil {
			sl.SetThreshold(d)
		} else {
			db.SetSlowQueryLog(engine.NewSlowQueryLog(os.Stderr, d))
		}
		fmt.Printf("slow-query log armed at %v (JSON lines on stderr)\n", d)
	case "\\stats":
		if len(fields) == 1 {
			ps := s.db.Pool().Stats()
			fmt.Printf("worker pool: %d slots (%d in use, %d queued; %d tasks done, peak queue %d)\n",
				ps.Size, ps.InUse, ps.Queued, ps.Done, ps.PeakQueued)
			printStats(s.exec)
			snap := s.mon.Snapshot()
			fmt.Printf("observed %d queries (%d in window)\n", snap.Seen, snap.WindowSeen)
			ph := metrics.Default().Histogram("hs_planning_seconds",
				"query planning latency (plan IR construction and costing)", "seconds")
			if c := ph.Count(); c > 0 {
				fmt.Printf("planning: %d plans, mean %.1fus, p50 %.1fus, p99 %.1fus\n",
					c, float64(ph.Sum())/float64(c)/1e3, ph.Quantile(0.5)/1e3, ph.Quantile(0.99)/1e3)
			}
			for _, name := range snap.Recorder.Tables() {
				o := snap.Recorder.Table(name)
				fmt.Printf("  %s: %d ops (ins %d, upd %d, del %d, sel %d, agg %d)\n", name,
					o.TotalQueries(), o.Inserts, o.Updates, o.Deletes, o.Selects, o.Aggregations)
			}
			break
		}
		if len(fields) != 2 {
			fmt.Println("usage: \\stats [table]")
			break
		}
		st, err := db.CollectStats(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		e := db.Catalog().Table(fields[1])
		fmt.Printf("  %s; per-column distinct/compression:\n", st)
		for i, c := range e.Schema.Columns[:e.Schema.Visible()] {
			fmt.Printf("    %-20s %-8s distinct=%-8d compression=%.2f\n",
				c.Name, c.Type, st.Distinct(i), st.CompressionOf(i))
		}
	case "\\advise":
		rec, err := s.mgr.Advise()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("estimated runtimes: RS-only %.2fms, CS-only %.2fms, table-level %.2fms, partitioned %.2fms\n",
			rec.RowOnlyCost/1e6, rec.ColumnOnlyCost/1e6, rec.TableLevelCost/1e6, rec.PartitionedCost/1e6)
		for _, ddl := range rec.DDL {
			fmt.Println(ddl)
		}
	default:
		fmt.Println("unknown command:", fields[0])
	}
}
