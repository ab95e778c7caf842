// Command hsql is an interactive SQL shell for the hybrid-store engine.
// It supports the engine's SQL dialect (CREATE TABLE, SELECT with
// aggregates and joins, INSERT, UPDATE, DELETE, and COPY <table> FROM
// VALUES ... — the bulk-ingest fast path: one atomic WAL record and
// one group-commit wait for the whole batch) plus shell commands:
//
//	\store <table> row|column     move a table between stores (blocking)
//	\stats                        show the live rolling workload window
//	\stats <table>                collect and show table statistics
//	\tables                       list tables with store and row count
//	\advise                       recommend a layout for the observed workload
//	\apply                        apply the last recommendation (blocking)
//	\migrate                      apply it as a background migration
//	\checkpoint                   snapshot durable state and truncate the WAL
//	\metrics                      dump the process metrics registry (same as SHOW METRICS)
//	\slowlog <dur>|off            arm the slow-query log at a threshold (JSON lines on stderr)
//	\quit
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
// With -connect <host:port> hsql is a remote shell instead: statements
// go to a running hsqld over the wire protocol and execute server-side
// (only \quit and \ping work among the shell commands).
//
// Every query prints its result and engine-measured execution time; the
// session's statements feed the live workload monitor, so \advise and
// \migrate reflect the workload actually executed. With -auto the
// advisory loop runs in the background and migrates stores on its own
// once the predicted improvement clears -hysteresis.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hybridstore/internal/advisor"
	"hybridstore/internal/catalog"
	"hybridstore/internal/client"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/metrics"
	"hybridstore/internal/migrate"
	"hybridstore/internal/monitor"
	"hybridstore/internal/schema"
	"hybridstore/internal/sql"
)

// session bundles the engine with its online-advisory stack.
type session struct {
	db      *engine.Database
	mon     *monitor.Monitor
	mgr     *migrate.Manager
	lastRec *advisor.Recommendation
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
		remoteShell(*connect)
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
	s := &session{
		db:  db,
		mon: mon,
		mgr: migrate.NewManager(db, adv, mon, mcfg),
	}
	if *auto > 0 {
		if err := s.mgr.AutoAdvise(*auto, *hysteresis); err != nil {
			fmt.Println("error:", err)
			os.Exit(1)
		}
		defer s.mgr.Stop()
		fmt.Printf("auto-advise every %v\n", *auto)
	}

	resolver := func(name string) *schema.Table {
		if e := db.Catalog().Table(name); e != nil {
			return e.Schema
		}
		return nil
	}

	fmt.Println("hybrid-store SQL shell — \\quit to exit, \\tables, \\stats, \\advise, \\migrate, \\store <t> row|column")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("hsql> ")
		} else {
			fmt.Print("  ... ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !s.command(trimmed) {
				return
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
		for _, stmtText := range sql.SplitStatements(buf.String()) {
			execute(db, resolver, stmtText)
		}
		buf.Reset()
		prompt()
	}
}

// remoteShell is the -connect mode: statements are sent verbatim to an
// hsqld server over the Go driver (parsing, execution and the workload
// monitor all run server-side), results print exactly like local mode.
func remoteShell(addr string) {
	conn, err := client.Dial(addr, client.Options{Name: "hsql"})
	if err != nil {
		fmt.Println("error:", err)
		os.Exit(1)
	}
	defer conn.Close()
	fmt.Printf("connected to %s — \\quit to exit, \\ping to probe\n", addr)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("hsql> ")
		} else {
			fmt.Print("  ... ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			switch strings.Fields(trimmed)[0] {
			case "\\quit", "\\q":
				return
			case "\\ping":
				start := time.Now()
				if err := conn.Ping(context.Background()); err != nil {
					fmt.Println("error:", err)
				} else {
					fmt.Printf("pong (%v)\n", time.Since(start))
				}
			case "\\metrics":
				res, err := conn.Exec(context.Background(), "SHOW METRICS;")
				if err != nil {
					fmt.Println("error:", err)
					break
				}
				printResult(&engine.Result{
					Cols: res.Cols, Rows: res.Rows,
					Affected: res.Affected, Duration: res.Duration,
				})
			case "\\stats":
				res, err := conn.Exec(context.Background(), "SHOW METRICS;")
				if err != nil {
					fmt.Println("error:", err)
					break
				}
				vals := map[string]float64{}
				for _, row := range res.Rows {
					if len(row) == 2 {
						vals[row[0].String()] = row[1].Float()
					}
				}
				hits, miss := vals["hs_plan_cache_hits_total"], vals["hs_plan_cache_misses_total"]
				if total := hits + miss; total > 0 {
					fmt.Printf("plan cache: %d entries, %.0f hits / %.0f misses (%.1f%% hit rate)\n",
						int(vals["hs_plan_cache_size"]), hits, miss, 100*hits/total)
				} else {
					fmt.Println("plan cache: no planned reads yet")
				}
				fmt.Printf("stmt cache: %.0f hits / %.0f misses\n",
					vals["hs_server_stmt_cache_hits"], vals["hs_server_stmt_cache_misses"])
				fmt.Printf("txns: %.0f active, %.0f begun, %.0f committed, %.0f aborted, %.0f conflicts\n",
					vals["hs_txn_active"], vals["hs_txn_begin_total"], vals["hs_txn_commit_total"],
					vals["hs_txn_abort_total"], vals["hs_txn_conflict_total"])
				fmt.Printf("row store arena: %.0f bytes; %.0f keys folded\n",
					vals["hs_rowstore_arena_bytes"], vals["hs_txn_fold_keys_total"])
				fmt.Printf("column store: %.0f bytes resident for %.0f bytes of payload\n",
					vals["hs_colstore_resident_bytes"], vals["hs_colstore_payload_bytes"])
				fmt.Printf("indexes: %.0f bytes\n", vals["hs_index_bytes"])
			default:
				fmt.Println("unknown remote command (only \\quit, \\ping, \\metrics and \\stats work over -connect):", trimmed)
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
		for _, stmtText := range sql.SplitStatements(buf.String()) {
			res, err := conn.Exec(context.Background(), stmtText)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			printResult(&engine.Result{
				Cols: res.Cols, Rows: res.Rows,
				Affected: res.Affected, Duration: res.Duration,
			})
		}
		buf.Reset()
		prompt()
	}
}

func execute(db *engine.Database, resolver sql.Resolver, stmtText string) {
	st, err := sql.Parse(stmtText, resolver)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if st.Txn != sql.TxnNone {
		fmt.Println("error: BEGIN/COMMIT/ROLLBACK need a server session (connect with -connect)")
		return
	}
	if st.CreateTable != nil {
		if err := db.CreateTable(st.CreateTable, catalog.RowStore); err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("created table %s (row store)\n", st.CreateTable.Name)
		return
	}
	var res *engine.Result
	switch {
	case st.ShowMetrics:
		res = engine.MetricsResult()
	case st.Explain:
		res, err = db.ExplainContext(context.Background(), st.Query)
	case st.ExplainAnalyze:
		res, err = db.ExplainAnalyzeContext(context.Background(), st.Query)
	default:
		res, err = db.Exec(st.Query)
	}
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printResult(res)
}

func printResult(res *engine.Result) {
	if len(res.Cols) > 0 {
		fmt.Println(strings.Join(res.Cols, " | "))
		limit := len(res.Rows)
		const maxShown = 25
		if limit > maxShown {
			limit = maxShown
		}
		for _, row := range res.Rows[:limit] {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			fmt.Println(strings.Join(parts, " | "))
		}
		if len(res.Rows) > limit {
			fmt.Printf("... (%d more rows)\n", len(res.Rows)-limit)
		}
	}
	fmt.Printf("(%d rows, %v)\n", res.Affected, res.Duration)
}

// command handles backslash commands; it returns false on \quit.
func (s *session) command(line string) bool {
	db := s.db
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\quit", "\\q":
		return false
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
	case "\\store":
		var store catalog.StoreKind
		switch {
		case len(fields) == 3 && strings.EqualFold(fields[2], "row"):
			store = catalog.RowStore
		case len(fields) == 3 && strings.EqualFold(fields[2], "column"):
			store = catalog.ColumnStore
		default:
			fmt.Println("usage: \\store <table> row|column")
			return true
		}
		if err := db.MigrateLayout(fields[1], store, nil); err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("moved %s to the %s store\n", fields[1], store)
	case "\\checkpoint":
		if err := db.Checkpoint(); err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("checkpoint written; WAL truncated")
	case "\\metrics":
		printResult(engine.MetricsResult())
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
			ts := db.TxnStats()
			fmt.Printf("txns: %d active, %d begun, %d committed, %d aborted, %d conflicts\n",
				ts.Active, ts.Begins, ts.Commits, ts.Aborts, ts.Conflicts)
			fp := db.Footprint()
			fmt.Printf("row store arena: %d bytes; %d keys folded\n", fp.RowArena, ts.FoldKeys)
			fmt.Printf("column store: %d bytes resident for %d bytes of payload\n", fp.ColResident, fp.ColPayload)
			fmt.Printf("indexes: %d bytes\n", fp.Index)
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
		s.lastRec = rec
		fmt.Printf("estimated runtimes: RS-only %.2fms, CS-only %.2fms, table-level %.2fms, partitioned %.2fms\n",
			rec.RowOnlyCost/1e6, rec.ColumnOnlyCost/1e6, rec.TableLevelCost/1e6, rec.PartitionedCost/1e6)
		for _, ddl := range rec.DDL {
			fmt.Println(" ", ddl)
		}
	case "\\apply":
		if s.lastRec == nil {
			fmt.Println("no recommendation yet — run \\advise first")
			break
		}
		moved, err := s.mgr.Migrate(s.lastRec)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("layout applied (%d tables moved)\n", len(moved))
	case "\\migrate":
		if s.lastRec == nil {
			fmt.Println("no recommendation yet — run \\advise first")
			break
		}
		rec := s.lastRec
		go func() {
			moved, err := s.mgr.Migrate(rec)
			switch {
			case err != nil:
				fmt.Printf("\nmigration error: %v\nhsql> ", err)
			case len(moved) > 0:
				fmt.Printf("\nbackground migration done: %s\nhsql> ", strings.Join(moved, ", "))
			default:
				fmt.Print("\nbackground migration: layout already in place, nothing moved\nhsql> ")
			}
		}()
		fmt.Println("background migration started — \\tables shows progress")
	default:
		fmt.Println("unknown command:", fields[0])
	}
	return true
}
