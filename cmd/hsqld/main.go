// Command hsqld is the hybrid-store network daemon: it serves one
// engine over TCP using the internal/wire protocol, with sessions,
// prepared statements, admission control and graceful drain.
//
// Usage:
//
//	hsqld -listen :7878 -data /var/lib/hsql [-auto 30s] [-max-sessions 128]
//	      [-http 127.0.0.1:7879] [-slow-query 250ms] [-slow-log /path/queries.log]
//
// With -data the engine is durable: statements are write-ahead logged
// before acknowledgment and a restart (even after kill -9) recovers
// every acknowledged write. Bulk loads should use COPY <table> FROM
// VALUES ... (client.CopyIn in the Go driver): each batch is one
// atomic WAL record and one group-commit wait, so durable ingest runs
// far faster than per-row INSERT at the same durability. With -auto
// the online advisor watches the live workload — attributed per client
// session — and migrates table layouts in the background; the same
// loop merges column-store deltas on an adaptive cadence between
// -compact-min-interval (under ingest pressure) and the -auto interval
// (idle), triggering at -compact-delta rows.
//
// With -http a debug HTTP listener is bound alongside the protocol
// port, serving /metrics (Prometheus text exposition of the process
// registry: query latency histograms, WAL fsync latency, pool
// utilization, codec mix, ...), /status (JSON snapshot), /slowlog
// (GET/PUT the slow-query threshold) and /debug/pprof. Bind it to
// loopback: it is an operator surface, not a client one.
//
// With -slow-query every statement slower than the threshold is logged
// as one JSON line (to stderr, or to the -slow-log file) carrying its
// per-stage execution trace; the threshold is adjustable at runtime via
// the debug listener.
//
// SIGINT/SIGTERM drain gracefully: accepted requests finish, sessions
// close, and the engine checkpoints before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hybridstore/internal/advisor"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/engine"
	"hybridstore/internal/migrate"
	"hybridstore/internal/monitor"
	"hybridstore/internal/server"
)

func main() {
	var (
		listen      = flag.String("listen", ":7878", "TCP listen address")
		dataDir     = flag.String("data", "", "data directory for durable mode (WAL + snapshots; empty = in-memory)")
		groupCommit = flag.Int("group-commit", 0, "max WAL records per fsync batch (0 = default)")
		auto        = flag.Duration("auto", 0, "auto-advise interval for background layout migration; also the idle ceiling of the delta-merge cadence (0 disables)")
		hysteresis  = flag.Float64("hysteresis", -1, "min relative improvement before auto-migrating (-1 = default)")
		compactRows = flag.Int("compact-delta", 0, "delta rows that trigger a background merge on a column store; needs -auto (0 = default 50000)")
		compactMin  = flag.Duration("compact-min-interval", 0, "floor of the adaptive delta-merge cadence under bulk-ingest (COPY) pressure; needs -auto (0 = default 1s, negative disables adaptation)")
		maxSessions = flag.Int("max-sessions", 0, "max concurrent client sessions (0 = default 128)")
		workers     = flag.Int("workers", 0, "worker-pool slots shared by statement admission and morsel-parallel scans (0 = GOMAXPROCS)")
		maxFrame    = flag.Int("max-frame", 0, "max request/response frame bytes (0 = default 8 MiB)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-drain budget on shutdown")
		httpAddr    = flag.String("http", "", "debug HTTP listen address for /metrics, /status, /slowlog, /debug/pprof (empty = disabled; bind to loopback)")
		slowQuery   = flag.Duration("slow-query", 0, "slow-query log threshold (0 = disabled; adjustable at runtime via /slowlog)")
		slowLogPath = flag.String("slow-log", "", "slow-query log file (empty = stderr; JSON lines)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "hsqld: ", log.LstdFlags)

	var db *engine.Database
	var err error
	if *dataDir != "" {
		db, err = engine.OpenOptions(*dataDir, engine.Options{GroupCommit: *groupCommit})
		if err != nil {
			logger.Fatalf("open %s: %v", *dataDir, err)
		}
		logger.Printf("durable mode: %s (%d tables recovered)", *dataDir, len(db.Catalog().Names()))
	} else {
		db = engine.New()
		logger.Printf("in-memory mode (no -data): a restart loses all data")
	}

	// The slow-query log is attached even with a zero threshold when a
	// debug listener is requested, so /slowlog can arm it at runtime.
	if *slowQuery > 0 || *httpAddr != "" {
		slowW := io.Writer(os.Stderr)
		if *slowLogPath != "" {
			f, err := os.OpenFile(*slowLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				logger.Fatalf("slow-log: %v", err)
			}
			defer f.Close()
			slowW = f
		}
		db.SetSlowQueryLog(engine.NewSlowQueryLog(slowW, *slowQuery))
		if *slowQuery > 0 {
			logger.Printf("slow-query log armed at %v", *slowQuery)
		}
	}

	mon := monitor.New(db, monitor.DefaultConfig())
	mcfg := migrate.DefaultConfig()
	if *compactRows > 0 {
		mcfg.CompactDeltaRows = *compactRows
	}
	if *compactMin != 0 {
		mcfg.CompactMinInterval = *compactMin
	}
	mgr := migrate.NewManager(db, advisor.New(costmodel.DefaultModel()), mon, mcfg)
	if *auto > 0 {
		if err := mgr.AutoAdvise(*auto, *hysteresis); err != nil {
			logger.Fatalf("auto-advise: %v", err)
		}
		logger.Printf("auto-advise every %v", *auto)
	}

	srv, err := server.Serve(db, *listen, server.Config{
		MaxSessions: *maxSessions,
		Workers:     *workers,
		MaxFrame:    *maxFrame,
		Logf:        logger.Printf,
	})
	if err != nil {
		logger.Fatalf("%v", err)
	}
	logger.Printf("listening on %s", srv.Addr())

	if *httpAddr != "" {
		ds, err := srv.ServeDebug(*httpAddr)
		if err != nil {
			logger.Fatalf("%v", err)
		}
		defer ds.Close()
		logger.Printf("debug HTTP on http://%s (/metrics /status /slowlog /debug/pprof)", ds.Addr())
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigCh
	logger.Printf("%v: draining (budget %v)...", sig, *drain)
	if *auto > 0 {
		mgr.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	hits, misses := srv.StmtCacheStats()
	logger.Printf("stopped cleanly (stmt cache: %d hits, %d misses)", hits, misses)
	fmt.Println("bye")
}
