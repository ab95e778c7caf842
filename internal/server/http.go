// Debug HTTP listener: Prometheus metrics, pprof and a JSON status
// endpoint for one running Server. It binds a second (typically
// loopback-only) address so operational scraping never competes with —
// or is exposed on — the client protocol port.
package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"hybridstore/internal/engine"
	"hybridstore/internal/metrics"
)

// DebugServer is the HTTP side-listener started by ServeDebug.
//
//	GET /metrics          Prometheus text exposition of the process registry
//	GET /status           JSON snapshot: sessions, pool, stmt cache, tables
//	GET /debug/pprof/...  standard Go profiling endpoints
//	GET /slowlog          current slow-query threshold
//	PUT /slowlog?threshold=100ms   adjust it at runtime (0 or "off" disarms)
type DebugServer struct {
	ln    net.Listener
	http  *http.Server
	start time.Time
}

// ServeDebug starts the debug HTTP listener on addr (e.g.
// "127.0.0.1:7879"). It shares the server's engine and metrics registry
// and is independent of the wire-protocol listener's lifecycle: close it
// with Close.
func (s *Server) ServeDebug(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: debug listen %s: %w", addr, err)
	}
	ds := &DebugServer{ln: ln, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metrics.Default().WritePrometheus(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		ds.writeStatus(w, s)
	})
	mux.HandleFunc("/slowlog", func(w http.ResponseWriter, r *http.Request) {
		handleSlowlog(w, r, s.db)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ds.http = &http.Server{Handler: mux}
	go ds.http.Serve(ln)
	return ds, nil
}

// Addr returns the debug listener's bound address.
func (ds *DebugServer) Addr() net.Addr { return ds.ln.Addr() }

// Close stops the debug listener.
func (ds *DebugServer) Close() error { return ds.http.Close() }

// statusPool is the pool section of /status.
type statusPool struct {
	Slots      int   `json:"slots"`
	InUse      int   `json:"in_use"`
	Queued     int   `json:"queued"`
	Done       int64 `json:"tasks_done"`
	PeakQueued int64 `json:"peak_queued"`
}

// statusTable is one table line of /status.
type statusTable struct {
	Name  string `json:"name"`
	Store string `json:"store"`
	Rows  int    `json:"rows"`
}

// statusTxns is the transaction section of /status, mirroring the
// hs_txn_* instruments.
type statusTxns struct {
	Active    int64 `json:"active"`
	Begins    int64 `json:"begins"`
	Commits   int64 `json:"commits"`
	Aborts    int64 `json:"aborts"`
	Conflicts int64 `json:"conflicts"`
}

type statusBody struct {
	Addr          string        `json:"addr"`
	UptimeSeconds float64       `json:"uptime_seconds"`
	Sessions      int           `json:"sessions"`
	Pool          statusPool    `json:"pool"`
	StmtCacheHits int64         `json:"stmt_cache_hits"`
	StmtCacheMiss int64         `json:"stmt_cache_misses"`
	PlanCacheHits int64         `json:"plan_cache_hits"`
	PlanCacheMiss int64         `json:"plan_cache_misses"`
	PlanCacheSize int           `json:"plan_cache_size"`
	Txns          statusTxns    `json:"txns"`
	RowArenaBytes int64         `json:"rowstore_arena_bytes"`
	ColResident   int64         `json:"colstore_resident_bytes"`
	ColPayload    int64         `json:"colstore_payload_bytes"`
	IndexBytes    int64         `json:"index_bytes"`
	SlowThreshold string        `json:"slow_query_threshold"`
	Tables        []statusTable `json:"tables"`
}

func (ds *DebugServer) writeStatus(w http.ResponseWriter, s *Server) {
	ps := s.pool.Stats()
	hits, misses := s.cache.Stats()
	pHits, pMiss, pSize := s.PlanCacheStats()
	ts := s.db.TxnStats()
	fp := s.db.Footprint()
	body := statusBody{
		Addr:          s.Addr().String(),
		UptimeSeconds: time.Since(ds.start).Seconds(),
		Sessions:      s.Sessions(),
		Pool: statusPool{
			Slots: ps.Size, InUse: ps.InUse, Queued: ps.Queued,
			Done: ps.Done, PeakQueued: ps.PeakQueued,
		},
		StmtCacheHits: hits,
		StmtCacheMiss: misses,
		PlanCacheHits: pHits,
		PlanCacheMiss: pMiss,
		PlanCacheSize: pSize,
		Txns: statusTxns{
			Active: ts.Active, Begins: ts.Begins, Commits: ts.Commits,
			Aborts: ts.Aborts, Conflicts: ts.Conflicts,
		},
		RowArenaBytes: int64(fp.RowArena),
		ColResident:   int64(fp.ColResident),
		ColPayload:    int64(fp.ColPayload),
		IndexBytes:    int64(fp.Index),
		SlowThreshold: s.db.SlowQueryLogHandle().Threshold().String(),
		Tables:        []statusTable{},
	}
	for _, name := range s.db.Catalog().Names() {
		e := s.db.Catalog().Table(name)
		n, _ := s.db.Rows(name)
		body.Tables = append(body.Tables, statusTable{Name: name, Store: e.Store.String(), Rows: n})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

// handleSlowlog reads (GET) or adjusts (PUT/POST ?threshold=100ms|off)
// the slow-query log threshold at runtime.
func handleSlowlog(w http.ResponseWriter, r *http.Request, db *engine.Database) {
	sl := db.SlowQueryLogHandle()
	if r.Method == http.MethodPut || r.Method == http.MethodPost {
		if sl == nil {
			http.Error(w, "no slow-query log attached (start hsqld with -slow-query)", http.StatusConflict)
			return
		}
		raw := r.URL.Query().Get("threshold")
		var d time.Duration
		if raw != "off" && raw != "0" {
			var err error
			d, err = time.ParseDuration(raw)
			if err != nil || d < 0 {
				http.Error(w, "bad threshold (want e.g. 100ms, or off)", http.StatusBadRequest)
				return
			}
		}
		sl.SetThreshold(d)
	}
	fmt.Fprintf(w, "%s\n", sl.Threshold())
}
