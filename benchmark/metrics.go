package main

// A metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step); Moves is
// the interaction table: which end-to-end metric, on which workload, the
// layer metric is expected to move, written down before measuring.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool    // true: higher is better
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Moves  string  // per-layer only
}

// endToEnd are the metrics a client of the system sees. Every workload
// reports every one of them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Higher: true, Bound: 0.25},
	{Name: "point_p50_us", Unit: "us", Bound: 0.25},
	{Name: "point_mean99_us", Unit: "us", Bound: 0.25},
	{Name: "scan_p50_ms", Unit: "ms", Bound: 0.25},
	{Name: "scan_mean99_ms", Unit: "ms", Bound: 0.25},
	{Name: "mem_bytes_per_row", Unit: "B", Bound: 0.10},
	{Name: "live_heap_mb", Unit: "MiB", Bound: 0.10},
}

// perLayer are the metrics of single layers. Times named *_ns without
// another unit are mean self-nanoseconds per replayed statement, so one
// workload's values add up to replay.total_ns. A workload reports 0 for
// a metric it does not measure.
var perLayer = []metricDef{
	{Name: "wire.encode_request_ns", Unit: "ns", Moves: "point_p50_us@oltp_point"},
	{Name: "wire.decode_request_ns", Unit: "ns", Moves: "point_p50_us@oltp_point"},
	{Name: "wire.encode_response_ns", Unit: "ns", Moves: "point_p50_us@oltp_point; scan_p50_ms@olap_scan via the projection class"},
	{Name: "wire.decode_response_ns", Unit: "ns", Moves: "point_p50_us@oltp_point; scan_p50_ms@olap_scan via the projection class"},
	{Name: "wire.response_bytes", Unit: "B", Moves: "scan_p50_ms@olap_scan via the projection class"},
	{Name: "client.ping_us", Unit: "us", Moves: "floor of point_p50_us@oltp_point"},
	{Name: "server.residual_us", Unit: "us", Moves: "point_p50_us, ops_per_s@oltp_point; a small share of replay.total_ns on olap_scan"},
	{Name: "server.stmt_cache_hit_ratio", Unit: "ratio", Higher: true, Moves: "scan_p50_ms, ops_per_s@oltp_point (the ad-hoc classes); counts look-ups by text only: Prepare and ad-hoc Exec"},
	{Name: "server.plan_cache_hit_ratio", Unit: "ratio", Higher: true, Moves: "scan_p50_ms, ops_per_s@oltp_point (the ad-hoc classes); about 1 on olap_scan"},
	{Name: "server.statement_errors", Unit: "count", Moves: "failed operations, any workload"},
	{Name: "sql.prepare_ns", Unit: "ns", Moves: "scan_p50_ms@oltp_point (ad-hoc range class)"},
	{Name: "sql.bind_ns", Unit: "ns", Moves: "point_p50_us@oltp_point"},
	{Name: "plan.build_ns", Unit: "ns", Moves: "scan_p50_ms@oltp_point (ad-hoc range); first executions@olap_scan"},
	{Name: "plan.est_rows_qerror", Unit: "ratio", Moves: "scan_p50_ms@olap_scan (join and top-K classes)"},
	{Name: "engine.exec_ns", Unit: "ns", Moves: "scan_p50_ms@olap_scan; point_p50_us@oltp_point"},
	{Name: "engine.self_ns", Unit: "ns", Moves: "point_p50_us@oltp_point"},
	{Name: "engine.stage_scan_ns", Unit: "ns", Moves: "scan_p50_ms@olap_scan, oltp_point"},
	{Name: "engine.stage_aggregate_ns", Unit: "ns", Moves: "scan_p50_ms@olap_scan, htap_durable"},
	{Name: "engine.stage_join_ns", Unit: "ns", Moves: "scan_mean99_ms@olap_scan"},
	{Name: "engine.stage_apply_ns", Unit: "ns", Moves: "ops_per_s@oltp_point; txn.client_p50_ms@htap_durable"},
	{Name: "engine.stage_wal_wait_ns", Unit: "ns", Moves: "txn.client_p50_ms@htap_durable; 0 on in-memory workloads"},
	{Name: "engine.checkpoint_s", Unit: "s", Moves: "scan_mean99_ms@htap_durable"},
	{Name: "engine.recovery_s", Unit: "s", Moves: "restart time@htap_durable"},
	{Name: "engine.recovered_rows", Unit: "count", Higher: true, Moves: "durability oracle@htap_durable"},
	{Name: "txn.begin_commit_ns", Unit: "ns", Moves: "txn.client_p50_ms@htap_durable; ops_per_s@oltp_point (auto-commit is a one-statement transaction)"},
	{Name: "txn.client_p50_ms", Unit: "ms", Moves: "ops_per_s@htap_durable"},
	{Name: "txn.autocommit_p50_us", Unit: "us", Moves: "ops_per_s@htap_durable"},
	{Name: "txn.conflicts", Unit: "count", Moves: "txn.client_p50_ms@htap_durable"},
	{Name: "txn.aborts", Unit: "count", Moves: "txn.client_p50_ms@htap_durable"},
	{Name: "txn.commit_ratio", Unit: "ratio", Higher: true, Moves: "ops_per_s@htap_durable"},
	{Name: "rowstore.lookup_pk_ns", Unit: "ns", Moves: "point_p50_us@oltp_point"},
	{Name: "rowstore.insert_ns_per_row", Unit: "ns", Moves: "ops_per_s, setup_s@oltp_point"},
	{Name: "rowstore.update_ns", Unit: "ns", Moves: "ops_per_s, point_mean99_us@oltp_point (readers wait behind updates); ops_per_s@advisor_offline"},
	{Name: "rowstore.scan_ns_per_row", Unit: "ns", Moves: "scan_p50_ms@oltp_point"},
	{Name: "rowstore.bytes_per_row", Unit: "B", Moves: "mem_bytes_per_row@oltp_point"},
	{Name: "colstore.aggregate_ns_per_row", Unit: "ns", Moves: "scan_p50_ms@olap_scan"},
	{Name: "colstore.scan_ns_per_row", Unit: "ns", Moves: "scan_mean99_ms@olap_scan (projection class)"},
	{Name: "colstore.lookup_pk_ns", Unit: "ns", Moves: "point_p50_us@olap_scan"},
	{Name: "colstore.bytes_per_row", Unit: "B", Moves: "mem_bytes_per_row@olap_scan"},
	{Name: "colstore.compression_rate", Unit: "ratio", Higher: true, Moves: "mem_bytes_per_row@olap_scan"},
	{Name: "colstore.blocks_decoded_per_query", Unit: "count", Moves: "scan_p50_ms@olap_scan"},
	{Name: "colstore.zone_skip_ratio", Unit: "ratio", Higher: true, Moves: "scan_p50_ms@olap_scan (filtered class)"},
	{Name: "colstore.insert_ns_per_row", Unit: "ns", Moves: "ingest.rows_per_s@htap_durable; setup_s@olap_scan"},
	{Name: "colstore.merge_ns_per_row", Unit: "ns", Moves: "scan_mean99_ms@htap_durable; setup_s@olap_scan"},
	{Name: "colstore.delta_rows_peak", Unit: "count", Moves: "scan_p50_ms@htap_durable"},
	{Name: "exec.parallel_speedup", Unit: "ratio", Higher: true, Moves: "scan_p50_ms@olap_scan (one client, idle core)"},
	{Name: "exec.queued_peak", Unit: "count", Moves: "point_mean99_us@oltp_point"},
	{Name: "exec.tasks_done", Unit: "count", Moves: "informational"},
	{Name: "wal.append_durable_us", Unit: "us", Moves: "floor of txn.client_p50_ms@htap_durable"},
	{Name: "wal.records_per_flush", Unit: "ratio", Higher: true, Moves: "ops_per_s@htap_durable"},
	{Name: "wal.flushes", Unit: "count", Moves: "ops_per_s@htap_durable; 0 on in-memory workloads"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Moves: "ingest.rows_per_s@htap_durable"},
	{Name: "ingest.rows_per_s", Unit: "1/s", Higher: true, Moves: "ops_per_s@htap_durable"},
	{Name: "migrate.merges", Unit: "count", Moves: "scan_mean99_ms@htap_durable"},
	{Name: "migrate.merge_rows", Unit: "count", Moves: "scan_mean99_ms@htap_durable"},
	{Name: "migrate.layout_migrate_s", Unit: "s", Moves: "setup_s@advisor_offline"},
	{Name: "catalog.collect_stats_ms", Unit: "ms", Moves: "advisor.advise_ms@advisor_offline"},
	{Name: "advisor.advise_ms", Unit: "ms", Moves: "setup_s@advisor_offline"},
	{Name: "advisor.recommend_tables_ms", Unit: "ms", Moves: "advisor.advise_ms@advisor_offline"},
	{Name: "advisor.partition_candidates_ms", Unit: "ms", Moves: "advisor.advise_ms@advisor_offline"},
	{Name: "advisor.workload_s", Unit: "s", Moves: "ops_per_s@advisor_offline"},
	{Name: "advisor.row_only_s", Unit: "s", Moves: "advisor.regret@advisor_offline"},
	{Name: "advisor.column_only_s", Unit: "s", Moves: "advisor.regret@advisor_offline"},
	{Name: "advisor.regret", Unit: "ratio", Moves: "ops_per_s@advisor_offline; at most 1 means the advice paid"},
	{Name: "costmodel.estimate_workload_us", Unit: "us", Moves: "advisor.advise_ms@advisor_offline"},
	{Name: "costmodel.calibrate_s", Unit: "s", Moves: "informational"},
	{Name: "costmodel.est_error_ratio", Unit: "ratio", Moves: "advisor.regret@advisor_offline (paper Fig. 6)"},
	{Name: "process.peak_rss_mb", Unit: "MiB", Moves: "live_heap_mb, any workload (VmHWM of the traced run; depends on collector timing)"},
	{Name: "replay.total_ns", Unit: "ns", Moves: "sum of the *_ns layer shares"},
	{Name: "replay.self_ns", Unit: "ns", Moves: "the replay's own glue between layer calls"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Moves: "traced over untraced replay time per statement"},
}
