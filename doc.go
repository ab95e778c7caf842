// Package hybridstore is a from-scratch Go reproduction of "A Storage
// Advisor for Hybrid-Store Databases" (Rösch, Dannecker, Hackenbroich,
// Färber; PVLDB 5(12), 2012): an in-memory hybrid-store database engine
// (row store + dictionary-compressed column store, store-aware horizontal
// and vertical partitioning, SQL subset) together with the paper's
// storage advisor — a calibrated cost model that recommends, per table and
// per partition, whether data should live in the row store or the column
// store.
//
// The implementation lives under internal/; the runnable entry points are:
//
//   - cmd/advisor — offline storage advisor over SQL schema+workload files
//   - cmd/hsbench — regenerates every figure of the paper's evaluation
//   - cmd/hsql — interactive SQL shell for the hybrid engine (local or
//     remote via -connect)
//   - cmd/hsqld — the network daemon serving the engine over TCP
//   - examples/ — quickstart, mixed-workload, partitioning, TPC-H and
//     network-service demos
//
// Performance is measured by benchmark/ (a module of its own; run
// `bash benchmark/run.sh --workload <name>`): four end-to-end workloads —
// oltp_point, olap_scan, htap_durable and advisor_offline — declared in
// BENCHMARK.json, each reporting end-to-end and per-layer metrics.
//
// Every table has a primary key. CREATE TABLE may omit PRIMARY KEY; the
// table is then keyed, as SQLite's rowid keys it, by a hidden BIGINT
// column schema.RowKey ("$rowid") that the engine fills from a per-table
// counter (restarted past the largest key on Open). '$' cannot start an
// identifier, so only ALTER TABLE names it, as ROWID (the advisor's DDL
// can split such a table on it); it never shows in SELECT *, in result
// columns or in the INSERT and COPY arity, so rows equal in every
// declared column are still distinct rows.
//
// # Execution model
//
// The column store executes scans and aggregates as a block-based
// vectorized pipeline rather than row at a time:
//
//   - Predicates compile to code ranges on the sorted main dictionaries
//     and are evaluated by fused decode+test kernels
//     (compress.CodeVector.RangeMatchWords) that emit uint64 bitset
//     words — 64 rows per word — directly into a reused match bitset.
//     Conjuncts combine with word-wide ANDs (most selective first, so
//     later conjuncts skip decode for already-zero words), and the
//     tombstone mask is itself a maintained bitset ANDed in
//     word-at-a-time.
//   - Merged main columns pick their coding per column: bit-packed
//     codes (compress.Packed), run-length runs for sorted or clustered
//     data (compress.RLE), or per-block frame-of-reference deltas
//     (compress.FoR) — whichever is smallest by a margin. All three
//     implement the same decode-free filter kernels: RLE answers a code
//     range per run with word fills (work proportional to runs, not
//     rows) and FoR skips whole 1024-row blocks whose local code window
//     misses the range.
//   - Each main-fragment column keeps per-block (1024-row) zone maps:
//     min/max dictionary code plus NULL presence. Blocks whose zone
//     misses the predicate's code range are skipped without decoding;
//     blocks fully inside it match wholesale as all-ones words. A write
//     never changes a main-fragment code (it tombstones the row and
//     appends the new image to the delta), so a zone built by a merge
//     holds until the next one.
//   - colstore.Table.Blocks cuts the matching rows into numbered
//     1024-row blocks and decodes a block's requested columns
//     column-at-a-time (compress.Packed.UnpackBlock) into the buffers of
//     the worker that asks for it. It is the column store's side of the
//     engine's one read, numbered blocks (exec.Blocks) every layout
//     returns. In the engine a table is a list of parts, each one row or
//     column store holding the rows of one side of a hot/cold split (or
//     all of them) and all of the table's columns or a vertical split's
//     share; the catalog's PartitionSpec is the only description of a
//     layout, and the parts are built from it. One router maps a read to
//     the parts it touches: it prunes the sides by the predicate's range
//     on the split column, numbers the hot side's blocks before the cold
//     side's, and on each side returns the blocks of the one part holding
//     the statement's columns, or joins the side's row and column parts
//     on the key, one row-part block at a time. The row store's blocks
//     are 256-slot ranges of its arena or runs of an index's candidates.
//     A join's probe and an MVCC-merged scan are block sources too,
//     built on the blocks of their input.
//   - Column-store aggregation has one kernel (colstore.DenseAgg): dense
//     per-(group, spec) scalar accumulators indexed by a dense group id
//     and fed block-at-a-time. Per batch it decodes a value column's
//     codes once (straight from the block when every main row of it
//     participates), gathers their dictionary floats into one float
//     batch, then adds the batch: an ungrouped aggregate — the one group
//     — in four register partials, a grouped one into each row's group
//     cell. MIN/MAX track code extrema (sorted dictionaries make code
//     order value order), so the per-row work is integer/float scalar
//     ops with no value comparisons and no boxed values; delta rows
//     (unsorted dictionary) keep value accumulators. Compression pays
//     through narrower codes to unpack and a smaller dictionary to
//     gather from (the paper's f_compression). Three callers feed it. A
//     single-table aggregate, ungrouped or grouped on one column or on
//     two with a small combined code space, numbers its groups by
//     dictionary code. A star-join probe numbers them through an array
//     indexed by the join key's code (see Query planning); only a table
//     that is one full-width column part probes this way. The spanning
//     aggregate of a vertical split (below) groups by its column part's
//     codes. The latter two use the kernel's two extension points: the
//     caller may assign each batch row its group from the codes of
//     columns it names — or drop the row — and an aggregate whose
//     column is not in the scanned table is fed as a caller-filled float
//     vector per batch (SUM, AVG and COUNT only: extrema are tracked as
//     codes).
//     Group-bys the kernel cannot number densely — three or more
//     columns, or two with more than 2^18 code combinations — go to the
//     generic hash fold (agg.Result.Fold), which every other aggregate
//     shares: it hashes each block row's key into one partial result
//     per block range.
//   - A table split hot/cold computes the two sides' partial aggregates
//     as the two morsels of one loop and merges them (the paper's "union
//     of both partitions"); the side done first frees its slot, which the
//     other side's still running loop takes on.
//   - On a vertically split side an aggregate runs in the one part that
//     holds all its columns: the column store's kernel in a column part,
//     the generic hash fold over a row part. An aggregate that spans both
//     parts is a column-driven PK join (the paper's "both partitions plus a PK
//     join"): the conjuncts the column partition covers — key ranges
//     included — run on its bitmap and zone-map kernels; a batch of
//     surviving rows' keys resolves at once, one word compare each
//     against consecutive row-partition slots (both partitions take
//     rows in the same order), misses through its PK index, and the
//     row-partition columns are read from the arena. When the column
//     partition holds the group columns, every remaining conjunct fits
//     the row partition and MIN/MAX read column-partition columns, this
//     is the dense kernel over the column partition: groups and
//     column-side keyfigures come from its code vectors, row-side
//     keyfigures are gathered as float vectors, a row failing a
//     row-side conjunct is dropped — no joined row is built. Every
//     other shape (a group column or a MIN/MAX column in the row
//     partition, a disjunction across both) decodes the needed
//     column-partition columns, assembles the joined row, tests the
//     remaining conjuncts on it and hands the joined block to the
//     generic hash fold. Nothing links the partitions but the key: the
//     column store renumbers rows when it migrates and merges them, so
//     a stored rid-to-rid link would be a second source of truth. Under
//     a hot/cold split the vertical split is the cold side's pair of
//     parts, and this runs there beside the hot side's full-width part.
//   - Row-at-a-time accumulation (agg.Result.AddRow, which the generic
//     hash fold runs for the row store, the fallbacks above, hash-join
//     probes and MVCC-merged scans) tracks extrema only for MIN and
//     MAX; SUM, AVG and COUNT cost an add and an increment.
//   - A read or write whose predicate names the whole primary key takes
//     one row, with no plan node or flag of its own: both stores resolve
//     it through their PK index (see Column store), the router prunes a
//     hot/cold split to one side when it is split on the key, and a read
//     one part of a vertical split covers uses that part's keyed path; a
//     single-store table's one full-width part takes the predicate and
//     columns as they are. The engine's keyed UPDATE and DELETE (matched
//     through the scan) and the fold of a committed transaction
//     (DeletePK, Upsert) inherit it. A statement that needs columns of
//     both parts of a vertical split still joins them in full, keyed or
//     not.
//
// # Column store
//
// internal/colstore keeps every attribute dictionary-encoded in two
// fragments, and the dictionary is all of the column that is not a code. A
// main dictionary (compress.Dict) holds the column's distinct values
// sorted, in the column's own representation and exactly as many slots as
// values: one []int64 for INTEGER, BIGINT and DATE, one []float64 for
// DOUBLE, one []string for VARCHAR. A value.Value is boxed only when a
// code leaves the store (Dict.Value); Code and CodeRange binary-search the
// typed slice; Floats — what SUM and AVG read by code — is the storage
// itself for DOUBLE and a view built once per dictionary otherwise.
// DOUBLEs that compare equal but differ in their bits (-0.0 and 0.0) are
// separate entries ordered by bit pattern, and NaN sorts before every
// number (value.Compare), so the order is total. The delta dictionary
// (compress.UDict) keeps arrival order in the same typed slices and finds
// a value again through a map on its bit pattern or its string. Per row a
// column holds a code (bit-packed, run-length or frame-of-reference coded
// in the main fragment, 4 bytes in the delta) and, if the column has
// NULLs, a flag.
//
// Table.Merge folds the delta into the main fragment as a merge of
// dictionaries. Per column, one pass over the code vectors gathers the
// live rows' codes and counts the references to every dictionary entry;
// compress.Merge sorts the referenced delta values, merges them with the
// sorted main dictionary into the new one — an entry no live row
// references any more is left out — and returns the translation table
// from old codes to new; the gathered codes are translated through it,
// re-encoded (compress.Encode) and their zone maps rebuilt. The PK index
// is rebuilt in one pass (pkindex.Build) from one hash per entry of the key
// columns' dictionaries, combined per row by code. The cost is O(rows + distinct·log
// distinct_delta) per column, with no value boxed, hashed or searched per
// row. The trigger is unchanged and fixed: a delta above 10 % of a
// table of more than 4096 rows merges at the end of the insert, and
// Database.Compact merges on request. hs_colstore_merge_seconds is the
// duration of one merge of one table, hs_colstore_merge_rows_total the
// rows the merges left in main fragments.
//
// Statistics come from the same place. Database.CollectStats reads a
// column part — all of a column-store table, the column part's columns
// of a vertical split, the key included — through Table.ValueRuns: one
// counting pass over the code vectors, then every distinct live value
// with its row count straight from the dictionaries (a value both
// dictionaries hold counted once, values only tombstoned rows hold not at
// all). Row count, NDV, min/max and average VARCHAR length follow without
// materializing a row, and NDV is exact at any cardinality. Every other
// column — a row-store table's, a vertical split's row part's — comes from
// one scan of its side into the same catalog.StatsCollector, which
// remembers up to
// 65 536 distinct values per column (exact up to there, identical to the
// dictionary read-out) and extrapolates linearly beyond. The two sides of a
// hot/cold split feed collectors of their own, which merge (NDV is not the
// sum of the sides'). Compact publishes
// statistics after the merge, so load, Compact, CollectStats costs the
// load and two counting passes on a column table, not three scans; Open
// publishes them after recovery.
//
// The PK index is the one both stores keep (internal/pkindex): an
// open-addressing hash table in one pointer-free []uint64, a slot holding
// the key hash's upper 32 bits (its tag) above the row id, probed linearly
// from a home slot derived from the tag, so the table doubles, halves and
// renumbers without hashing a key again; a delete shifts the rest of its
// cluster back instead of leaving a tombstone, so the index holds exactly
// the live keys between merges. Keys are not stored — a lookup yields the
// rows under the tag and the store compares the key. A predicate that pins
// every key column (expr.PKEquality) is answered through it before any
// bitmap or block walk: the key's row, if live, has the predicate's columns
// decoded to check the remaining conjuncts, and a scan hands it over as a
// batch of one with only the requested columns decoded and no pool helper;
// the match bitmap the aggregates read is that one bit, and DeletePK and
// Upsert find the row through the index directly. A keyed read or write on
// a column table therefore costs the tuple reconstruction of one row, as
// the paper's cost model charges it.
//
// Table.MemoryBytes is the logical payload (dictionary values at their
// declared widths plus code vectors — what mem_bytes_per_row reports);
// Table.ResidentBytes is what the fragments occupy, by capacity:
// dictionaries, code vectors, NULL and zone arrays, the delta with its
// lookup maps and the live bitmap. hs_colstore_resident_bytes exports it,
// and hs_colstore_payload_bytes the logical size beside it (also in /status
// and \stats); after a merge the first stays within twice the second. The
// index is measured apart, at 8 bytes a slot: Table.IndexBytes, and for
// every PK and secondary index of both stores hs_index_bytes (index_bytes in
// /status, "indexes" in \stats).
//
// # Row store
//
// internal/rowstore keeps a table's tuples in one pointer-free arena of
// fixed-width 8-byte slots ([]uint64). Row i occupies the window starting
// at i*width: one value slot per attribute, then the row's NULL bitmap
// (one word per 64 attributes). An INTEGER, BIGINT or DATE slot is the
// int64, a DOUBLE slot its IEEE-754 bits, a VARCHAR slot an index into
// the table's string heap ([]string); an entry released by an overwritten
// or deleted VARCHAR is handed out again before the heap grows. A stored
// row therefore costs 8 bytes per attribute plus its strings, and the
// garbage collector never scans the arena. MemoryBytes stays the logical
// size (the values at their declared widths — what mem_bytes_per_row
// reports); ArenaBytes, exported as hs_rowstore_arena_bytes, is the
// physical one.
//
// The PK index and every secondary index (CreateIndex) are pkindex tables,
// the column store's kind (see Column store): 8 bytes a slot, nothing for
// the collector to scan, duplicates allowed for secondary values. A
// predicate pinning the key, or a secondary-indexed column, scans only the
// rows under its tag; a single-column numeric key also keeps an ordered
// index for key ranges.
//
// value.Value is boxed only at the edge. Blocks, the engine's read of a
// row table, boxes a row's predicate columns into a scratch row and, once
// the row matches, the requested columns into the block's column buffers,
// sized to the block's candidates (one row for a keyed read); an aggregate
// requests only its grouping and aggregate columns. LookupPK compares
// slots without boxing, and the vertical split's PK join reads single
// attributes through Value and Read.
//
// Writes by key cost the row they touch. Update and Upsert overwrite
// slots in place; DeletePK tombstones the window and takes the row out of
// every index. Once tombstones exceed a quarter of the live
// rows (and 1024 windows) the arena and the string heap are rewritten and
// the row ids in every index renumbered in place — no rehashing, no sorting — so
// the arena holds at most ~1.25 windows per live row under any churn, at
// an amortised constant per deleted row. Compact does the same on demand.
//
// # Parallel execution
//
// Query execution is morsel-driven: one process-wide worker pool
// (internal/exec, GOMAXPROCS slots by default, -workers on every
// binary) feeds every parallel path, and scans split into morsels —
// 1024-row blocks in the column store, slot ranges in the row store —
// that workers claim dynamically, so a skewed block doesn't stall the
// scan. The statement's own goroutine is always worker zero and helpers
// are try-acquired, never awaited, before every claim: a loop started
// with no idle slot runs serially and widens when a slot frees, and
// results are identical either way.
//
//   - Column-store match bitmaps are built block-parallel (each worker
//     applies every conjunct to its blocks; word alignment keeps
//     workers on disjoint bitset words). Every layout's block scan
//     numbers its blocks in the order a serial scan visits them, and a
//     read's one collector — plain, ordered or top-K, over a table or a
//     join — keeps block i's rows in slot i (top-K heaps stay per
//     worker, ties broken by block number), so parallel row order
//     equals serial row order on every layout. Only a bare LIMIT, which
//     can stop early, runs its blocks in order on one worker. An
//     ordered or limited aggregate hands its groups to the same
//     collector as one block, after the reduction below.
//   - Every aggregate is an ordered reduction (exec.Reduce): the scan is
//     cut into fixed ranges of consecutive morsels, each range
//     accumulates into a partial of its own — dense per-group
//     accumulators (single-table aggregates, star-join probes, spanning
//     aggregates), hash group maps of the generic hash fold — on
//     whichever worker claims it, and the partials merge strictly in
//     range order as ranges complete and are reused, so no more partials
//     are alive than the workers hold (and a few finished ranges waiting
//     for a slow one). The range size
//     derives from the block count and the group cardinality (a range covers at
//     least 32 rows per accumulator cell, so merging stays a few
//     percent of scanning; small partials get one block per range; a
//     generic fold outside the column store takes four blocks),
//     never from the pool: how a float SUM's additions associate is a
//     function of the data alone, and a 1-slot pool returns the same
//     bits as an N-slot one. Within a range the dense kernel's additions
//     follow block order and position in the batch, never the worker.
//   - A star join's probe is the dense kernel over the fact table and
//     parallel like any grouped aggregate; its build side and every
//     hash join's are scanned serially (a dimension is small). Every
//     hash-join probe — aggregate or SELECT, on any layout — walks the
//     shared hash table block-parallel over the probe side's block scan:
//     joined block i holds probe block i's matches, which an aggregate
//     folds like any block scan and a SELECT hands to the collector. A
//     table with unfolded versions at the statement's snapshot is read
//     serially, its blocks merged with the overlay and its unplaced
//     images in one more block.
//   - The network server admits statements through the same pool
//     (session slot = worker slot), so intra-query parallelism scales
//     down automatically as concurrent statements scale up instead of
//     oversubscribing cores.
//   - Cancellation is polled once per block, when a worker claims it
//     (exec.Ctx.Morsels and exec.Reduce), through the statement's
//     exec.Ctx;
//     tombstones, zone maps, the delta fragment and the workload monitor
//     behave identically in serial and parallel runs. The differential
//     suite (internal/engine parallel tests) runs pools of 1, 2, 3 and 8
//     slots over fractional keyfigures and asserts bit-identical
//     results across layouts (row, column, horizontal, vertical,
//     horizontal+vertical), NULLs, tombstones and migration churn;
//     the olap_scan workload of benchmark/ reports the serial-vs-parallel
//     ratio as exec.parallel_speedup.
//
// # Query planning
//
// Every read statement (SELECT or aggregate, with or without a join)
// lowers into an explicit physical plan before execution — internal/plan
// builds a tree of typed operators (Scan, Filter, Project, HashJoin,
// Aggregate, Sort, TopK, Limit), each carrying a cardinality and cost
// estimate, and the engine executes the tree. Every plan is one
// pipeline, source → [aggregate] → [order/limit] → [project]: the source
// is a scan of the statement's one table, or a hash join of its two with
// a Filter of the conjuncts that span both, and one executor runs every
// plan, a single-table read being its join-free case. It names its
// result columns in one place (a join's qualified by table) and picks a
// fused scan+aggregate kernel — the table's own, or the star join's —
// in one place, only for a source with no overlay view. The planner is cost-based:
// it prices alternatives with the calibrated store cost model
// (internal/costmodel, the same model the advisor uses) fed by collected
// table statistics, falling back to a textbook default selectivity for
// tables never analyzed.
//
//   - Predicate pushdown: join predicates split structurally into
//     left-only, right-only and cross-side conjuncts; single-side
//     conjuncts push below the join into the storage scans (where zone
//     maps and dictionary kernels evaluate them), shrinking the build
//     side before a hash table is ever allocated.
//   - Join ordering: the smaller estimated post-pushdown input builds,
//     so a selective dimension filter flips the build side away from
//     the fact table.
//   - Star joins run without a hash table. When the probe side is a
//     plain column-store table, the build side joins on its primary key
//     (a probe key meets at most one build row), every group column
//     lives on the build side, no conjunct is left for after the join
//     and MIN/MAX read probe-side columns, the build side is scanned
//     once and each row's key is resolved once into the probe column's
//     dictionary (the sorted main dictionary by binary search, starting
//     from a guess at the code after the last hit; the delta dictionary
//     by hash). That fills two kinds of arrays indexed by key code: the
//     dense id of the build row's group, and the build row's value for
//     each aggregated build-side column. The probe is then the dense
//     grouped-aggregation kernel over the probe table (see Execution
//     model) with the pushed-down conjuncts on its bitmap kernels; a
//     probe key without a build row, or NULL, drops the row. Every other
//     shape builds a hash table of the build side's needed columns and
//     probes it value by value — a probe-side group column, MIN/MAX of a
//     build-side column, a build side joined on a non-key column (keys
//     may repeat), a conjunct spanning both sides, pushdown disabled,
//     a SELECT, or a probe side that is not a plain column-store table
//     at its current version. The planner's build side and pushdown
//     decisions are honoured either way: a plan forced to build the fact
//     side runs the hash join.
//   - Join keys: an INTEGER, BIGINT or DATE column joins any of the
//     three by numeric value (the build key takes the probe column's
//     type where it is read); any other pair of different types is
//     rejected when the statement is bound, and by the engine.
//   - ORDER BY + LIMIT fuses into a single-pass bounded-heap TopK that
//     retains exactly the stable-sort-then-limit prefix (ties broken by
//     arrival sequence), accumulating per-worker under the morsel
//     scheduler and merging order-independently. A row's sort key is
//     compared with the heap's worst entry straight from the scan
//     batch; the output row is built only when the key is admitted.
//     An aggregate's ORDER BY (on group columns) and LIMIT plan the same
//     TopK, Sort and Limit over the Aggregate node, and its groups go
//     through the same collector. SQL refuses LIMIT 0 (sql.ErrLimitZero):
//     a Limit of 0 means no limit.
//   - Plans are parameter-independent: the executor consumes only the
//     plan's structural decisions and re-derives predicates and columns
//     from the bound statement, so one plan serves every binding of a
//     prepared statement. The server caches plans on its prepared-
//     statement cache keyed by normalized text; each plan is stamped
//     with the catalog version at build time and revalidated per
//     execution, so DDL, layout migration cutover, compaction and stats
//     refresh (all of which bump the version) invalidate cached plans
//     without any registration machinery.
//   - EXPLAIN <stmt> renders the chosen plan tree with per-node row and
//     cost estimates as an ordinary result set; EXPLAIN ANALYZE tags its
//     spans with plan-node ids ("scan#1", "aggregate#2", "topk#3"),
//     found by walking the plan, so observed rows can be read against
//     estimates; a join's statement span ("join") carries its probe
//     kind and build and probe row counts. hs_plan_cache_{hits,misses}_total
//     and hs_planning_seconds quantify cache effectiveness (the benchmark
//     workloads report server.plan_cache_hit_ratio). The planner
//     differential wall (internal/engine) checks planned execution
//     against a naive oracle across all four layouts, and the engine
//     tests run plans forced to a degraded shape (pushdown off, build
//     side flipped, full sort instead of top-K) against the same answers.
//
// # Live advisory & migration
//
// The paper's online mode (§4) runs as a full subsystem on top of the
// offline advisor:
//
//   - internal/monitor is the one place workload statistics are
//     recorded. Its Recorder keeps exactly the per-table counters the
//     advisor reads: the operation mix, the attributes each statement
//     updates or analyses, and the key range updates concentrate on.
//     Offline, the advisor replays a workload file through one. Online,
//     the Monitor is the engine's one Observer: every successful
//     statement lands in a ring of epoch buckets, each one Recorder plus
//     a bounded sample of its most recent queries, under the monitor's
//     lock. Rotating epochs age an old workload phase out of the window,
//     so a mix shift changes the recommendation instead of being
//     outvoted by history. Measured
//     monitoring overhead on the hot scan path is well under 2% (see
//     internal/monitor benchmarks).
//   - advisor.RecommendSnapshot consumes monitor snapshots in place of
//     parsed workload files.
//   - internal/migrate executes recommendations as background store
//     migrations with hysteresis (a minimum predicted improvement over
//     staying put, plus a per-table cooldown) so a stable mix never
//     oscillates, and triggers Compact when a column store's
//     write-optimized delta crosses a size threshold.
//     Manager.AutoAdvise(interval, hysteresis) runs the whole loop
//     unattended.
//   - engine.MigrateLayout is the one way a table changes layout — the
//     ALTER TABLE statement, the migration manager and WAL replay all use
//     it — and moves without blocking queries: the target store is built
//     off to the side from a consistent snapshot, DML executed meanwhile
//     is buffered in a tail and replayed in order, and the storage handle
//     is swapped atomically under the write lock once the tail drains.
//     Concurrent queries see either the old or the new storage, never a
//     partial state.
//
// The hsql shell surfaces the subsystem: \stats prints the live rolling
// window, \advise recommends from it as ALTER TABLE statements that run
// as printed (embedded or over -connect), and the -auto flag starts the
// self-driving advisory loop.
//
// # Durability & recovery
//
// engine.Open(dir) runs the engine durably; engine.New() stays purely
// in-memory. A durable data directory holds two files:
//
//   - wal.log — an append-only write-ahead log of CRC32C-checked frames,
//     each carrying one logical record (CREATE/DROP TABLE, CREATE INDEX,
//     SET LAYOUT, a committed transaction's row images, a COPY batch)
//     plus a monotonically increasing sequence number. Every write is
//     enqueued in apply order — a commit under the transaction manager's
//     commit lock, DDL and COPY under the engine's write lock — and
//     acknowledged only after its frame is written and fsynced. Commits
//     are grouped: the first waiter becomes the flush leader and syncs
//     every pending frame (up to Options.GroupCommit, default 256) in one
//     batch, so concurrent writers share fsyncs.
//   - snapshot — the catalog plus every table's live rows, written by
//     Checkpoint as snapshot.tmp → fsync → rename → directory fsync,
//     then the WAL is truncated. Each table is one row section streamed
//     from its scan, whatever its layout, so no layout carries an
//     encoder of its own; a scan that disagrees with the table's row
//     count fails the checkpoint. The snapshot is stamped with the WAL
//     sequence it covers, so a crash between the rename and the truncate
//     cannot double-apply the stale tail. Its format is version 3. Load
//     writes each table's rows with one Upsert and then compacts it, so
//     a recovered table starts read-optimized (a column store's delta
//     is merged). Version 1 and 2 snapshots, which wrote sections part
//     by part in the table's part order (one for a row part, main then
//     delta for a column part; a vertical split's two parts joined back
//     by key), still load through one legacy reader. In a version-1
//     snapshot, written before every table had a key, the rows of a
//     keyless table take hidden keys 1..n, and a logged insert of the
//     declared width takes fresh ones on replay.
//
// Recovery invariants: Open restores the snapshot, replays intact WAL
// frames in sequence order through applyFold (the delete-then-upsert
// by key that commits, COPY and migration tails use), stops cleanly at
// the first torn or corrupt frame (a partial frame is by construction
// an unacknowledged statement), and
// truncates the file back to the last valid frame before appending.
// Acknowledged statements are exactly the recovered ones. A background
// MigrateLayout logs a single SET LAYOUT record only after its atomic
// cutover, and replay applies that record through MigrateLayout too; a
// crash mid-migration therefore leaves no trace of it, and the table
// recovers in its pre-migration layout with all acknowledged DML
// applied — the in-flight migration aborts cleanly. After replay,
// Open folds the tail into a fresh checkpoint so the next start needs
// no replay, and collects every table's statistics, so the planner
// prices a recovered table from its data rather than from defaults. Checkpoint cadence is explicit (Checkpoint/Close, or the
// hsql \checkpoint command); the WAL grows unbounded between
// checkpoints by design.
//
// cmd/hsql -data <dir> runs a durable shell. The htap_durable workload of
// benchmark/ measures durable writes beside analytic reads
// (wal.append_durable_us, wal.records_per_flush, engine.recovery_s).
//
// # Transactions
//
// The engine runs multi-statement transactions under MVCC snapshot
// isolation (internal/txn). BEGIN / COMMIT / ROLLBACK thread through
// the parser, the wire protocol and the Go driver:
//
//	tx, err := conn.Begin(ctx)          // client.Tx over TCP
//	tx.Exec(ctx, "UPDATE acct SET bal = ? WHERE id = ?", ...)
//	tx.Query(ctx, "SELECT ...")          // sees its own writes
//	err = tx.Commit(ctx)                 // or tx.Rollback(ctx)
//
// engine.Database.Begin is the same thing in-process. Semantics:
//
//   - Snapshot isolation: every statement reads as of its transaction's
//     begin timestamp (auto-commit statements as of the newest commit).
//     Writers never block readers and readers never block writers: a
//     long analytical scan runs concurrently with committing OLTP
//     transactions and still sees a point-in-time-consistent state.
//     Uncommitted writes live in per-primary-key version chains (the
//     overlay) layered over whichever physical layout the table uses;
//     chains carry no physical positions, so an online layout migration
//     can cut over underneath an open transaction.
//   - First-updater-wins conflicts: claiming a key already claimed by a
//     live transaction, or modified since the claimant's snapshot,
//     fails immediately (no waiting, no deadlocks) with a
//     serialization-conflict error. Over the wire it carries
//     CodeTxnConflict; client.IsRetryable(err) (or Error.Retryable)
//     tells the application to retry the whole transaction from Begin.
//     The server already rolled it back — further statements keep
//     failing until the client acknowledges with ROLLBACK. Disjoint-row
//     writers commit fully concurrently.
//   - Atomic durable commit: a transaction's whole effect is one WAL
//     commit record through the same group-commit path as auto-commit
//     statements. Recovery replays committed transactions exactly and
//     discards in-flight ones — a torn tail mid-record rolls the whole
//     transaction back, never part of it (asserted per byte cut in the
//     recovery tests).
//   - DDL (CREATE and ALTER TABLE) is auto-commit only: a session refuses
//     it inside BEGIN … COMMIT. A table declared without a primary key is
//     keyed by its hidden row key, so it versions, commits and folds
//     exactly like any other.
//   - Committed versions are folded into base storage behind the commit
//     (opportunistically after each commit, and by the migrate
//     scheduler's maintenance tick via engine.Vacuum), then pruned once
//     no live snapshot can still need them, so the overlay stays small
//     and reads keep the vectorized base-scan fast paths.
//   - The fold is by primary key, in the background and in WAL recovery
//     alike: every layout resolves a written key through its PK index
//     (storage.DeletePK / Upsert). A key that keeps a final row image is
//     replaced — the row store overwrites its slots in place, the column
//     store clears the live bit LookupPK found and appends the image to
//     the delta, a hot/cold split sends the row to its side's parts and
//     drops the key from the other side's — and a key left without one is
//     deleted; no step
//     scans the table, so the write lock is held for microseconds per
//     commit, and re-applying a fold is harmless. An in-flight migration
//     replays folds onto its target in the same keyed form. Until a
//     commit is folded, a scan shows the committed image of an updated
//     row in its base row's place, so a key-range read keeps its order.
//     The write is one loop over the parts, the batch validated once
//     before any part changes: a vertical split's parts delete the key
//     through their PK index and append the row's share, so both keep
//     their rows in the same order.
//
// Failure handling in the driver: losing the connection inside a
// transaction surfaces an error instead of transparently redialing —
// the server rolled the transaction back with the session, so a silent
// reconnect would replay statements outside it. Rollback then releases
// the transaction and the connection resumes normal auto-reconnect.
//
// Observability: hs_txn_{begin,commit,abort,conflict}_total and the
// hs_txn_active gauge are exported via SHOW METRICS, /metrics and
// /status; \stats in hsql prints the same counters.
// hs_txn_fold_seconds is the time one fold holds the write lock,
// hs_txn_fold_keys_total the primary keys folded (deleted or upserted),
// hs_txn_fold_errors_total the folds re-queued after a storage error (0
// on a healthy system).
// hs_rowstore_arena_bytes is the physical size of the row-store arenas
// (slots, NULL bitmaps, string heaps; also in /status and \stats). The
// htap_durable workload of benchmark/ runs transactions beside analytic
// reads and reports txn.client_p50_ms and txn.commit_ratio.
// examples/txn is a runnable tour: visibility, a conflict with retry,
// and recovery.
//
// # Streaming ingest & delta merge
//
// COPY <table> FROM VALUES (...), (...) is the bulk-ingest fast path:
// the whole batch applies atomically as one WAL record and one
// group-commit wait — per batch, not per row — at exactly the
// durability of a single-row INSERT. Recovery surfaces each batch
// completely or not at all (asserted per byte of torn WAL tail in the
// engine recovery tests, across all four layouts). Over the wire the
// Go driver streams it:
//
//	cp, err := conn.CopyIn(ctx, "events", 4)  // table, column count
//	for _, r := range rows {
//		err = cp.Send(r...)                   // buffers, flushes ~4096-row frames
//	}
//	n, err := cp.Close()                      // n = rows durably acknowledged
//
// CopyIn slices the stream into frames and keeps a bounded window of
// them in flight on the session pipeline, overlapping client-side
// encoding with the server's fsync batches. Atomicity is per frame,
// not per stream: on failure Close reports the first error together
// with the rows already durable, and a frame that collides with an
// existing primary key is rejected whole. The engine checks a batch
// once — every row against the schema, every key against the table,
// the batch and the keys open transactions hold — and then writes it
// with the same Upsert a committed transaction's fold uses; the workload
// monitor sees it as one INSERT of its rows. COPY refuses to run inside
// an open transaction (CodeUnsupported) — each batch is its own
// atomic unit.
//
// Sustained ingest into a column store grows its write-optimized
// delta; the migrate manager's merge scheduler keeps that bounded
// adaptively. It diffs the database's count of COPY rows
// (engine.Database.IngestedRows) into a live rows/sec rate and
// schedules the next delta-merge check for when that rate would fill
// Config.CompactDeltaRows, clamped
// between Config.CompactMinInterval (the floor a firehose pins it to,
// default 1s) and the AutoAdvise interval (the idle ceiling); the first
// check, before any rate is known, comes after the floor.
// hs_ingest_* counters and the hs_delta_merge_* family (merges run,
// rows merged, live cadence and observed ingest rate) expose the loop.
// The htap_durable workload of benchmark/ measures COPY throughput
// (ingest.rows_per_s) and the peak delta (colstore.delta_rows_peak);
// TestCopyEndToEnd and TestCopyRecoveryTruncatedWALPerByte check that
// acknowledged rows are exactly the durable ones, and
// TestAdaptiveCompactCadence that the merge cadence follows the ingest
// rate.
//
// # Network service
//
// cmd/hsqld serves one engine over TCP; internal/client is the Go
// driver and cmd/hsql -connect the remote shell. The stack is a
// vertical slice through internal/wire (protocol), internal/server
// (sessions and execution) and context plumbing down to the storage
// scan loops.
//
// Frame format (internal/wire): a frame is [uint32 LE payload length]
// [payload]; the payload's first byte is the message type. Requests are
// encoded with the internal/wal codec, so a COPY batch's rows are
// encoded alike on the wire and in the log. Result sets travel
// column-major (since protocol version 2): the row count, then per column
// one kind byte and its values — untagged when the column holds one type
// and no NULL (DOUBLE as 8 fixed bytes, INTEGER/BIGINT/DATE as varints,
// VARCHAR length-prefixed), with a tag byte per value otherwise. The
// client decodes a result into one backing array that every row slices.
// Requests: Hello (client name, protocol version, optional per-statement
// timeout), Exec (SQL text + '?' parameters), Prepare, StmtExec,
// StmtClose, Ping, Copy, Quit, and Cancel on a connection of its own.
// Responses: Welcome (session id and cancel key), OK, Rows, Prepared,
// Error (with a code: SQL, shutdown, cancelled, protocol, too-busy),
// Pong. Each request gets exactly one response, in request order —
// ordering is the correlation mechanism, which makes client pipelining
// free, and a request's position on its connection (Hello is 0) is its
// name. Protocol version 3 added the cancel connection. Oversized
// frames are rejected before allocation and truncated frames surface as
// clean errors (fuzzed in internal/wire).
//
// Session lifecycle (internal/server): a connection becomes a session
// served by one goroutine, which reads a request through a buffered
// reader into a reused frame buffer, executes it and writes its reply
// (encoded whole into a reused buffer, sent in one write) before it
// reads the next. On the client (internal/client) no goroutine reads
// for the callers either: a caller whose reply is pending takes the
// connection's one-slot read token and reads the replies in order,
// handing each to its caller, until its own arrives. A round trip thus
// crosses no goroutine hand-off on either side when one caller is
// waiting. Prepared statements are tokenized once into a server-wide
// statement cache keyed by text — sessions hold handles into it — and
// re-bound against the live catalog per execution, so they survive
// schema and layout migrations. Every statement runs under a
// per-session context; cancels and statement deadlines abort in-flight
// scans and aggregates at the engine's next batch boundary (~1024 rows)
// via engine.ExecContext. Each statement carries its session label
// (engine.WithSession), which the slow-query log records.
//
// Cancel, as in PostgreSQL: nothing reads a session's connection while
// its statement runs, so a cancel comes on a connection of its own.
// Welcome carries a random per-session key; a client whose call's
// context ends interrupts its own read (context.AfterFunc plus a read
// deadline, only while it waits for a frame's first byte), dials the
// server and sends Cancel{session, key, request position}. The server
// counts the requests each session reads, cancels the named one at once
// if it is running, at its start if it has not been read yet, and not at
// all if it has finished — so a cancel that lands as its statement
// completes never aborts the next one — and closes the connection,
// which never becomes a session. A wrong key cancels nothing. The
// caller then waits on for its reply, which reports the cancellation or,
// if the statement beat the cancel, its result.
//
// Admission control: concurrent sessions are capped (excess
// connections, a cancel connection included, are refused with a
// too-busy error frame), and statement execution passes through a
// bounded worker pool. A client that pipelines faster than its session
// serves is held back by the TCP window: the requests behind the one in
// progress wait in the socket, not in goroutines or queues.
//
// Shutdown drains gracefully. The listener closes; each session
// finishes the request in progress and reads no more, so the requests a
// client pipelined behind it see a lost connection; in-flight
// statements are hard-cancelled only past the drain deadline. Then the
// engine closes, checkpointing durable state, so kill -9 after a drained
// shutdown, or even instead of one, never loses an acknowledged write.
// Statements racing the close fail with engine.ErrClosed.
//
// TestServerSoakConcurrentSessions runs concurrent writer and analytical
// reader sessions over TCP beside layout migrations and
// differential-checks the final table against a single-session oracle
// replay (zero lost, zero duplicated writes); the oltp_point workload of
// benchmark/ measures point latency and throughput over TCP.
//
// # Observability
//
// Three instruments share one design rule: zero measurable cost when
// off. internal/trace is a per-statement span collector; every method
// is nil-receiver safe, so the storage and pool code calls it
// unconditionally and an untraced statement pays one predictable
// branch per span boundary (a guard test in internal/engine enforces
// <2% overhead on the hot scan path, under -race in CI). A trace rides
// in the context (trace.WithTrace / trace.FromContext) and in exec.Ctx
// down to the batch kernels. Spans are engine stages — apply, wal_wait,
// scan, aggregate, join — each with wall time, rows in/out and named
// counters; the trace additionally accumulates statement-wide storage
// counters (blocks_decoded, blocks_zone_skipped, blocks_zone_wholesale,
// main_rows, delta_rows) and parallel-loop activity (morsels, runs,
// per-worker busy time). A join reports in the join span's detail which
// probe ran — probe=dense for a star join on the dense kernel,
// probe=generic for the hash table — with build_rows (build rows with a
// key), probe_rows, and for the dense probe build_keys_resolved (build
// keys found in the probe column's dictionary); hs_join_dense_total and
// hs_join_generic_total count the statements either way. An aggregate
// spanning both partitions of a vertical split reports its PK join in
// the aggregate span's detail: kernel=dense or kernel=generic,
// probe_rows, probe_misses and the blocks_zone_skipped of its
// column-partition scan. A probe miss is a row whose key is absent from
// the other partition — a partition inconsistency, skipped and counted in
// hs_vertical_join_miss_total (0 on a healthy system; the differential
// tests assert it stays 0).
//
// EXPLAIN ANALYZE <statement> executes the statement under a fresh
// trace and returns the trace as an ordinary result set — columns
// stage, time_ns, rows_in, rows_out, detail, plus synthetic "storage",
// "parallel" and "total" rows — so it needs no wire-protocol support
// and works identically in the local shell, over TCP and through the
// driver. A differential test runs scan/group-by/join under every
// layout and checks the trace's row counts against the real result.
//
// internal/metrics is a dependency-free registry of counters, gauges
// (including callback gauges) and fixed-bucket exponential histograms
// with p50/p99 estimation. Names follow Prometheus convention: hs_
// prefix, _total suffix on counters, *_seconds histograms (observed in
// nanoseconds, scaled to seconds on export). The engine, WAL,
// checkpointer, migrator, compression paths, worker pool and server
// all register into metrics.Default; benchmark/ reads the same registry
// for its per-layer metrics. Exposure: "SHOW METRICS" (or
// \metrics in hsql) renders the registry as a result set, and hsqld
// -http serves GET /metrics in Prometheus text exposition format
// alongside /status (JSON snapshot: uptime, sessions, pool, tables),
// /slowlog (GET threshold, PUT ?threshold=100ms|off) and
// /debug/pprof/*.
//
// The slow-query log (engine.SlowQueryLog, hsqld -slow-query /
// -slow-log, \slowlog in hsql) writes one JSON line per statement
// crossing a runtime-adjustable threshold: {"time", "session", "kind",
// "query", "duration_ms", "rows", "trace"} — the trace field is the
// compact per-stage summary, because while the threshold is armed
// every statement is traced (that is the point: the entry answers
// "why was it slow", not just "it was slow"). Entries are rate-limited
// to 50/sec with drops counted in hs_slowlog_dropped_total; threshold
// 0 disarms both the log and the per-statement tracing.
package hybridstore
