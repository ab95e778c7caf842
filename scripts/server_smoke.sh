#!/usr/bin/env bash
# Server smoke: build hsqld + hsql, start the daemon against a temp data
# directory, drive it through the remote-mode shell (ALTER TABLE moves
# included, up to a hot/cold split with a vertically split cold side),
# kill -9 the daemon, restart it on the same data directory,
# and verify every acknowledged write and layout survived. Exercises the full stack: wire protocol, sessions,
# WAL durability and crash recovery. A second daemon with -auto then
# checks the online advisor loop: workload monitor -> advisor ->
# background layout migration, durable across kill -9.
set -euo pipefail

work="$(mktemp -d)"
pid=""
cleanup() {
  [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

data="$work/data"
port="${SMOKE_PORT:-17878}"
http_port="${SMOKE_HTTP_PORT:-17978}"

go build -o "$work/hsqld" ./cmd/hsqld
go build -o "$work/hsql" ./cmd/hsql

wait_ready() {
  local p="$1"
  for _ in $(seq 1 100); do
    if printf '%s\n' '\ping' | "$work/hsql" -connect "127.0.0.1:$p" 2>/dev/null | grep -q pong; then
      return 0
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "FAIL: hsqld exited during startup" >&2
      return 1
    fi
    sleep 0.1
  done
  echo "FAIL: hsqld never became ready on port $p" >&2
  return 1
}

store_of() { # table -> "STORE ROWS" from /status
  curl -sf "http://127.0.0.1:$http_port/status" | python3 -c '
import json, sys
for t in json.load(sys.stdin)["tables"]:
    if t["name"] == sys.argv[1]:
        print(t["store"], t["rows"])' "$1"
}

echo "== start hsqld (durable, with debug HTTP) =="
"$work/hsqld" -listen "127.0.0.1:$port" -data "$data" -http "127.0.0.1:$http_port" &
pid=$!
wait_ready "$port"

echo "== remote hsql: DDL + DML =="
"$work/hsql" -connect "127.0.0.1:$port" <<'EOF'
CREATE TABLE kv (k BIGINT NOT NULL, v VARCHAR, PRIMARY KEY (k));
INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three');
UPDATE kv SET v = 'THREE' WHERE k = 3;
DELETE FROM kv WHERE k = 1;
INSERT INTO kv VALUES (4, 'four');
SELECT COUNT(*) FROM kv;
EOF

echo "== remote hsql: a table without a primary key, in a transaction =="
note="$("$work/hsql" -connect "127.0.0.1:$port" <<'EOF'
CREATE TABLE note (msg VARCHAR, n INTEGER);
INSERT INTO note VALUES ('a', 1);
INSERT INTO note VALUES ('b', 2);
INSERT INTO note VALUES ('c', 3);
BEGIN;
UPDATE note SET msg = 'B' WHERE n = 2;
DELETE FROM note WHERE n = 1;
COMMIT;
SELECT * FROM note;
EOF
)"
echo "$note"
echo "$note" | grep -q 'msg | n$' || { echo "FAIL: SELECT * on a keyless table must print its two declared columns" >&2; exit 1; }
echo "$note" | grep -q '^B | 2$'   || { echo "FAIL: transactional UPDATE on a keyless table lost" >&2; exit 1; }

echo "== EXPLAIN ANALYZE over the wire =="
ea="$("$work/hsql" -connect "127.0.0.1:$port" <<'EOF'
EXPLAIN ANALYZE SELECT v FROM kv WHERE k >= 2;
EOF
)"
echo "$ea"
echo "$ea" | grep -q '^scan'  || { echo "FAIL: EXPLAIN ANALYZE missing scan stage" >&2; exit 1; }
echo "$ea" | grep -q '^total' || { echo "FAIL: EXPLAIN ANALYZE missing total row" >&2; exit 1; }

echo "== grouped aggregate with ORDER BY ... LIMIT over the wire =="
agg="$("$work/hsql" -connect "127.0.0.1:$port" <<'EOF'
CREATE TABLE sales (id BIGINT NOT NULL, grp INTEGER, amount DOUBLE, PRIMARY KEY (id));
INSERT INTO sales VALUES (1, 1, 10), (2, 2, 20), (3, 3, 30), (4, 1, 40), (5, 2, 50);
SELECT grp, SUM(amount) FROM sales GROUP BY grp ORDER BY grp DESC LIMIT 2;
EXPLAIN SELECT grp, SUM(amount) FROM sales GROUP BY grp ORDER BY grp DESC LIMIT 2;
EOF
)"
echo "$agg"
echo "$agg" | grep -q '(2 rows' || { echo "FAIL: ORDER BY ... LIMIT 2 on a grouped aggregate must return exactly 2 rows" >&2; exit 1; }
{ echo "$agg" | grep -q '^3 | 30$' && echo "$agg" | grep -q '^2 | 70$'; } || { echo "FAIL: wrong top 2 groups" >&2; exit 1; }
echo "$agg" | grep -q '| topk |' || { echo "FAIL: EXPLAIN of a grouped aggregate with ORDER BY ... LIMIT has no topk row" >&2; exit 1; }

echo "== /metrics: valid Prometheus exposition =="
metrics="$(curl -sf "http://127.0.0.1:$http_port/metrics")"
echo "$metrics" | head -n 20
# Loaded-daemon signals must be present.
for want in hs_wal_fsync_seconds_bucket hs_engine_read_seconds_bucket hs_pool_slots hs_server_statements_total hs_rowstore_arena_bytes hs_colstore_resident_bytes hs_colstore_payload_bytes hs_index_bytes hs_colstore_merge_seconds_count hs_txn_fold_seconds_bucket hs_txn_fold_keys_total; do
  echo "$metrics" | grep -q "^$want" || { echo "FAIL: /metrics missing $want" >&2; exit 1; }
done
# Every non-comment line must match the exposition text format:
# name{optional labels} value
bad="$(echo "$metrics" | grep -v '^#' | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN)$' || true)"
if [ -n "$bad" ]; then
  echo "FAIL: malformed Prometheus exposition lines:" >&2
  echo "$bad" >&2
  exit 1
fi

echo "== /status: JSON snapshot =="
status="$(curl -sf "http://127.0.0.1:$http_port/status")"
echo "$status"
echo "$status" | grep -q '"kv"'         || { echo "FAIL: /status missing table kv" >&2; exit 1; }
echo "$status" | grep -q '"slots"'      || { echo "FAIL: /status missing pool stats" >&2; exit 1; }
echo "$status" | grep -q '"index_bytes"' || { echo "FAIL: /status missing index_bytes" >&2; exit 1; }
echo "$status" | python3 -c 'import json,sys; json.load(sys.stdin)' 2>/dev/null \
  || { echo "FAIL: /status is not valid JSON" >&2; exit 1; }

echo "== ALTER TABLE over the wire: the advisor's statements move tables =="
alter="$("$work/hsql" -connect "127.0.0.1:$port" <<'EOF'
ALTER TABLE sales MOVE TO COLUMN STORE;
ALTER TABLE kv PARTITION BY RANGE (k) (PARTITION hot VALUES >= 3 STORE ROW, PARTITION historic STORE COLUMN);
EOF
)"
echo "$alter"
if echo "$alter" | grep -q 'error'; then
  echo "FAIL: ALTER TABLE over -connect failed" >&2
  exit 1
fi
[ "$(store_of sales)" = "COLUMN 5" ]    || { echo "FAIL: sales should be a 5-row COLUMN table, got: $(store_of sales)" >&2; exit 1; }
[ "$(store_of kv)" = "PARTITIONED 3" ]  || { echo "FAIL: kv should be a 3-row PARTITIONED table, got: $(store_of kv)" >&2; exit 1; }

echo "== ALTER TABLE over the wire: hot/cold + vertical, the advisor's richest layout =="
rich="$("$work/hsql" -connect "127.0.0.1:$port" <<'EOF'
CREATE TABLE ledger (id BIGINT NOT NULL, grp INTEGER, amount DOUBLE, PRIMARY KEY (id));
INSERT INTO ledger VALUES (1, 1, 10), (2, 2, 20), (3, 3, 30), (4, 1, 40), (5, 2, 50);
ALTER TABLE ledger PARTITION BY RANGE (id) (PARTITION hot VALUES >= 4 STORE ROW, PARTITION historic STORE COLUMN VERTICAL ((id, grp) STORE ROW, (id, amount) STORE COLUMN));
EOF
)"
echo "$rich"
if echo "$rich" | grep -q 'error'; then
  echo "FAIL: ALTER TABLE to hot/cold + vertical over -connect failed" >&2
  exit 1
fi
[ "$(store_of ledger)" = "PARTITIONED 5" ] || { echo "FAIL: ledger should be a 5-row PARTITIONED table, got: $(store_of ledger)" >&2; exit 1; }
ledger_sums() { # the grouped sums' rows: grp in the cold side's row part, amount in its column part
  printf '%s\n' 'SELECT grp, SUM(amount) FROM ledger GROUP BY grp ORDER BY grp;' | "$work/hsql" -connect "127.0.0.1:$port" | grep -E '^[0-9]+ \| [0-9]'
}
sums="$(ledger_sums)"
echo "$sums"
[ "$sums" = "$(printf '1 | 50\n2 | 70\n3 | 30')" ] || { echo "FAIL: wrong grouped sums on ledger" >&2; exit 1; }

echo "== kill -9 =="
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

echo "== restart on the same data dir =="
port=$((port + 1))
"$work/hsqld" -listen "127.0.0.1:$port" -data "$data" -http "127.0.0.1:$http_port" &
pid=$!
wait_ready "$port"
[ "$(store_of sales)" = "COLUMN 5" ]    || { echo "FAIL: after restart sales is $(store_of sales), want COLUMN 5" >&2; exit 1; }
[ "$(store_of kv)" = "PARTITIONED 3" ]  || { echo "FAIL: after restart kv is $(store_of kv), want PARTITIONED 3" >&2; exit 1; }
[ "$(store_of ledger)" = "PARTITIONED 5" ] || { echo "FAIL: after restart ledger is $(store_of ledger), want PARTITIONED 5" >&2; exit 1; }
[ "$(ledger_sums)" = "$sums" ] || { echo "FAIL: after restart ledger's grouped sums are $(ledger_sums), want $sums" >&2; exit 1; }

echo "== verify recovery =="
out="$("$work/hsql" -connect "127.0.0.1:$port" <<'EOF'
SELECT COUNT(*) FROM kv;
SELECT v FROM kv ORDER BY k;
EOF
)"
echo "$out"
echo "$out" | grep -q '^3$'     || { echo "FAIL: expected 3 rows after recovery" >&2; exit 1; }
echo "$out" | grep -q '^THREE$' || { echo "FAIL: acknowledged UPDATE lost" >&2; exit 1; }
echo "$out" | grep -q '^four$'  || { echo "FAIL: acknowledged INSERT lost" >&2; exit 1; }
if echo "$out" | grep -q '^one$'; then
  echo "FAIL: deleted row resurrected" >&2
  exit 1
fi

echo "== verify the keyless table's recovery, then insert into it =="
out="$("$work/hsql" -connect "127.0.0.1:$port" <<'EOF'
SELECT msg, n FROM note ORDER BY n;
INSERT INTO note VALUES ('d', 4);
SELECT COUNT(*) FROM note;
EOF
)"
echo "$out"
echo "$out" | grep -q '^B | 2$' || { echo "FAIL: keyless table lost its committed UPDATE" >&2; exit 1; }
echo "$out" | grep -q '^c | 3$' || { echo "FAIL: keyless table lost a row" >&2; exit 1; }
if echo "$out" | grep -q '^a | 1$'; then
  echo "FAIL: keyless table resurrected a deleted row" >&2
  exit 1
fi
if echo "$out" | grep -q 'error'; then
  echo "FAIL: INSERT into the recovered keyless table failed" >&2
  exit 1
fi
echo "$out" | grep -q '^3$' || { echo "FAIL: expected 3 keyless rows after the insert" >&2; exit 1; }

echo "== graceful drain =="
kill -TERM "$pid"
wait "$pid"
pid=""

# The online advisor end to end: the monitor records an analytic mix
# arriving over the wire, the background loop (-auto) recommends the
# column store for it and moves the table with engine.MigrateLayout, and
# the move survives kill -9.

echo "== start hsqld -auto 200ms on a second data dir =="
adata="$work/advise"
port=$((port + 1))
http_port=$((http_port + 1))
"$work/hsqld" -listen "127.0.0.1:$port" -data "$adata" -http "127.0.0.1:$http_port" -auto 200ms &
pid=$!
wait_ready "$port"

echo "== remote hsql: COPY 2000 rows, then 150 GROUP BY aggregates =="
python3 - "$work" <<'PY'
import sys
with open(sys.argv[1] + "/load.sql", "w") as f:
    print("CREATE TABLE facts (id BIGINT NOT NULL, grp INTEGER, amount DOUBLE, PRIMARY KEY (id));", file=f)
    print("COPY facts FROM VALUES " + ", ".join(f"({i}, {i % 10}, {i % 100}.5)" for i in range(2000)) + ";", file=f)
with open(sys.argv[1] + "/olap.sql", "w") as f:
    for _ in range(150):
        print("SELECT grp, SUM(amount) FROM facts GROUP BY grp;", file=f)
PY
"$work/hsql" -connect "127.0.0.1:$port" < "$work/load.sql" > /dev/null
[ "$(store_of facts)" = "ROW 2000" ] || { echo "FAIL: facts should start as a 2000-row ROW table, got: $(store_of facts)" >&2; exit 1; }
"$work/hsql" -connect "127.0.0.1:$port" < "$work/olap.sql" > /dev/null

echo "== wait for the advisor to move facts to the column store =="
for _ in $(seq 1 150); do
  [ "$(store_of facts)" = "COLUMN 2000" ] && break
  sleep 0.1
done
[ "$(store_of facts)" = "COLUMN 2000" ] || { echo "FAIL: facts not migrated to COLUMN within 15s: $(store_of facts)" >&2; exit 1; }
curl -sf "http://127.0.0.1:$http_port/metrics" | grep -E '^hs_engine_migrations_total [1-9]' \
  || { echo "FAIL: hs_engine_migrations_total did not count the move" >&2; exit 1; }

echo "== kill -9, restart, verify the layout and rows survived =="
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
port=$((port + 1))
"$work/hsqld" -listen "127.0.0.1:$port" -data "$adata" -http "127.0.0.1:$http_port" &
pid=$!
wait_ready "$port"
[ "$(store_of facts)" = "COLUMN 2000" ] || { echo "FAIL: after restart facts is $(store_of facts), want COLUMN 2000" >&2; exit 1; }
kill -TERM "$pid"
wait "$pid"
pid=""

echo "server smoke: OK"
