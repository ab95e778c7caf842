#!/usr/bin/env bash
# Server smoke: build hsqld + hsql, start the daemon against a temp data
# directory, drive it through the remote-mode shell, kill -9 the daemon,
# restart it on the same data directory, and verify every acknowledged
# write survived. Exercises the full stack: wire protocol, sessions,
# WAL durability and crash recovery.
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

echo "== kill -9 =="
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

echo "== restart on the same data dir =="
port=$((port + 1))
"$work/hsqld" -listen "127.0.0.1:$port" -data "$data" &
pid=$!
wait_ready "$port"

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

echo "server smoke: OK"
