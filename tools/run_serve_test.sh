#!/usr/bin/env bash
# Serving drill for hire_cli: train two tiny models, boot `hire_cli serve`
# on an ephemeral port, drive concurrent /predict traffic through the real
# HTTP stack while hot-swapping the model mid-flight, and then check that
#   - no in-flight request failed across the swap,
#   - /healthz reports the bumped model version,
#   - /metrics shows request + context-cache counters moving,
#   - POST /shutdown ends the serve loop cleanly,
#   - the telemetry JSONL's run-end metrics snapshot accounts for every
#     drive request in its serve.outcome.* counters, and
#   - the tracing-enabled server writes request-correlated spans at exit.
#
# Usage: run_serve_test.sh <hire_cli> <serve_loadgen> <validate_telemetry>
# Registered as the `serve_smoke` ctest; also runnable by hand.
set -u

CLI="${1:?usage: run_serve_test.sh <hire_cli> <serve_loadgen> <validate_telemetry>}"
LOADGEN="${2:?usage: run_serve_test.sh <hire_cli> <serve_loadgen> <validate_telemetry>}"
VALIDATOR="${3:?usage: run_serve_test.sh <hire_cli> <serve_loadgen> <validate_telemetry>}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/hire_serve_test.XXXXXX")"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# Model shape + dataset flags shared by training and serving: the serve
# command rebuilds the model skeleton from these before loading weights.
SHAPE=(--profile=movielens --scale=0.05 --him-blocks=2 --heads=2 --head-dim=4
       --embed-dim=4 --seed=7 --threads=2)

"$CLI" train "${SHAPE[@]}" --steps=30 --context=6 --log-every=0 \
    --out="$WORK/model_a.bin" >/dev/null || fail "training model A"
"$CLI" train "${SHAPE[@]}" --steps=60 --context=6 --log-every=0 \
    --out="$WORK/model_b.bin" >/dev/null || fail "training model B"

# Tracing-enabled pass: every 25th request is sampled into the Chrome-trace
# tracer, which the server flushes to disk on clean shutdown.
"$CLI" serve "${SHAPE[@]}" --model="$WORK/model_a.bin" --port=0 \
    --context=8 --max-batch-users=4 \
    --trace-out="$WORK/serve_trace.json" --trace-sample-every=25 \
    --metrics-out="$WORK/metrics.jsonl" >"$WORK/serve.log" 2>&1 &
SERVER_PID=$!

# The server prints "SERVE_LISTENING port=N" once the socket is bound.
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^SERVE_LISTENING port=\([0-9]*\)$/\1/p' "$WORK/serve.log")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/serve.log" >&2; fail "server exited before listening"; }
  sleep 0.1
done
[ -n "$PORT" ] || fail "server never printed SERVE_LISTENING"

"$LOADGEN" --mode=probe --port="$PORT" --path=/healthz >/dev/null \
    || fail "/healthz probe"

# Concurrent load through the HTTP stack; the dataset at scale 0.05 has
# 30 users x 25 items, so keep request universes inside that.
"$LOADGEN" --mode=drive --port="$PORT" --clients=4 --requests-per-client=100 \
    --max-user=30 --max-item=25 --items-per-request=3 \
    >"$WORK/drive.log" 2>&1 &
DRIVE_PID=$!

# Hot-swap to model B while the drive traffic is in flight.
sleep 0.3
"$LOADGEN" --mode=probe --port="$PORT" --method=POST --path=/reload \
    --body="{\"model\":\"$WORK/model_b.bin\"}" >/dev/null \
    || fail "mid-flight /reload"

wait "$DRIVE_PID" || { cat "$WORK/drive.log" >&2; fail "drive traffic had failed requests across the hot swap"; }

HEALTH="$("$LOADGEN" --mode=probe --port="$PORT" --path=/healthz)" \
    || fail "post-swap /healthz probe"
echo "$HEALTH" | grep -q '"model_version":2' \
    || fail "expected model_version 2 after reload, got: $HEALTH"

METRICS="$("$LOADGEN" --mode=probe --port="$PORT" --path=/metrics)" \
    || fail "/metrics probe"
REQUESTS="$(echo "$METRICS" | grep -o '"serve.requests":[0-9]*' | grep -o '[0-9]*$')"
CACHE_HITS="$(echo "$METRICS" | grep -o '"serve.context_cache.hits":[0-9]*' | grep -o '[0-9]*$')"
[ -n "$REQUESTS" ] && [ "$REQUESTS" -ge 400 ] \
    || fail "serve.requests counter did not cover the drive traffic (got '${REQUESTS:-absent}')"
[ -n "$CACHE_HITS" ] && [ "$CACHE_HITS" -gt 0 ] \
    || fail "serve.context_cache.hits never moved (got '${CACHE_HITS:-absent}')"

"$LOADGEN" --mode=probe --port="$PORT" --method=POST --path=/shutdown \
    >/dev/null || fail "/shutdown probe"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  kill "$SERVER_PID"
  fail "server did not exit after /shutdown"
fi
wait "$SERVER_PID" || { cat "$WORK/serve.log" >&2; fail "server exited non-zero"; }
SERVER_PID=""

# Valid JSONL with a final snapshot, whose outcome partition accounts for
# every one of the 400 drive requests.
"$VALIDATOR" --metrics="$WORK/metrics.jsonl" --min-steps=0 \
    || fail "serve telemetry validation"
SNAPSHOT="$(grep '"type":"metrics_snapshot"' "$WORK/metrics.jsonl" | tail -n 1)"
OUTCOMES=0
for n in $(echo "$SNAPSHOT" | grep -o '"serve\.outcome\.[a-z]*":[0-9]*' | grep -o '[0-9]*$'); do
  OUTCOMES=$((OUTCOMES + n))
done
[ "$OUTCOMES" -ge 400 ] \
    || fail "run-end serve.outcome.* counters sum to $OUTCOMES; expected at least the drive's 400 requests"

# The sampled requests must have produced correlated spans in the trace.
"$VALIDATOR" --trace="$WORK/serve_trace.json" || fail "serve trace validation"
grep -q '"name":"req#[0-9]*/total"' "$WORK/serve_trace.json" \
    || fail "trace has no req#<id>/total spans"

# --------------------------------------------------------------------------
# Sharded pass: the same drill against a 4-shard fleet behind the event-loop
# front-end. Checks shard-aware /healthz, per-shard routing counters that
# sum to the total traffic, and a rolling /reload with zero failed requests.
# --------------------------------------------------------------------------
"$CLI" serve "${SHAPE[@]}" --model="$WORK/model_a.bin" --port=0 --shards=4 \
    --context=8 --max-batch-users=4 \
    >"$WORK/serve_sharded.log" 2>&1 &
SERVER_PID=$!

PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^SERVE_LISTENING port=\([0-9]*\)$/\1/p' "$WORK/serve_sharded.log")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/serve_sharded.log" >&2; fail "sharded server exited before listening"; }
  sleep 0.1
done
[ -n "$PORT" ] || fail "sharded server never printed SERVE_LISTENING"

HEALTH="$("$LOADGEN" --mode=probe --port="$PORT" --path=/healthz)" \
    || fail "sharded /healthz probe"
echo "$HEALTH" | grep -q '"shards":4' \
    || fail "expected \"shards\":4 in healthz, got: $HEALTH"
echo "$HEALTH" | grep -q '"shard_versions":\[1,1,1,1\]' \
    || fail "expected shard_versions [1,1,1,1], got: $HEALTH"

"$LOADGEN" --mode=drive --port="$PORT" --clients=4 --requests-per-client=100 \
    --max-user=30 --max-item=25 --items-per-request=3 \
    >"$WORK/drive_sharded.log" 2>&1 &
DRIVE_PID=$!

# Rolling hot-swap across all four shards while the drive is in flight.
sleep 0.3
"$LOADGEN" --mode=probe --port="$PORT" --method=POST --path=/reload \
    --body="{\"model\":\"$WORK/model_b.bin\"}" >/dev/null \
    || fail "mid-flight rolling /reload"

wait "$DRIVE_PID" || { cat "$WORK/drive_sharded.log" >&2; fail "sharded drive had failed requests across the rolling swap"; }

HEALTH="$("$LOADGEN" --mode=probe --port="$PORT" --path=/healthz)" \
    || fail "post-roll /healthz probe"
echo "$HEALTH" | grep -q '"model_version":2' \
    || fail "expected fleet model_version 2 after rolling reload, got: $HEALTH"
echo "$HEALTH" | grep -q '"shard_versions":\[2,2,2,2\]' \
    || fail "expected every shard at version 2, got: $HEALTH"

METRICS="$("$LOADGEN" --mode=probe --port="$PORT" --path=/metrics)" \
    || fail "sharded /metrics probe"
ROUTED_SUM=0
NONZERO_SHARDS=0
for i in 0 1 2 3; do
  ROUTED="$(echo "$METRICS" | grep -o "\"serve.shard.$i.routed\":[0-9]*" | grep -o '[0-9]*$')"
  [ -n "$ROUTED" ] || fail "serve.shard.$i.routed missing from /metrics"
  ROUTED_SUM=$((ROUTED_SUM + ROUTED))
  [ "$ROUTED" -gt 0 ] && NONZERO_SHARDS=$((NONZERO_SHARDS + 1))
done
REQUESTS="$(echo "$METRICS" | grep -o '"serve.requests":[0-9]*' | grep -o '[0-9]*$')"
[ "$ROUTED_SUM" -eq "$REQUESTS" ] \
    || fail "per-shard routed counters ($ROUTED_SUM) do not sum to serve.requests ($REQUESTS)"
[ "$NONZERO_SHARDS" -ge 2 ] \
    || fail "drive traffic landed on $NONZERO_SHARDS shard(s); expected a spread"

"$LOADGEN" --mode=probe --port="$PORT" --method=POST --path=/shutdown \
    >/dev/null || fail "sharded /shutdown probe"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  kill "$SERVER_PID"
  fail "sharded server did not exit after /shutdown"
fi
wait "$SERVER_PID" || { cat "$WORK/serve_sharded.log" >&2; fail "sharded server exited non-zero"; }
SERVER_PID=""

echo "PASS: hot-swap under load, metrics, shutdown, telemetry, and the 4-shard rolling-reload pass all check out"
