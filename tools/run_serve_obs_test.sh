#!/usr/bin/env bash
# Observability drill for the serving tier: boot `hire_cli serve` with
# request-correlated tracing and slow-request logging enabled, drive real
# socket traffic, and then check that
#   - /metrics (JSON) carries the snapshot timestamp, uptime, and per-stage
#     latency histograms partitioned by outcome,
#   - /metrics?format=prometheus and /metrics/prometheus both render the
#     0.0.4 text exposition with cumulative buckets,
#   - serve_monitor scrapes the server, passes a satisfiable SLO (exit 0)
#     and flags an unsatisfiable one (exit 1), and
#   - the Chrome trace written at exit contains request-correlated
#     req#<id>/<stage> spans.
#
# Usage: run_serve_obs_test.sh <hire_cli> <serve_loadgen> <serve_monitor> <validate_telemetry>
# Registered as the `serve_obs` ctest; also runnable by hand.
set -u

CLI="${1:?usage: run_serve_obs_test.sh <hire_cli> <serve_loadgen> <serve_monitor> <validate_telemetry>}"
LOADGEN="${2:?usage: run_serve_obs_test.sh <hire_cli> <serve_loadgen> <serve_monitor> <validate_telemetry>}"
MONITOR="${3:?usage: run_serve_obs_test.sh <hire_cli> <serve_loadgen> <serve_monitor> <validate_telemetry>}"
VALIDATOR="${4:?usage: run_serve_obs_test.sh <hire_cli> <serve_loadgen> <serve_monitor> <validate_telemetry>}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/hire_serve_obs.XXXXXX")"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

SHAPE=(--profile=movielens --scale=0.05 --him-blocks=2 --heads=2 --head-dim=4
       --embed-dim=4 --seed=7 --threads=2)

"$CLI" train "${SHAPE[@]}" --steps=30 --context=6 --log-every=0 \
    --out="$WORK/model.bin" >/dev/null || fail "training model"

# Sample every request into the tracer.
"$CLI" serve "${SHAPE[@]}" --model="$WORK/model.bin" --port=0 \
    --context=8 --max-batch-users=4 \
    --trace-out="$WORK/serve_trace.json" --trace-sample-every=1 \
    --slow-request-ms=2000 \
    >"$WORK/serve.log" 2>&1 &
SERVER_PID=$!

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

# Drive traffic in the background while serve_monitor scrapes the live
# server, so its windows observe moving counters.
"$LOADGEN" --mode=drive --port="$PORT" --clients=4 --requests-per-client=100 \
    --max-user=30 --max-item=25 --items-per-request=3 \
    >"$WORK/drive.log" 2>&1 &
DRIVE_PID=$!

"$MONITOR" --port="$PORT" --scrapes=3 --interval-ms=250 \
    --slo="p99<60s,failed<=50%" >"$WORK/monitor_pass.log" 2>&1
MONITOR_STATUS=$?
[ "$MONITOR_STATUS" -eq 0 ] \
    || { cat "$WORK/monitor_pass.log" >&2; fail "serve_monitor rejected a satisfiable SLO (exit $MONITOR_STATUS)"; }
grep -q 'SLO_PASS' "$WORK/monitor_pass.log" \
    || { cat "$WORK/monitor_pass.log" >&2; fail "serve_monitor pass run printed no SLO_PASS line"; }

wait "$DRIVE_PID" || { cat "$WORK/drive.log" >&2; fail "drive traffic had failed requests"; }

# An impossible throughput floor must flag a violation and exit non-zero.
"$MONITOR" --port="$PORT" --scrapes=2 --interval-ms=200 \
    --slo="qps>1000000" >"$WORK/monitor_fail.log" 2>&1
MONITOR_STATUS=$?
[ "$MONITOR_STATUS" -eq 1 ] \
    || { cat "$WORK/monitor_fail.log" >&2; fail "serve_monitor did not flag an impossible SLO (exit $MONITOR_STATUS)"; }
grep -q 'SLO_FAIL' "$WORK/monitor_fail.log" \
    || { cat "$WORK/monitor_fail.log" >&2; fail "serve_monitor fail run printed no SLO_FAIL line"; }

# JSON exposition: snapshot header plus the outcome-partitioned stage
# histograms (eagerly registered, so even never-hit outcomes appear).
METRICS="$("$LOADGEN" --mode=probe --port="$PORT" --path=/metrics)" \
    || fail "/metrics probe"
echo "$METRICS" | grep -q '"ts_unix_ms":' || fail "/metrics JSON lacks ts_unix_ms"
echo "$METRICS" | grep -q '"uptime_seconds":' || fail "/metrics JSON lacks uptime_seconds"
for name in 'serve.stage.forward_us.served' 'serve.stage.queue_us.shed' \
            'serve.stage.admission_us.expired' 'serve.request_latency_us'; do
  echo "$METRICS" | grep -q "\"$name\"" \
      || fail "/metrics JSON lacks histogram '$name'"
done
FWD_COUNT="$(echo "$METRICS" \
    | grep -o '"serve.stage.forward_us.served":{"count":[0-9]*' | grep -o '[0-9]*$')"
[ -n "$FWD_COUNT" ] && [ "$FWD_COUNT" -ge 400 ] \
    || fail "serve.stage.forward_us.served count did not cover the drive traffic (got '${FWD_COUNT:-absent}')"

# Prometheus exposition via both the query parameter and the path alias.
for path in '/metrics?format=prometheus' '/metrics/prometheus'; do
  PROM="$("$LOADGEN" --mode=probe --port="$PORT" --path="$path")" \
      || fail "$path probe"
  echo "$PROM" | grep -q '# TYPE serve_request_latency_us histogram' \
      || fail "$path lacks the request-latency histogram TYPE line"
  echo "$PROM" | grep -q 'serve_stage_forward_us_served_bucket{le="+Inf"}' \
      || fail "$path lacks the cumulative +Inf bucket for forward/served"
  echo "$PROM" | grep -q 'serve_stage_forward_us_served_count' \
      || fail "$path lacks forward/served _count"
  echo "$PROM" | grep -q 'serve_uptime_seconds' \
      || fail "$path lacks serve_uptime_seconds"
  echo "$PROM" | grep -q 'serve_model_version 1' \
      || fail "$path lacks serve_model_version"
done

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

# The trace written at exit must be valid Chrome-trace JSON and carry
# request-correlated spans for the sampled requests.
"$VALIDATOR" --trace="$WORK/serve_trace.json" \
    || fail "serve trace validation"
grep -q '"name":"req#[0-9]*/total"' "$WORK/serve_trace.json" \
    || fail "trace has no req#<id>/total spans"
grep -q '"name":"req#[0-9]*/forward"' "$WORK/serve_trace.json" \
    || fail "trace has no req#<id>/forward spans"
grep -q '"name":"req#[0-9]*/queue"' "$WORK/serve_trace.json" \
    || fail "trace has no req#<id>/queue spans"

echo "PASS: stage histograms, both metric expositions, serve_monitor SLO gating, and request-correlated tracing all check out"
