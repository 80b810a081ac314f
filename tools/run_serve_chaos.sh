#!/usr/bin/env bash
# Chaos drill for the serving tier: boot `hire_cli serve` under every
# HIRE_FAULT_SERVE_* knob in turn and assert the engineered failure
# semantics hold on the wire —
#   A  slow batches + request deadlines   -> every request gets a 504
#   B  admission control under overload   -> 503 + Retry-After, no wedge
#   C  no model at boot                   -> 200 "degraded":true fallbacks,
#      automatic recovery after /reload, and the serve.outcome.* counters
#      partition every /predict exactly once
#   D  corrupt snapshot on /reload        -> 500, old model keeps serving
#   E  injected connection resets         -> clients see resets, never a
#      malformed 200
#   F  stalled (slow-loris) client        -> 408 cut-off while a parallel
#      healthy probe still answers
#   G  corrupt reload scoped to one shard -> the sick shard degrades to
#      user-mean fallbacks while the other three keep serving the model,
#      and the next /reload heals it
#
# Each phase boots a fresh server because fault knobs are read from the
# environment at process start.
#
# Usage: run_serve_chaos.sh <hire_cli> <serve_loadgen>
# Registered as the `serve_chaos` ctest; also runnable by hand.
set -u

CLI="${1:?usage: run_serve_chaos.sh <hire_cli> <serve_loadgen>}"
LOADGEN="${2:?usage: run_serve_chaos.sh <hire_cli> <serve_loadgen>}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/hire_serve_chaos.XXXXXX")"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# Model shape + dataset flags shared by training and serving (30 users x
# 25 items at this scale; request universes below stay inside that).
SHAPE=(--profile=movielens --scale=0.05 --him-blocks=2 --heads=2 --head-dim=4
       --embed-dim=4 --seed=7 --threads=2)

"$CLI" train "${SHAPE[@]}" --steps=30 --context=6 --log-every=0 \
    --out="$WORK/model.bin" >/dev/null || fail "training the model"

# start_server <logfile> [extra serve flags...] — fault env vars must be
# exported by the caller beforehand. Sets SERVER_PID and PORT.
start_server() {
  local log="$1"; shift
  "$CLI" serve "${SHAPE[@]}" --port=0 --context=8 --max-batch-users=4 \
      "$@" >"$log" 2>&1 &
  SERVER_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's/^SERVE_LISTENING port=\([0-9]*\)$/\1/p' "$log")"
    [ -n "$PORT" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null \
        || { cat "$log" >&2; fail "server exited before listening"; }
    sleep 0.1
  done
  [ -n "$PORT" ] || fail "server never printed SERVE_LISTENING"
}

stop_server() {
  "$LOADGEN" --mode=probe --port="$PORT" --method=POST --path=/shutdown \
      >/dev/null 2>&1
  for _ in $(seq 1 100); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
  done
  kill -0 "$SERVER_PID" 2>/dev/null && fail "server did not exit on /shutdown"
  SERVER_PID=""
}

metrics_counter() {  # metrics_counter <metrics json> <counter name>
  local value
  value="$(echo "$1" | grep -o "\"$2\":[0-9]*" | grep -o '[0-9]*$')"
  echo "${value:-0}"
}

# ---------------------------------------------------------------------------
echo "phase A: slow batches + deadlines -> 504"
export HIRE_FAULT_SERVE_SLOW_HANDLER_MS=150
start_server "$WORK/a.log" --model="$WORK/model.bin" --request-deadline-ms=40
"$LOADGEN" --mode=drive --port="$PORT" --clients=2 --requests-per-client=5 \
    --max-user=30 --max-item=25 --allow-status=504 >"$WORK/a_drive.log" 2>&1 \
    || { cat "$WORK/a_drive.log" >&2; fail "phase A drive"; }
grep -q "DRIVE_STATUS.* 504=10" "$WORK/a_drive.log" \
    || { cat "$WORK/a_drive.log" >&2; fail "expected all 10 requests to 504"; }
METRICS="$("$LOADGEN" --mode=probe --port="$PORT" --path=/metrics)" \
    || fail "phase A /metrics"
[ "$(metrics_counter "$METRICS" serve.outcome.expired)" -eq 10 ] \
    || fail "serve.outcome.expired != 10"
[ "$(metrics_counter "$METRICS" serve.deadline_exceeded)" -eq 10 ] \
    || fail "serve.deadline_exceeded != 10"
stop_server
unset HIRE_FAULT_SERVE_SLOW_HANDLER_MS

# ---------------------------------------------------------------------------
echo "phase B: admission control -> 503 + Retry-After"
export HIRE_FAULT_SERVE_SLOW_HANDLER_MS=200
start_server "$WORK/b.log" --model="$WORK/model.bin" --max-inflight=2 \
    --queue-capacity=2 --batch-window-us=0
"$LOADGEN" --mode=drive --port="$PORT" --clients=6 --requests-per-client=4 \
    --max-user=30 --max-item=25 --allow-status=503 >"$WORK/b_drive.log" 2>&1 \
    || { cat "$WORK/b_drive.log" >&2; fail "phase B drive"; }
grep -q "DRIVE_STATUS.* 503=" "$WORK/b_drive.log" \
    || { cat "$WORK/b_drive.log" >&2; fail "overload never shed a request"; }
# A saturating background drive keeps both in-flight slots busy; a probe in
# that window must come back 503 with a Retry-After hint. The drive's shed
# clients retry at once and spend their requests within milliseconds, so
# once a probe holds a slot the drive can shrink to a single client that
# alternates with the probe and never saturates the server again. Each probe
# round therefore sends three probes at once, more than the two in-flight
# slots hold, and the rounds last exactly as long as the drive does.
"$LOADGEN" --mode=drive --port="$PORT" --clients=4 --requests-per-client=20 \
    --max-user=30 --max-item=25 --allow-status=503 >/dev/null 2>&1 &
BG_DRIVE=$!
SHED=""
while kill -0 "$BG_DRIVE" 2>/dev/null; do
  PROBES=()
  for p in 1 2 3; do
    "$LOADGEN" --mode=probe --port="$PORT" --method=POST --path=/predict \
        --body='{"user":3,"items":[1]}' >"$WORK/b_probe_$p.log" 2>/dev/null &
    PROBES+=($!)
  done
  wait "${PROBES[@]}"
  SHED_LOG="$(grep -l "PROBE_STATUS 503" "$WORK"/b_probe_*.log | head -n 1)"
  if [ -n "$SHED_LOG" ]; then SHED="$(cat "$SHED_LOG")"; break; fi
  sleep 0.1
done
wait "$BG_DRIVE" 2>/dev/null
[ -n "$SHED" ] || fail "never observed a 503 shed under saturation"
echo "$SHED" | grep -q "retry_after=1" \
    || fail "shed response lacked Retry-After: $SHED"
METRICS="$("$LOADGEN" --mode=probe --port="$PORT" --path=/metrics)" \
    || fail "phase B /metrics"
[ "$(metrics_counter "$METRICS" serve.outcome.shed)" -gt 0 ] \
    || fail "serve.outcome.shed never moved"
stop_server
unset HIRE_FAULT_SERVE_SLOW_HANDLER_MS

# ---------------------------------------------------------------------------
echo "phase C: no model at boot -> degraded fallbacks, recovery, accounting"
start_server "$WORK/c.log"  # no --model
HEALTH="$("$LOADGEN" --mode=probe --port="$PORT" --path=/healthz)" \
    || fail "degraded /healthz probe"
echo "$HEALTH" | grep -q '"status":"degraded"' \
    || fail "healthz must report degraded without a model: $HEALTH"
DEGRADED="$("$LOADGEN" --mode=probe --port="$PORT" --method=POST \
    --path=/predict --body='{"user":3,"items":[1,2]}')" \
    || fail "degraded /predict probe"
echo "$DEGRADED" | grep -q '"degraded":true' \
    || fail "model-less predict was not tagged degraded: $DEGRADED"
"$LOADGEN" --mode=drive --port="$PORT" --clients=2 --requests-per-client=10 \
    --max-user=30 --max-item=25 >"$WORK/c_drive.log" 2>&1 \
    || { cat "$WORK/c_drive.log" >&2; fail "phase C degraded drive"; }
grep -q "DRIVE_STATUS 200=20 degraded=20" "$WORK/c_drive.log" \
    || { cat "$WORK/c_drive.log" >&2; fail "degraded drive status mix"; }
# One malformed request exercises the failed-outcome path.
"$LOADGEN" --mode=probe --port="$PORT" --method=POST --path=/predict \
    --body='{not json' >/dev/null 2>&1 && fail "malformed predict returned 200"
# Recovery: publish a good snapshot and the fallback path switches off.
"$LOADGEN" --mode=probe --port="$PORT" --method=POST --path=/reload \
    --body="{\"model\":\"$WORK/model.bin\"}" >/dev/null \
    || fail "recovery /reload"
RECOVERED="$("$LOADGEN" --mode=probe --port="$PORT" --method=POST \
    --path=/predict --body='{"user":3,"items":[1,2]}')" \
    || fail "recovered /predict probe"
echo "$RECOVERED" | grep -q '"degraded":false' \
    || fail "predict stayed degraded after a good reload: $RECOVERED"
echo "$RECOVERED" | grep -q '"model_version":1' \
    || fail "recovered predict must carry the reloaded model version"
# Accounting: 23 /predict requests hit this server (1 degraded probe + 20
# degraded drive + 1 malformed + 1 recovered); the five outcome counters
# must partition them exactly.
METRICS="$("$LOADGEN" --mode=probe --port="$PORT" --path=/metrics)" \
    || fail "phase C /metrics"
SERVED="$(metrics_counter "$METRICS" serve.outcome.served)"
DEGR="$(metrics_counter "$METRICS" serve.outcome.degraded)"
SHEDC="$(metrics_counter "$METRICS" serve.outcome.shed)"
EXPIRED="$(metrics_counter "$METRICS" serve.outcome.expired)"
FAILED="$(metrics_counter "$METRICS" serve.outcome.failed)"
TOTAL=$((SERVED + DEGR + SHEDC + EXPIRED + FAILED))
[ "$TOTAL" -eq 23 ] \
    || fail "outcome counters sum to $TOTAL, want 23 (served=$SERVED degraded=$DEGR shed=$SHEDC expired=$EXPIRED failed=$FAILED)"
[ "$SERVED" -eq 1 ] || fail "served=$SERVED, want 1"
[ "$DEGR" -eq 21 ] || fail "degraded=$DEGR, want 21"
[ "$FAILED" -eq 1 ] || fail "failed=$FAILED, want 1"
[ "$(metrics_counter "$METRICS" serve.fallback_predictions)" -eq 21 ] \
    || fail "serve.fallback_predictions must count every fallback answer"
stop_server

# ---------------------------------------------------------------------------
echo "phase D: corrupt snapshot on /reload -> 500, old model keeps serving"
cp "$WORK/model.bin" "$WORK/disposable.bin"
export HIRE_FAULT_SERVE_CORRUPT_RELOAD=1
start_server "$WORK/d.log" --model="$WORK/model.bin"
OUT="$("$LOADGEN" --mode=probe --port="$PORT" --method=POST --path=/reload \
    --body="{\"model\":\"$WORK/disposable.bin\"}" 2>/dev/null)"
echo "$OUT" | grep -q "PROBE_STATUS 500" \
    || fail "corrupt reload must answer 500, got: $OUT"
HEALTH="$("$LOADGEN" --mode=probe --port="$PORT" --path=/healthz)" \
    || fail "post-corrupt-reload /healthz"
echo "$HEALTH" | grep -q '"model_version":1' \
    || fail "corrupt reload must keep model v1 published: $HEALTH"
AFTER="$("$LOADGEN" --mode=probe --port="$PORT" --method=POST \
    --path=/predict --body='{"user":3,"items":[1,2]}')" \
    || fail "predict after corrupt reload"
echo "$AFTER" | grep -q '"degraded":false' \
    || fail "the surviving model must answer normally: $AFTER"
stop_server
unset HIRE_FAULT_SERVE_CORRUPT_RELOAD

# ---------------------------------------------------------------------------
echo "phase E: injected connection resets -> clean errors, no malformed 200"
export HIRE_FAULT_SERVE_RESET_EVERY=5
start_server "$WORK/e.log" --model="$WORK/model.bin"
"$LOADGEN" --mode=drive --port="$PORT" --clients=2 --requests-per-client=20 \
    --max-user=30 --max-item=25 --allow-transport-errors \
    >"$WORK/e_drive.log" 2>&1 \
    || { cat "$WORK/e_drive.log" >&2; fail "phase E drive (a reset leaked a bad response)"; }
grep -q "transport_errors=0" "$WORK/e_drive.log" \
    && fail "reset injection never fired"
METRICS="$("$LOADGEN" --mode=probe --port="$PORT" --path=/metrics)" \
    || fail "phase E /metrics"
[ "$(metrics_counter "$METRICS" serve.http.injected_resets)" -gt 0 ] \
    || fail "serve.http.injected_resets never moved"
stop_server
unset HIRE_FAULT_SERVE_RESET_EVERY

# ---------------------------------------------------------------------------
echo "phase F: stalled client -> 408 cut-off, healthy probes unaffected"
start_server "$WORK/f.log" --model="$WORK/model.bin" --header-timeout-ms=200
# The stall knob is read by the CLIENT process: it dribbles half the request
# head, sleeps past the server's read deadline, and must get cut off.
STALLED_RC=0
HIRE_FAULT_SERVE_STALL_CLIENT_MS=600 "$LOADGEN" --mode=probe --port="$PORT" \
    --method=POST --path=/predict --body='{"user":3,"items":[1]}' \
    >"$WORK/f_stall.log" 2>&1 || STALLED_RC=$?
[ "$STALLED_RC" -ne 0 ] \
    || { cat "$WORK/f_stall.log" >&2; fail "stalled client was served a 200"; }
"$LOADGEN" --mode=probe --port="$PORT" --path=/healthz >/dev/null \
    || fail "healthy probe failed while a client stalled"
METRICS="$("$LOADGEN" --mode=probe --port="$PORT" --path=/metrics)" \
    || fail "phase F /metrics"
[ "$(metrics_counter "$METRICS" serve.http.request_read_timeouts)" -ge 1 ] \
    || fail "serve.http.request_read_timeouts never moved"
stop_server

# ---------------------------------------------------------------------------
echo "phase G: corrupt reload scoped to shard 1 -> fleet keeps serving"
# Boot a 4-shard fleet with NO model so the sick shard has nothing to fall
# back on: after the poisoned roll it must answer degraded while the other
# three serve the freshly loaded model.
export HIRE_FAULT_SERVE_CORRUPT_RELOAD_SHARD=1
start_server "$WORK/g.log" --shards=4  # no --model
OUT="$("$LOADGEN" --mode=probe --port="$PORT" --method=POST --path=/reload \
    --body="{\"model\":\"$WORK/model.bin\"}" 2>/dev/null)"
echo "$OUT" | grep -q "PROBE_STATUS 500" \
    || fail "a roll with one sick shard must answer 500, got: $OUT"
echo "$OUT" | grep -q '"failed_shards":1' \
    || fail "expected exactly one failed shard: $OUT"
echo "$OUT" | grep -q '"shard_versions":\[1,0,1,1\]' \
    || fail "expected shard 1 left at v0, rest at v1: $OUT"
HEALTH="$("$LOADGEN" --mode=probe --port="$PORT" --path=/healthz)" \
    || fail "sick-fleet /healthz"
echo "$HEALTH" | grep -q '"status":"degraded"' \
    || fail "healthz must report degraded while a shard is unloaded: $HEALTH"
# Walk the user universe: every user answers 200, users routed to shard 1
# get tagged degraded fallbacks, everyone else gets real model predictions.
SICK=0
HEALTHY=0
for user in $(seq 0 29); do
  OUT="$("$LOADGEN" --mode=probe --port="$PORT" --method=POST --path=/predict \
      --body="{\"user\":$user,\"items\":[1,2]}")" \
      || fail "predict for user $user on the sick fleet"
  if echo "$OUT" | grep -q '"shard":1[,}]'; then
    echo "$OUT" | grep -q '"degraded":true' \
        || fail "user $user on the sick shard was not degraded: $OUT"
    SICK=$((SICK + 1))
  else
    echo "$OUT" | grep -q '"degraded":false' \
        || fail "user $user on a healthy shard was degraded: $OUT"
    HEALTHY=$((HEALTHY + 1))
  fi
done
[ "$SICK" -gt 0 ] || fail "no user routed to the sick shard"
[ "$HEALTHY" -gt 0 ] || fail "no user routed to a healthy shard"
# The fault is one-shot: the next roll heals shard 1 and the fleet reports
# healthy again.
"$LOADGEN" --mode=probe --port="$PORT" --method=POST --path=/reload \
    --body="{\"model\":\"$WORK/model.bin\"}" >"$WORK/g_heal.log" \
    || { cat "$WORK/g_heal.log" >&2; fail "healing /reload"; }
grep -q '"shard_versions":\[2,1,2,2\]' "$WORK/g_heal.log" \
    || fail "healing roll must publish on every shard: $(cat "$WORK/g_heal.log")"
HEALTH="$("$LOADGEN" --mode=probe --port="$PORT" --path=/healthz)" \
    || fail "healed-fleet /healthz"
echo "$HEALTH" | grep -q '"status":"ok"' \
    || fail "fleet must report ok after the healing roll: $HEALTH"
METRICS="$("$LOADGEN" --mode=probe --port="$PORT" --path=/metrics)" \
    || fail "phase G /metrics"
[ "$(metrics_counter "$METRICS" serve.reload.shard_failures)" -eq 1 ] \
    || fail "serve.reload.shard_failures must count the one sick swap"
stop_server
unset HIRE_FAULT_SERVE_CORRUPT_RELOAD_SHARD

echo "PASS: deadlines, shedding, degradation, corrupt reload, resets, slow-loris, and the sick-shard roll all held"
