#!/usr/bin/env bash
# Configures a Release build, runs the tensor micro-benchmark harness at
# 1/2/all threads, and writes BENCH_tensor.json at the repo root. Usage:
#   tools/run_bench.sh [build_dir] [extra bench flags...]
#
# Trace-capture mode: instead of the micro-benchmarks, run a short traced
# training job and write BENCH_trace.json (Chrome trace-event format, open in
# Perfetto) plus BENCH_telemetry.jsonl at the repo root:
#   tools/run_bench.sh --trace [build_dir] [extra hire_cli train flags...]
#
# Serving mode: train a small model, then measure the serving subsystem with
# the closed-loop load generator (batched vs unbatched, cold vs warm cache)
# and write BENCH_serve.json at the repo root:
#   tools/run_bench.sh --serve [build_dir] [extra serve_loadgen flags...]
#
# Kernel mode: time the fused inference kernels (fused attention, GEMM
# epilogue, online softmax, whole serve forward) against their tape
# equivalents in alternating rounds and write this machine's record of
# median fused/tape speedups into BENCH_kernels.json at the repo root,
# keeping the records of other machines. The `kernel_regress` ctest gates
# against the record whose machine fingerprint matches:
#   tools/run_bench.sh --kernels [build_dir] [extra bench flags...]
#
# Scaling-check mode: run the micro-benchmarks to a throwaway JSON and FAIL
# (nonzero exit) if any threaded row whose thread count fits the machine is
# slower than the serial row beyond a tolerance (default 5%). Skipped with a
# message when the machine has a single effective core (every threaded row is
# oversubscribed there and measures only dispatch noise):
#   tools/run_bench.sh --check-scaling[=TOL] [build_dir] [extra bench flags...]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

mode="bench"
check_scaling_flag=""
if [ "${1:-}" = "--trace" ]; then
  mode="trace"
  shift
elif [ "${1:-}" = "--serve" ]; then
  mode="serve"
  shift
elif [ "${1:-}" = "--kernels" ]; then
  mode="kernels"
  shift
elif [ "${1:-}" = "--check-scaling" ]; then
  mode="check"
  check_scaling_flag="--check_scaling"
  shift
elif [[ "${1:-}" = --check-scaling=* ]]; then
  mode="check"
  check_scaling_flag="--check_scaling=${1#--check-scaling=}"
  shift
fi

build_dir="${1:-${repo_root}/build}"
shift || true

nproc_count="$(nproc 2>/dev/null || echo 1)"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release

if [ "${mode}" = "trace" ]; then
  cmake --build "${build_dir}" --target hire_cli -j "${nproc_count}"
  work="$(mktemp -d "${TMPDIR:-/tmp}/hire_bench_trace.XXXXXX")"
  trap 'rm -rf "${work}"' EXIT
  "${build_dir}/tools/hire_cli" train \
    --profile=movielens --scale=0.05 --steps=50 --context=16 \
    --log-every=10 \
    --trace-out="${repo_root}/BENCH_trace.json" \
    --metrics-out="${repo_root}/BENCH_telemetry.jsonl" \
    --out="${work}/model.bin" \
    "$@"
  echo "wrote ${repo_root}/BENCH_trace.json and BENCH_telemetry.jsonl"
  exit 0
fi

if [ "${mode}" = "serve" ]; then
  cmake --build "${build_dir}" --target hire_cli serve_loadgen -j "${nproc_count}"
  work="$(mktemp -d "${TMPDIR:-/tmp}/hire_bench_serve.XXXXXX")"
  trap 'rm -rf "${work}"' EXIT
  # Dataset scale and context are chosen so batches actually coalesce:
  # a 16-column context leaves room for several 3-item queries per forward.
  "${build_dir}/tools/hire_cli" train \
    --profile=movielens --scale=0.2 --steps=40 --context=16 \
    --log-every=0 --out="${work}/model.bin"
  # The open-loop sweep offers a geometric RPS ladder to a single-shard and
  # a 4-shard server (so the saturation knee is visible per config) while
  # 2000 idle connections stay open to prove fd scale on the event loop.
  "${build_dir}/tools/serve_loadgen" --mode=bench \
    --model="${work}/model.bin" \
    --profile=movielens --scale=0.2 --context=16 \
    --clients=8 --requests-per-client=25 --items-per-request=3 \
    --batch-window-us=2000 \
    --shards=4 --open-loop-steps=5 --open-loop-base-rps=100 \
    --open-loop-duration-s=2 --open-loop-connections=64 \
    --idle-connections=2000 \
    --out="${repo_root}/BENCH_serve.json" \
    "$@"
  echo "wrote ${repo_root}/BENCH_serve.json"
  exit 0
fi

if [ "${mode}" = "kernels" ]; then
  cmake --build "${build_dir}" --target bench_kernels -j "${nproc_count}"
  "${build_dir}/bench/bench_kernels" \
    --emit_json="${repo_root}/BENCH_kernels.json" \
    "$@"
  echo "updated this machine's record in ${repo_root}/BENCH_kernels.json"
  exit 0
fi

# 1, 2, nproc, and an 8-way row for cross-machine comparability (deduped).
threads="$(printf '%s\n' 1 2 "${nproc_count}" 8 | sort -nu | paste -sd,)"

cmake --build "${build_dir}" --target bench_micro_tensor -j "${nproc_count}"

if [ "${mode}" = "check" ]; then
  work="$(mktemp -d "${TMPDIR:-/tmp}/hire_bench_check.XXXXXX")"
  trap 'rm -rf "${work}"' EXIT
  if [ "${nproc_count}" -le 1 ]; then
    echo "check-scaling: skipped (1 effective core; threaded rows would be" \
         "oversubscribed and measure only dispatch noise)"
    exit 0
  fi
  # set -e aborts here with the binary's FAIL lines if any row regresses.
  "${build_dir}/bench/bench_micro_tensor" \
    --emit_json="${work}/bench_check.json" \
    --threads="${threads}" \
    "${check_scaling_flag}" \
    "$@"
  echo "check-scaling: PASS (no threaded row slower than serial beyond" \
       "tolerance at any (op, shape) with threads <= ${nproc_count} cores)"
  exit 0
fi

"${build_dir}/bench/bench_micro_tensor" \
  --emit_json="${repo_root}/BENCH_tensor.json" \
  --threads="${threads}" \
  "$@"

echo "wrote ${repo_root}/BENCH_tensor.json"
