#!/usr/bin/env bash
# Sanitizer passes over the suites that exercise raw sockets, threads, and
# manual buffer handling — including the tape-free inference path (arena
# allocator + fused kernels in core_test/serve_test, the strided attention
# kernels and their query-prefix variants in nn_test/tensor_test) — plus
# the serve_chaos drill. First a warnings gate, then two sanitizer passes,
# each in its own build tree:
#   0. a Release build of every target with -DHIRE_WERROR=ON, so a new
#      compiler warning fails the script;
#   1. -DHIRE_SANITIZE=address,undefined (ASan + UBSan);
#   2. -DHIRE_SANITIZE=thread (TSan): the work-stealing runtime, the event
#      loop, snapshot hot-swap and rolling reloads under a race detector.
# Every report is fatal, so a green exit means zero findings. There are no
# suppressions.
#
# Usage: run_sanitize.sh [source_dir] [build_dir]
#   source_dir  repo root          (default: the directory above this script)
#   build_dir   ASan/UBSan tree    (default: <source_dir>/build-sanitize);
#               the TSan tree is <build_dir>-thread, the -Werror tree
#               <build_dir>-werror
# HIRE_SANITIZERS=address,undefined (or =thread) runs that one sanitizer
# pass only, in build_dir, without the warnings gate.
#
# Wired as the optional `sanitize` CMake target: `cmake --build build
# --target sanitize`. Not part of the default ctest run — each sanitizer
# tree is a full second build.
set -u

SOURCE_DIR="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
BUILD_DIR="${2:-$SOURCE_DIR/build-sanitize}"
TESTS=(utils_test tensor_test nn_test core_test serve_test shard_test)
JOBS="$(nproc 2>/dev/null || echo 2)"

fail() { echo "FAIL: $*" >&2; exit 1; }

# Abort on the first report of any sanitizer. halt_on_error makes UBSan and
# TSan reports fatal (they only log by default).
export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

werror_pass() {
  local build_dir="$1"
  echo "configuring $build_dir with -DHIRE_WERROR=ON"
  cmake -B "$build_dir" -S "$SOURCE_DIR" -DCMAKE_BUILD_TYPE=Release \
      -DHIRE_WERROR=ON >/dev/null || fail "cmake configure (werror)"
  cmake --build "$build_dir" -j "$JOBS" \
      || fail "a compiler warning (or error) in the -Werror build"
  echo "PASS: every target builds warning-free"
}

run_pass() {
  local sanitizers="$1"
  local build_dir="$2"
  echo "configuring $build_dir with -DHIRE_SANITIZE=$sanitizers"
  cmake -B "$build_dir" -S "$SOURCE_DIR" \
      -DHIRE_SANITIZE="$sanitizers" \
      -DHIRE_BUILD_BENCHMARKS=OFF -DHIRE_BUILD_EXAMPLES=OFF \
      >/dev/null || fail "cmake configure ($sanitizers)"

  cmake --build "$build_dir" -j "$JOBS" --target "${TESTS[@]}" \
      || fail "build ($sanitizers)"

  local test
  for test in "${TESTS[@]}"; do
    echo "running $test under $sanitizers"
    "$build_dir/tests/$test" || fail "$test reported $sanitizers findings"
  done

  # The chaos drill drives the whole serving tier — event-loop front-end,
  # shard router, rolling reloads, fault injection — through real sockets,
  # so a sanitized pass covers the code paths unit tests cannot reach.
  cmake --build "$build_dir" -j "$JOBS" --target hire_cli serve_loadgen \
      || fail "build (serve drill binaries, $sanitizers)"
  echo "running serve_chaos drill under $sanitizers"
  bash "$SOURCE_DIR/tools/run_serve_chaos.sh" \
      "$build_dir/tools/hire_cli" "$build_dir/tools/serve_loadgen" \
      || fail "serve_chaos reported $sanitizers findings"

  echo "PASS: ${TESTS[*]} + serve_chaos clean under $sanitizers"
}

if [ -n "${HIRE_SANITIZERS:-}" ]; then
  run_pass "$HIRE_SANITIZERS" "$BUILD_DIR"
else
  werror_pass "$BUILD_DIR-werror"
  run_pass address,undefined "$BUILD_DIR"
  run_pass thread "$BUILD_DIR-thread"
fi
