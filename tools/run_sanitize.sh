#!/usr/bin/env bash
# Sanitizer pass over the suites that exercise raw sockets, threads, and
# manual buffer handling — including the tape-free inference path (arena
# allocator + fused kernels in core_test/serve_test, the strided attention
# kernels and their query-prefix variants in nn_test/tensor_test):
# configure a separate build tree with
# -DHIRE_SANITIZE=address,undefined, build the serve + utils test binaries,
# and run them with strict sanitizer options (abort on the first report).
#
# Usage: run_sanitize.sh [source_dir] [build_dir]
#   source_dir  repo root          (default: the directory above this script)
#   build_dir   sanitizer tree     (default: <source_dir>/build-sanitize)
#
# Wired as the optional `sanitize` CMake target: `cmake --build build
# --target sanitize`. Not part of the default ctest run — a sanitizer
# rebuild roughly doubles build time.
set -u

SOURCE_DIR="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
BUILD_DIR="${2:-$SOURCE_DIR/build-sanitize}"
SANITIZERS="${HIRE_SANITIZERS:-address,undefined}"
TESTS=(utils_test tensor_test nn_test core_test serve_test shard_test)

fail() { echo "FAIL: $*" >&2; exit 1; }

echo "configuring $BUILD_DIR with -DHIRE_SANITIZE=$SANITIZERS"
cmake -B "$BUILD_DIR" -S "$SOURCE_DIR" \
    -DHIRE_SANITIZE="$SANITIZERS" \
    -DHIRE_BUILD_BENCHMARKS=OFF -DHIRE_BUILD_EXAMPLES=OFF \
    >/dev/null || fail "cmake configure"

cmake --build "$BUILD_DIR" -j --target "${TESTS[@]}" || fail "build"

# halt_on_error makes UBSan reports fatal (they only log by default), so a
# green exit really means zero findings from either sanitizer.
export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

for test in "${TESTS[@]}"; do
  echo "running $test under $SANITIZERS"
  "$BUILD_DIR/tests/$test" || fail "$test reported sanitizer findings"
done

# The chaos drill drives the whole serving tier — event-loop front-end,
# shard router, rolling reloads, fault injection — through real sockets, so
# a sanitized pass covers the code paths unit tests cannot reach.
cmake --build "$BUILD_DIR" -j --target hire_cli serve_loadgen \
    || fail "build (serve drill binaries)"
echo "running serve_chaos drill under $SANITIZERS"
bash "$SOURCE_DIR/tools/run_serve_chaos.sh" \
    "$BUILD_DIR/tools/hire_cli" "$BUILD_DIR/tools/serve_loadgen" \
    || fail "serve_chaos reported sanitizer findings"

echo "PASS: ${TESTS[*]} + serve_chaos clean under $SANITIZERS"
