#!/usr/bin/env bash
# Builds the tree with one sanitizer and runs the test suite under it.
#
#   tools/sanitize.sh address|undefined|thread [build-dir]
#
# Configures a separate build directory (default: build-<sanitizer> at the
# repository root) with -DSKELCL_SANITIZE=<sanitizer>, builds everything,
# and runs ctest without the perf-smoke label (timing benches, meaningless
# when instrumented) and without OclRuntime.OutOfMemoryThrows (a 5 GiB
# request). Sanitizer findings are fatal, so any report fails its test.
# The exit status is ctest's.
set -euo pipefail

sanitizer="${1:-}"
case "$sanitizer" in
  address|undefined|thread) ;;
  *)
    echo "usage: $0 address|undefined|thread [build-dir]" >&2
    exit 2
    ;;
esac

root="$(cd "$(dirname "$0")/.." && pwd)"
dir="${2:-$root/build-$sanitizer}"
jobs="$(nproc)"

cmake -S "$root" -B "$dir" -DSKELCL_SANITIZE="$sanitizer"
cmake --build "$dir" -j "$jobs"

# allocator_may_return_null: a failed huge allocation throws bad_alloc, as
# the C++ standard requires, instead of ending the process.
export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1:allocator_may_return_null=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1:allocator_may_return_null=1"
cd "$dir"
ctest --output-on-failure -j "$jobs" -LE perf-smoke \
  -E '^OclRuntime\.OutOfMemoryThrows$'
