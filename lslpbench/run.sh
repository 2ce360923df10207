#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload.
#
#   bash lslpbench/run.sh --workload paper|scale|fuzz --seed N \
#       --seconds S --trace 0|1
#
# Run from the repository root. The build goes to $CARGO_TARGET_DIR
# (default .bench_build); build output goes to stderr, so the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail

if [[ ! -f lslpbench/CMakeLists.txt || ! -f src/CMakeLists.txt ]]; then
  echo "lslpbench: run from the root of a full checkout (src/ missing)" >&2
  exit 2
fi

build_dir="${CARGO_TARGET_DIR:-.bench_build}"
jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4

if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
  cmake -S lslpbench -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build_dir" --target lslpbench -j "$jobs" >&2

exec "$build_dir/lslpbench" --root . "$@"
