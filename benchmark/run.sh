#!/usr/bin/env bash
# Build the program from source and run the repository benchmark.
#
#   bash benchmark/run.sh --workload W --seed N [--seconds S] [--trace 0|1|DIR] [--smoke]
#       one workload; the last line of stdout is the result object
#       {"correct", "attempted", "failed", "metrics"}.
#   bash benchmark/run.sh --seed N [--sets K] [--trace DIR] [--smoke]
#       every workload, each in its own process, K sets in alternating
#       order, then one traced run of each; with K >= 2 it compares the
#       sets against the bounds in BENCHMARK.json.
#
# Workloads: cold-sweep, warm-sweep, functional, serve-mix. The exit
# code is non-zero when the build or any correctness check fails.
# Builds go to $CARGO_TARGET_DIR (default .bench_build) at the root of
# the checkout; the benchmark reads and writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
    echo "run.sh: $root holds no GraphR sources to build" >&2
    exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
log="$build/build.log"
jobs="$(nproc 2>/dev/null || echo 2)"
if ((jobs > 4)); then jobs=4; fi
configure=(cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release)
if command -v ninja >/dev/null; then configure+=(-G Ninja); fi
if ! {
    { [[ -f "$build/CMakeCache.txt" ]] || "${configure[@]}"; } &&
        cmake --build "$build" --target graphr_bench -j "$jobs"
} >"$log" 2>&1; then
    tail -n 40 "$log" >&2
    echo "run.sh: build failed (log: $log)" >&2
    exit 1
fi

exec "$build/graphr_bench" --work-dir "$build/work" "$@"
