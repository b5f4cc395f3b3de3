#!/usr/bin/env bash
# SIMD dispatch parity: the same functional run must produce
# byte-identical JSON reports whether the crossbar MVM accumulates
# through the scalar kernel (GRAPHR_SIMD=scalar) or whatever tier the
# cpuid dispatcher picks (unset), and — where the host supports it —
# under an explicit GRAPHR_SIMD=avx2. The reports hold the modelled
# schedule, not the functional outputs; SimdSweepParityTest in
# tests/test_engine.cc compares those across tiers.
#
# Usage: simd_parity.sh <path-to-graphr_run>
set -euo pipefail

run="${1:?usage: simd_parity.sh <graphr_run>}"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

args=(--algo all --backend graphr --functional
      --dataset rmat:vertices=64,edges=256,seed=3
      --param iterations=3,epochs=1,features=4)

GRAPHR_SIMD=scalar "$run" "${args[@]}" \
    --out "$workdir/scalar.json" >/dev/null
env -u GRAPHR_SIMD "$run" "${args[@]}" \
    --out "$workdir/auto.json" >/dev/null

cmp "$workdir/scalar.json" "$workdir/auto.json" || {
    echo "FAIL: scalar vs dispatched reports differ" >&2
    exit 1
}

if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
    GRAPHR_SIMD=avx2 "$run" "${args[@]}" \
        --out "$workdir/avx2.json" >/dev/null
    cmp "$workdir/scalar.json" "$workdir/avx2.json" || {
        echo "FAIL: scalar vs avx2 reports differ" >&2
        exit 1
    }
fi

echo "PASS: SIMD tiers byte-identical"
