#!/usr/bin/env bash
# Reruns the twelve paper drivers (bench/: figures 2-5, tables 1-2,
# the communication overhead and the five ablations) at
# BAFFLE_THREADS=4 in a temporary directory, then compares every CSV
# they write, byte for byte, with the copy committed at the repository
# root. Any change to a reproduced number fails it, whether it comes
# from the defense, the attacks, the baselines or the kernels below.
#
# Usage: tools/paper_csvs.sh BUILD_DIR
#   BUILD_DIR is a configured CMake build of this tree; the script
#   builds the twelve drivers and test_tensor (whose SimdDispatch test
#   names the dispatched GEMM tile) in it first.
#
# The committed CSVs are the vector arm's: its AVX-512F (zmm) and AVX2
# (ymm) GEMM tiles give the same bytes, so both are checked. The scalar
# arm folds without FMA and moves rows of four CSVs, so on a host that
# dispatches it (no AVX2+FMA, or BAFFLE_FORCE_SCALAR) the check prints
# the tile and exits 77, a skip. About 16 s on 4 vCPUs.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$(cd "$1" && pwd)"

DRIVERS=(fig2_perclass_error table1_lookback fig3_quorum fig4_early_poisoning
         table2_adaptive fig5_vote_distribution comm_overhead ablation_metric
         ablation_attacks ablation_protocol ablation_noniid ablation_baselines)

cmake --build "$build" -j "$(nproc 2>/dev/null || echo 2)" \
  --target test_tensor "${DRIVERS[@]}"

tile="$("$build/tests/test_tensor" \
          --gtest_filter=SimdDispatch.GemmWidthNamesTheActiveTile |
        grep 'GEMM tile:' || true)"
echo "${tile:-GEMM tile: unknown}"
if [[ "$tile" == "GEMM tile: scalar "* ]]; then
  echo "paper CSVs: SKIP (the committed CSVs are the vector arm's;" \
       "the scalar arm moves rows)"
  exit 77
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
for driver in "${DRIVERS[@]}"; do
  if ! (cd "$work" && BAFFLE_THREADS=4 "$build/bench/$driver" \
          > "$driver.log" 2>&1); then
    echo "FAIL: $driver exited nonzero; its output:" >&2
    cat "$work/$driver.log" >&2
    exit 1
  fi
done

status=0
shopt -s nullglob
csvs=("$work"/*.csv)
if [[ ${#csvs[@]} -eq 0 ]]; then
  echo "FAIL: the drivers wrote no CSV" >&2
  exit 1
fi
for fresh in "${csvs[@]}"; do
  name="$(basename "$fresh")"
  if [[ ! -f "$root/$name" ]]; then
    echo "FAIL: $name is not committed" >&2
    status=1
  elif ! cmp -s "$fresh" "$root/$name"; then
    echo "FAIL: $name differs from the committed copy:" >&2
    diff "$root/$name" "$fresh" | head -20 >&2 || true
    status=1
  else
    echo "same  $name"
  fi
done
for committed in "$root"/bench_*.csv; do
  if [[ ! -f "$work/$(basename "$committed")" ]]; then
    echo "FAIL: no driver wrote $(basename "$committed")" >&2
    status=1
  fi
done
exit "$status"
