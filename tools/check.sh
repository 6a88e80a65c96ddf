#!/usr/bin/env bash
# Strict local CI gate: warnings-as-errors build + full test suite (on
# both kernel-dispatch arms), the full libm expf-copy sweep, repo lint,
# and optional sanitizer stages.
#
# Usage:
#   tools/check.sh            # strict build + ctest (both arms) + GEMM
#                             # tile report + expf sweep + lint
#   tools/check.sh --checks   # also build with BAFFLE_CHECKS=ON (live
#                             # DCHECK contracts) and run the full suite
#   tools/check.sh --asan     # also build with -fsanitize=address,leak
#                             # and run the full suite on both arms
#   tools/check.sh --tsan     # also build with -fsanitize=thread and run
#                             # the concurrent suites under TSan
#   tools/check.sh --ubsan    # also build with -fsanitize=undefined
#                             # (+float-cast-overflow) and run the
#                             # numeric, data, FL, attack and net suites
#                             # on both arms
#   tools/check.sh --tidy     # also run clang-tidy (skips if absent)
#   tools/check.sh --thread-safety
#                             # also build everything with clang under
#                             # -Werror=thread-safety-analysis and run
#                             # the compile-fail fixtures (skips when
#                             # clang is absent)
#   tools/check.sh --bench-smoke
#                             # also run defense_bench --smoke and fail
#                             # on a cold/warm validator parity break
#   tools/check.sh --fuzz     # also run the deterministic wire-protocol
#                             # fuzzer under the ASan build (truncation /
#                             # bit-flip / garbage corpus through the
#                             # decoder and a round-server session must
#                             # never crash, over-read or lose a frame)
#   tools/check.sh --sweep-smoke
#                             # also run a tiny baffle_sweep grid at
#                             # BAFFLE_THREADS=1 vs 4 and fail on any
#                             # CSV byte difference
#   tools/check.sh --e2e-build
#                             # also build the end-to-end benchmark
#                             # binary (e2ebench/, into .bench_build),
#                             # run its harness tests and its --smoke
#                             # run, which fails unless the benchmark's
#                             # own correctness checks hold
#   tools/check.sh --paper    # also rerun the twelve paper drivers at
#                             # BAFFLE_THREADS=4 and fail on any CSV
#                             # byte that differs from the committed
#                             # bench_*.csv (skips on the scalar
#                             # arm; tools/paper_csvs.sh)
#   tools/check.sh --all      # every stage above
#
# Each stage reports one PASS/FAIL/SKIP line; the script stops at the
# first failure so the offending stage is the last line printed.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
TEST_TARGETS=(test_util test_tensor test_nn test_data test_metrics
              test_fl test_attack test_core test_net test_baselines
              test_exp test_integration)

RUN_CHECKS=0
RUN_ASAN=0
RUN_TSAN=0
RUN_UBSAN=0
RUN_TIDY=0
RUN_THREAD_SAFETY=0
RUN_BENCH_SMOKE=0
RUN_FUZZ=0
RUN_SWEEP_SMOKE=0
RUN_E2E_BUILD=0
RUN_PAPER=0
for arg in "$@"; do
  case "$arg" in
    --checks) RUN_CHECKS=1 ;;
    --asan) RUN_ASAN=1 ;;
    --tsan) RUN_TSAN=1 ;;
    --ubsan) RUN_UBSAN=1 ;;
    --tidy) RUN_TIDY=1 ;;
    --thread-safety) RUN_THREAD_SAFETY=1 ;;
    --bench-smoke) RUN_BENCH_SMOKE=1 ;;
    --fuzz) RUN_FUZZ=1 ;;
    --sweep-smoke) RUN_SWEEP_SMOKE=1 ;;
    --e2e-build) RUN_E2E_BUILD=1 ;;
    --paper) RUN_PAPER=1 ;;
    --all) RUN_CHECKS=1; RUN_ASAN=1; RUN_TSAN=1; RUN_UBSAN=1; RUN_TIDY=1
           RUN_THREAD_SAFETY=1
           RUN_BENCH_SMOKE=1; RUN_FUZZ=1; RUN_SWEEP_SMOKE=1
           RUN_E2E_BUILD=1; RUN_PAPER=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

SUMMARY=()
stage() {  # stage <name> <command...>
  local name="$1"; shift
  echo "== ${name} =="
  if "$@"; then
    SUMMARY+=("PASS  ${name}")
  else
    SUMMARY+=("FAIL  ${name}")
    print_summary
    exit 1
  fi
}
skip() {
  SUMMARY+=("SKIP  $1 ($2)")
  echo "== $1: SKIP ($2) =="
}
print_summary() {
  echo
  echo "check.sh summary:"
  printf '  %s\n' "${SUMMARY[@]}"
}

run_suite_both_arms() {  # run_suite_both_arms <build-dir>
  # The scalar arm must stay a drop-in replacement: every numeric
  # outcome the suite checks has to hold with SIMD dispatch pinned off.
  ctest --test-dir "$1" --output-on-failure -j "$JOBS" &&
    BAFFLE_FORCE_SCALAR=1 ctest --test-dir "$1" --output-on-failure \
      -j "$JOBS"
}

build_cfg() {  # build_cfg <build-dir> <cmake-args...>
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" && cmake --build "$dir" -j "$JOBS"
}

build_targets() {  # build_targets <build-dir> <cmake-arg> <targets...>
  local dir="$1" cfg="$2"; shift 2
  cmake -B "$dir" -S . "$cfg" &&
    cmake --build "$dir" -j "$JOBS" --target "$@"
}

stage "strict build (BAFFLE_STRICT=ON)" \
  build_cfg build-strict -DBAFFLE_STRICT=ON
stage "tests (dispatched + forced-scalar)" \
  run_suite_both_arms build-strict

gemm_width() {
  # Names the GEMM tile the dispatched arm runs, "avx512f" or "avx2":
  # CI runners may lack AVX-512F, and then the width tests skip.
  ./build-strict/tests/test_tensor \
    --gtest_filter=SimdDispatch.GemmWidthNamesTheActiveTile |
    grep 'GEMM tile:'
}
stage "GEMM tile width" gemm_width

# All 2^32 floats through the dispatched exp_f32 against std::exp, split
# across the pool (about 30 s on one core); tools/exp_sweep prints the
# mismatch count. Exit 77 means this host's table has no AVX-512 expf
# copy to check (the tool prints why), which is a SKIP.
echo "== libm expf copy: full sweep (tools/exp_sweep) =="
exp_sweep_rc=0
./build-strict/tools/exp_sweep || exp_sweep_rc=$?
case "$exp_sweep_rc" in
  0) SUMMARY+=("PASS  libm expf copy: full sweep") ;;
  77) skip "libm expf copy: full sweep" "no AVX-512 expf copy on this host" ;;
  *) SUMMARY+=("FAIL  libm expf copy: full sweep")
     print_summary
     exit 1 ;;
esac

stage "repo lint (tools/baffle_lint.py)" \
  python3 tools/baffle_lint.py --root .

run_bench_smoke() {
  # One rep per sweep cell; exits nonzero when a warm validator's
  # (vote, φ, τ, abstained) outcomes diverge from a cold one's (a new
  # Validator every round, no cross-round state). Runs inside
  # build-strict so the smoke JSON does not clobber the committed
  # full-run BENCH_defense.json.
  cmake --build build-strict -j "$JOBS" --target defense_bench &&
    (cd build-strict && ./bench/defense_bench --smoke)
}

run_multieval_smoke() {
  # Exits nonzero when the batched engine's predictions are not
  # byte-identical to its test oracle's (tests/support/predict_oracle),
  # or when the pool-parallel arm is not byte-identical to the
  # one-worker-pool arm.
  # Smoke mode skips the ≥2x speed gate (timing on shared CI hosts is
  # too noisy to assert).
  cmake --build build-strict -j "$JOBS" --target multieval_bench &&
    (cd build-strict && ./bench/multieval_bench --smoke)
}

run_bench_gate() {
  # Compares the smoke runs' fresh JSON against the committed
  # baselines: parity/bit-identity flags hard-fail unconditionally;
  # speedups are tolerance-checked only when both runs enforced their
  # speed gates (multi-core, non-smoke — so typically skipped here, but
  # the flag scan still guards every committed and fresh file).
  python3 tools/bench_gate.py --fresh build-strict --baseline . \
    --file BENCH_defense.json --file BENCH_multieval.json
}

if [[ "$RUN_BENCH_SMOKE" -eq 1 ]]; then
  stage "defense bench smoke (cold/warm parity)" run_bench_smoke
  stage "multieval bench smoke (batched/parallel parity)" \
    run_multieval_smoke
  stage "bench gate (fresh JSON vs committed baselines)" run_bench_gate
fi

run_sweep_smoke() {
  # Asserts CSV byte-parity between BAFFLE_THREADS=1 and 4 at the CLI
  # surface (in-process, Sweep.* already compares pool sizes through
  # ScopedGlobalPool).
  cmake --build build-strict -j "$JOBS" --target baffle_sweep &&
    python3 tools/sweep_parity_test.py build-strict/tools/baffle_sweep
}

if [[ "$RUN_SWEEP_SMOKE" -eq 1 ]]; then
  stage "sweep smoke (thread-count determinism)" run_sweep_smoke
fi

run_e2e_build() {
  # The benchmark links its own binary against the library built from
  # this tree, so a library change can break its compile while every
  # suite above passes. Same steps as CI's e2ebench-build job.
  cmake -S e2ebench -B .bench_build -DCMAKE_BUILD_TYPE=Release &&
    cmake --build .bench_build --target baffle_e2e -j "$JOBS" &&
    python3 -m unittest discover -s e2ebench -p 'test_*.py' &&
    python3 e2ebench/run.py --smoke
}

if [[ "$RUN_E2E_BUILD" -eq 1 ]]; then
  stage "e2ebench build + harness tests + smoke" run_e2e_build
fi

if [[ "$RUN_PAPER" -eq 1 ]]; then
  # Same steps as CI's paper-csvs job. Exit 77 (the scalar arm, whose
  # rounding moves rows) is a SKIP.
  echo "== paper CSVs (tools/paper_csvs.sh) =="
  paper_rc=0
  tools/paper_csvs.sh build-strict || paper_rc=$?
  case "$paper_rc" in
    0) SUMMARY+=("PASS  paper CSVs") ;;
    77) skip "paper CSVs" "the scalar arm moves rows of the CSVs" ;;
    *) SUMMARY+=("FAIL  paper CSVs")
       print_summary
       exit 1 ;;
  esac
fi

if [[ "$RUN_CHECKS" -eq 1 ]]; then
  stage "contracts build (BAFFLE_CHECKS=ON)" \
    build_cfg build-checks -DBAFFLE_CHECKS=ON
  stage "tests under live DCHECKs" \
    run_suite_both_arms build-checks
fi

run_asan_suites() {
  # Full suite on both dispatch arms under ASan+LSan. ctest would work
  # too, but running the binaries directly keeps the report readable on
  # a failure (one process per suite, no interleaving).
  local bin arm
  for arm in "" "BAFFLE_FORCE_SCALAR=1"; do
    for bin in "${TEST_TARGETS[@]}"; do
      env ${arm} ASAN_OPTIONS=halt_on_error=1 \
        "./build-asan/tests/${bin}" --gtest_brief=1 || return 1
    done
  done
}

if [[ "$RUN_ASAN" -eq 1 ]]; then
  stage "ASan build (BAFFLE_ASAN=ON)" \
    build_targets build-asan -DBAFFLE_ASAN=ON "${TEST_TARGETS[@]}"
  stage "tests under ASan+LSan (both arms)" run_asan_suites
fi

run_tsan_suites() {
  # Force a multi-worker pool even on single-core hosts so the parallel
  # GEMM, round-training, secure-agg masking and defense.evaluate paths
  # actually interleave under TSan (the parity suites install their own
  # 1- and 4-worker pools with ScopedGlobalPool; every other test runs
  # on this one).
  local bin
  for bin in test_tensor test_nn test_core test_util test_data test_fl \
      test_net test_exp; do
    BAFFLE_THREADS=4 TSAN_OPTIONS=halt_on_error=1 \
      "./build-tsan/tests/${bin}" --gtest_brief=1 || return 1
  done
}

if [[ "$RUN_TSAN" -eq 1 ]]; then
  stage "TSan build (BAFFLE_TSAN=ON)" \
    build_targets build-tsan -DBAFFLE_TSAN=ON \
    test_tensor test_nn test_core test_util test_data test_fl test_net \
    test_exp
  stage "concurrent suites under TSan" run_tsan_suites
fi

UBSAN_SUITES=(test_tensor test_nn test_data test_fl test_attack test_net)

run_ubsan_suites() {
  # Both dispatch arms: the packed SIMD microkernels and the legacy
  # scalar loops each get a pass over the numeric suites, plus the
  # secure-aggregation encoder (test_fl), the wire/admission path
  # (test_net) that feeds it, and the fraction checks of the data and
  # attack builders (test_data, test_attack), whose NaN inputs must
  # never reach a float-to-integer cast.
  local suite
  for suite in "${UBSAN_SUITES[@]}"; do
    "./build-ubsan/tests/${suite}" --gtest_brief=1 &&
      BAFFLE_FORCE_SCALAR=1 "./build-ubsan/tests/${suite}" --gtest_brief=1 ||
      return 1
  done
}

if [[ "$RUN_UBSAN" -eq 1 ]]; then
  stage "UBSan build (BAFFLE_UBSAN=ON)" \
    build_targets build-ubsan -DBAFFLE_UBSAN=ON "${UBSAN_SUITES[@]}"
  stage "numeric suites under UBSan (both arms)" run_ubsan_suites
fi

run_protocol_fuzz() {
  # The fuzzer's no-crash/no-over-read contract only bites with ASan
  # watching the reads, so it runs from the sanitizer build; a plain
  # strict-build pass rides along in ctest (protocol_fuzz_smoke).
  cmake -B build-asan -S . -DBAFFLE_ASAN=ON &&
    cmake --build build-asan -j "$JOBS" --target protocol_fuzz &&
    ASAN_OPTIONS=halt_on_error=1 ./build-asan/tools/protocol_fuzz \
      --rounds=50
}

if [[ "$RUN_FUZZ" -eq 1 ]]; then
  stage "wire-protocol fuzz under ASan" run_protocol_fuzz
fi

if [[ "$RUN_TIDY" -eq 1 ]]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    stage "clang-tidy (tools/tidy.sh)" tools/tidy.sh build-strict
  else
    skip "clang-tidy" "not installed"
  fi
fi

run_thread_safety_build() {
  # Whole-tree clang build with the analysis promoted to an error: any
  # guarded field touched without its lock anywhere in src/tools/bench
  # fails this stage. The fixtures then prove the gate actually rejects
  # the three seeded lock-discipline bugs.
  CC=clang CXX=clang++ cmake -B build-threadsafety -S . \
    -DBAFFLE_THREAD_SAFETY=ON &&
    cmake --build build-threadsafety -j "$JOBS" &&
    tools/thread_safety_fixtures.sh
}

if [[ "$RUN_THREAD_SAFETY" -eq 1 ]]; then
  if command -v clang++ >/dev/null 2>&1; then
    stage "thread-safety analysis (clang, BAFFLE_THREAD_SAFETY=ON)" \
      run_thread_safety_build
  else
    skip "thread-safety analysis" "clang not installed"
  fi
fi

print_summary
echo "check.sh: all stages passed"
