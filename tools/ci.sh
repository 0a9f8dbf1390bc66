#!/usr/bin/env bash
# Local CI: static analysis first (cheap, catches style/hygiene drift),
# then build the plain, sanitized (ASan+UBSan), ThreadSanitizer, and
# MPQ_AUDIT (runtime invariant checker) configurations and run the full
# test suite under each. TSan exercises the parallel sweep harness
# (tests run EvaluateClass with --jobs > 1); the audit leg runs every
# test with per-event protocol invariants asserted (src/quic/audit.cc).
# After the matrix: bounded model checking of the event machine
# (tools/mpq_model), a 30-second wire-parser fuzz smoke (tools/fuzz_wire),
# the chaos sweep, the many-connection scale smoke (1000-connection
# workload with a --jobs determinism check), the SIMD/scalar crypto
# equivalence check (a -DMPQ_NO_SIMD build must digest-match the
# vectorized build), the benchmark self-test (same seed, same outputs;
# traced equals untraced), and the perf-regression gate.
#
#   tools/ci.sh [--jobs N]
#
# Exits non-zero on the first lint finding, build, or test failure.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs) jobs="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

run_config() {
  local dir="$1"; shift
  echo "==> configure ${dir} ($*)"
  cmake -B "${dir}" -S . "$@"
  echo "==> build ${dir}"
  cmake --build "${dir}" -j "${jobs}"
  # Fast per-layer unit tests first: a broken layer fails in seconds,
  # before the full-network integration suites spin up.
  echo "==> test ${dir} (unit)"
  ctest --test-dir "${dir}" -L unit --output-on-failure -j "${jobs}"
  echo "==> test ${dir} (integration + lint)"
  ctest --test-dir "${dir}" -LE unit --output-on-failure -j "${jobs}"
}

# --- Stage 1: lint -----------------------------------------------------
# Build just the checker in the plain config, prove it still detects its
# seeded-violation corpus, then run it over the real tree.
echo "==> lint (mpq_lint)"
cmake -B build -S . > /dev/null
cmake --build build -j "${jobs}" --target mpq_lint
./build/tools/mpq_lint --selftest tools/lint_corpus
./build/tools/mpq_lint --root . src bench

# clang-tidy is optional tooling (not in the baseline container); run it
# when available, using the checks pinned in .clang-tidy.
if command -v clang-tidy > /dev/null 2>&1; then
  echo "==> lint (clang-tidy)"
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  git ls-files 'src/*.cc' | xargs -P "${jobs}" -n 8 \
    clang-tidy -p build --quiet --warnings-as-errors='*'
else
  echo "==> lint (clang-tidy): not installed, skipping"
fi

# --- Stage 2: build + test matrix --------------------------------------
# The plain leg also builds with MPQ_STRICT so -Wconversion/-Wshadow
# warnings in src/ are hard errors.
run_config build -DMPQ_STRICT=ON
run_config build-asan -DMPQ_SANITIZE=ON
run_config build-tsan -DMPQ_TSAN=ON
run_config build-audit -DMPQ_AUDIT=ON

# --- Stage 3: model checking -------------------------------------------
# Bounded state-space exploration (docs/MODEL_CHECKING.md) on the audit
# build, so every reached state is double-checked by the runtime
# invariant assertions too. The selftest proves the explorer still
# catches its seeded-bug corpus; the scenario runs enumerate every
# schedule within the stated bounds — handshake exhaustively, plus
# adversarial handshake (drop budget) and a small reordered transfer
# with one drop and one duplicate. Each run takes well under a second.
echo "==> model checking (mpq_model)"
./build-audit/tools/mpq_model --selftest
./build-audit/tools/mpq_model --scenario handshake --branch 2 --max-steps 40
./build-audit/tools/mpq_model --scenario handshake --branch 3 --drops 1
./build-audit/tools/mpq_model --scenario transfer --size 1200 --branch 3 \
  --window 10000 --drops 1 --dups 1

# --- Stage 4: fuzz smoke -----------------------------------------------
# Build the wire-parser fuzz harness and give it 30 seconds. With a
# clang toolchain this is real coverage-guided libFuzzer; on GCC the
# binary is the standalone replayer (it ignores the -flags), so the
# harness and seed corpus still compile and run everywhere.
echo "==> fuzz smoke (fuzz_wire)"
cmake -B build-fuzz -S . -DMPQ_LIBFUZZER=ON > /dev/null
cmake --build build-fuzz -j "${jobs}" --target fuzz_wire
./build-fuzz/tools/fuzz_wire -max_total_time=30 -seed=1 tools/fuzz_corpus/wire

# --- Stage 5: chaos sweep ----------------------------------------------
# The ctest `chaos` label (already run per-config above) covers a 25-seed
# smoke; this stage runs the full 200-scenario fault-injection sweep from
# docs/ROBUSTNESS.md under the two configurations that catch what plain
# builds cannot: ASan+UBSan for memory errors on the fault paths, and
# MPQ_AUDIT for protocol invariant violations on every simulated event.
for dir in build-asan build-audit; do
  echo "==> chaos sweep (${dir})"
  "./${dir}/tools/mpq_chaos" --sweep 200 --seed 1
done

# --- Stage 5b: many-connection scale smoke -----------------------------
# Seeded 1000-connection workload (bench_many_conn --smoke) under the
# two configurations that see what plain builds cannot (ASan+UBSan,
# MPQ_AUDIT), with the server-engine determinism bar enforced: --jobs 1
# and --jobs 4 must produce byte-identical KPIs and per-flow metrics.
# The ctest `scale` label (workload_test) already ran per-config above;
# this exercises the full fleet at 1000 connections.
for dir in build-asan build-audit; do
  echo "==> scale smoke (${dir})"
  "./${dir}/bench/bench_many_conn" --smoke 1000 --seed 1 --jobs 1 \
    --metrics "${dir}/scale_j1.ndjson" > "${dir}/scale_j1.json"
  "./${dir}/bench/bench_many_conn" --smoke 1000 --seed 1 --jobs 4 \
    --metrics "${dir}/scale_j4.ndjson" > "${dir}/scale_j4.json"
  cmp "${dir}/scale_j1.json" "${dir}/scale_j4.json"
  cmp "${dir}/scale_j1.ndjson" "${dir}/scale_j4.ndjson"
  ./build/tools/mpq_trace --aggregate "${dir}/scale_j1.ndjson" > /dev/null
done

# --- Stage 5c: SIMD/scalar crypto equivalence ---------------------------
# Build the crypto micro-bench with the SIMD kernels compiled out
# entirely (-DMPQ_NO_SIMD=ON) and byte-compare its deterministic
# --selftest digest sweep against the default build's. This is the
# end-to-end guarantee that the SSE2/AVX2 ChaCha20 kernels and the fused
# seal/open walk produce exactly the scalar bytes — independent of the
# unit-test vectors, on the real dispatch path.
echo "==> crypto SIMD/scalar equivalence (build-nosimd)"
cmake -B build-nosimd -S . -DMPQ_NO_SIMD=ON > /dev/null
cmake --build build-nosimd -j "${jobs}" --target bench_micro_crypto
./build/bench/bench_micro_crypto --selftest > build/crypto_selftest.txt
./build-nosimd/bench/bench_micro_crypto --selftest \
  > build-nosimd/crypto_selftest.txt
cmp build/crypto_selftest.txt build-nosimd/crypto_selftest.txt
# Belt and braces: the runtime kill switch must land on the same bytes.
MPQ_NO_SIMD=1 ./build/bench/bench_micro_crypto --selftest \
  | cmp - build/crypto_selftest.txt

# --- Stage 5d: benchmark self-test --------------------------------------
# perfbench (BENCHMARK.json) runs every workload twice on one seed and
# once on another, untraced and traced: the same seed must reproduce the
# inputs, outputs and deterministic metrics exactly, and tracing must not
# change the outputs. A refactor that perturbs protocol behaviour (or
# makes it depend on the profiler) fails here.
echo "==> benchmark self-test (perfbench)"
python3 perfbench/check.py selftest

# --- Stage 6: perf-regression gate -------------------------------------
# Re-measure the engine transfer (--quick skips the WSP sweeps) five
# times and compare the median sample's packets-per-second against the
# committed baseline; fail the build if the engine regressed more than
# 15%. One sample swings far more than that on a shared host, so the
# median keeps a no-change run from tripping the gate without widening
# the bound. The committed BENCH_*.json is the newest checkpoint —
# refresh it with `build/bench/bench_perf_baseline --prof --out
# BENCH_PRn.json` whenever a PR intentionally moves the number
# (docs/PERFORMANCE.md).
baseline=$(ls BENCH_PR*.json 2>/dev/null | sort -V | tail -1)
if [[ -n "${baseline}" ]]; then
  echo "==> perf-regression gate (median of 5 vs ${baseline})"
  samples=()
  for i in 1 2 3 4 5; do
    ./build/bench/bench_perf_baseline --quick --out "build/BENCH_ci_${i}.json"
    samples+=("build/BENCH_ci_${i}.json")
  done
  median=$(python3 - "${samples[@]}" <<'PY'
import json
import sys

def pps(path):
    with open(path) as f:
        return json.load(f)["current"]["engine_packets_per_sec"]

paths = sorted(sys.argv[1:], key=pps)
print(paths[len(paths) // 2])
PY
)
  ./build/tools/mpq_prof --check-regression "${median}" "${baseline}" \
    --tolerance 15
else
  echo "==> perf-regression gate: no committed BENCH_PR*.json, skipping"
fi

echo "==> all configurations passed"
