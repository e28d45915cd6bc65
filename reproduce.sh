#!/bin/sh
# Builds the library, runs the full test suite, and regenerates every paper
# table/figure, capturing outputs at the repo root (test_output.txt and
# bench_output.txt) — the EXPERIMENTS.md workflow in one command.
#
# Set DELPROP_SKIP_SANITIZE=1 to skip the (slower) ASan/UBSan build+test pass.
#
# `./reproduce.sh lint-json` regenerates the committed lint baseline
# (lint_baseline.json) from the current tree and exits. Run it from a clean
# tree — delprop_lint stamps `git describe` into the report and refuses to
# overwrite a tracked baseline from a dirty tree (docs/lint.md "Baseline").
set -eu
cd "$(dirname "$0")"

if [ "${1:-}" = "lint-json" ]; then
  cmake -B build -G Ninja
  cmake --build build --target delprop_lint_tool
  # Exit 1 just means the (now-baselined) findings were printed; exit 2 is a
  # real failure (dirty-tree guard, bad paths) and the file was not written.
  status=0
  ./build/tools/delprop_lint --threads 4 \
    --compile-commands=build/compile_commands.json \
    --json=lint_baseline.json src tools bench tests || status=$?
  if [ "$status" -ge 2 ]; then
    exit "$status"
  fi
  echo "regenerated lint_baseline.json"
  exit 0
fi

cmake -B build -G Ninja
cmake --build build
# Static analysis first: project invariants (Status discipline, deterministic
# iteration, Rng/ThreadPool funnels, hot-path allocation and the shared-core/
# epoch protocols) — see docs/lint.md.
./build/tools/delprop_lint --check --threads 4 \
  --compile-commands=build/compile_commands.json \
  --baseline=lint_baseline.json src tools bench tests
# Shuffle test order inside every gtest binary (fixed seed, so failures are
# reproducible) to keep the suites free of inter-test order dependencies.
# ctest runs each discovered case in its own process, so the shuffle only
# bites in the direct binary runs below and in local `./tests/foo_test` use.
GTEST_SHUFFLE=1 GTEST_RANDOM_SEED=4242 \
  ctest --test-dir build 2>&1 | tee test_output.txt
for t in build/tests/*_test; do
  [ -x "$t" ] || continue
  GTEST_SHUFFLE=1 GTEST_RANDOM_SEED=4242 "$t" >/dev/null 2>&1 || {
    echo "shuffled run failed: $t (GTEST_RANDOM_SEED=4242)" >&2
    exit 1
  }
done
for b in build/bench/bench_*; do
  [ -x "$b" ] && [ -f "$b" ] && "$b"
done 2>&1 | tee bench_output.txt

# Release-mode (-O2) bench smoke: build just the flagship benches in a
# separate optimized tree and regenerate the machine-readable BENCH_*.json
# snapshots at the repo root (schema: docs/perf.md). Keeps the committed
# numbers honest — RelWithDebInfo timings are not Release timings, the
# solver-comparison numbers are medians over --repeat runs, and the
# WriteBenchJson dirty-tree guard refuses to stamp an unreproducible
# "<hash>-dirty" git id into a committed snapshot.
cmake -B build-bench -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build build-bench --target bench_solver_comparison \
  bench_substrate_runtime bench_engine_throughput bench_incremental
./build-bench/bench/bench_solver_comparison --threads 1 --repeat 5 --warmup 1 \
  --json BENCH_solver_comparison.json
./build-bench/bench/bench_substrate_runtime --threads 1 \
  --json BENCH_substrate_runtime.json \
  --benchmark_filter='BM_RbscGreedy|BM_DataForestBuild' \
  --benchmark_min_time=0.05
# Batched-serving headline (naive vs engine on the scaling family); exits
# nonzero if any mode's result fingerprint disagrees.
./build-bench/bench/bench_engine_throughput --threads 4 --requests 1000 \
  --family large --json BENCH_engine_throughput.json
# Live-data headline (per-delta ApplyDelta vs full rebuild on the scaling
# family); exits nonzero if the two arms' result fingerprints disagree.
./build-bench/bench/bench_incremental --deltas 64 --family large \
  --json BENCH_incremental.json
# The repository benchmark (perfbench/, BENCHMARK.json) builds the library
# from src/ on its own; its smoke test runs every workload at 1x, untraced
# and traced, and fails on a build break, a failed answer verification or a
# metric list that drifts from BENCHMARK.json.
python3 perfbench/smoke_test.py

# Sanitizer pass: rebuild everything with AddressSanitizer + UBSan and re-run
# the test suite. Memory errors in the runtime substrate (thread pool, shared
# index cache) or the solvers fail this step even when the plain build passes.
if [ "${DELPROP_SKIP_SANITIZE:-0}" != "1" ]; then
  cmake -B build-asan -G Ninja -DDELPROP_SANITIZE="address;undefined"
  cmake --build build-asan
  ctest --test-dir build-asan --output-on-failure 2>&1 \
    | tee test_output_asan.txt

  # ThreadSanitizer pass over the concurrent substrate: the runtime tests,
  # the multi-threaded solver-comparison bench, and the batch engine tests
  # (the memo cache, with its FIFO eviction, is the only state the engine's
  # workers share). A data race in the thread pool, the shared index cache
  # or the memo fails this step even though the plain build is green.
  cmake -B build-tsan -G Ninja -DDELPROP_SANITIZE=thread
  cmake --build build-tsan --target runtime_test bench_solver_comparison \
    engine_test engine_determinism_test
  ./build-tsan/tests/runtime_test 2>&1 | tee test_output_tsan.txt
  ./build-tsan/bench/bench_solver_comparison --threads 4 2>&1 \
    | tee -a test_output_tsan.txt
  ./build-tsan/tests/engine_test 2>&1 | tee -a test_output_tsan.txt
  ./build-tsan/tests/engine_determinism_test 2>&1 \
    | tee -a test_output_tsan.txt
fi
