#!/bin/sh
# Builds the library, runs the full test suite, and regenerates every paper
# table/figure, capturing outputs at the repo root (test_output.txt and
# bench_output.txt) — the EXPERIMENTS.md workflow in one command.
#
# Set DELPROP_SKIP_SANITIZE=1 to skip the (slower) ASan/UBSan build+test pass.
set -eu
cd "$(dirname "$0")"

cmake -B build
cmake --build build
# Static analysis first: project invariants (deterministic iteration,
# Rng/ThreadPool funnels, hot-path allocation and the shared-core/epoch
# protocols) — see docs/lint.md.
./build/tools/delprop_lint --check src tools bench tests
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
# Every paper bench in turn, output appended to bench_output.txt. Each
# bench/bench_*.cc is one target of the same name, so looping over the
# sources runs exactly the configured benches, never a stale executable that
# a deleted target left in an existing build tree. sh has no pipefail, so
# each bench's status is checked here, not through tee: the loop stops at
# the first bench that exits nonzero (a failed claim check).
: > bench_output.txt
for src in bench/bench_*.cc; do
  b="build/bench/$(basename "$src" .cc)"
  status=0
  "$b" > bench_last_output.txt 2>&1 || status=$?
  tee -a bench_output.txt < bench_last_output.txt
  if [ "$status" -ne 0 ]; then
    echo "bench failed: $b (exit $status)" >&2
    exit 1
  fi
done
rm -f bench_last_output.txt

# Release-mode (-O2) bench smoke: build the solver-comparison bench in a
# separate optimized tree and regenerate its machine-readable snapshot
# BENCH_solver_comparison.json at the repo root (schema: docs/perf.md).
# Keeps the committed numbers honest — RelWithDebInfo timings are not
# Release timings, the numbers are medians over --repeat runs, and the
# WriteBenchJson dirty-tree guard refuses to stamp an unreproducible
# "<hash>-dirty" git id into a committed snapshot.
cmake -B build-bench -DCMAKE_BUILD_TYPE=Release
cmake --build build-bench --target bench_solver_comparison
./build-bench/bench/bench_solver_comparison --threads 1 --repeat 5 --warmup 1 \
  --json BENCH_solver_comparison.json
# The repository benchmark (perfbench/, BENCHMARK.json) builds the library
# from src/ on its own; its smoke test runs every workload at 1x, untraced
# and traced, and fails on a build break, a failed answer verification or a
# metric list that drifts from BENCHMARK.json.
python3 perfbench/smoke_test.py

# Sanitizer pass: rebuild everything with AddressSanitizer + UBSan and re-run
# the test suite. Memory errors in the runtime substrate (thread pool, shared
# index cache) or the solvers fail this step even when the plain build passes.
if [ "${DELPROP_SKIP_SANITIZE:-0}" != "1" ]; then
  cmake -B build-asan -DDELPROP_SANITIZE="address;undefined"
  cmake --build build-asan
  ctest --test-dir build-asan --output-on-failure 2>&1 \
    | tee test_output_asan.txt

  # ThreadSanitizer pass over the concurrent substrate: the runtime tests,
  # the multi-threaded solver-comparison bench, the batch engine tests (the
  # memo cache, with its FIFO eviction, is the only state the engine's
  # workers share), and the plan and delta tests, which build cores and
  # compact views on a pool (ranges that write disjoint slots, and row marks
  # two ranges may store to at once). A data race in the thread pool, the
  # shared index cache, the memo or a pooled build fails this step even
  # though the plain build is green.
  # As in the bench loop, each run's status is checked here, not through
  # tee (sh has no pipefail), so a race report (exit 66) stops the script.
  cmake -B build-tsan -DDELPROP_SANITIZE=thread
  cmake --build build-tsan --target runtime_test bench_solver_comparison \
    engine_test engine_determinism_test plan_test apply_delta_test
  : > test_output_tsan.txt
  for t in tests/runtime_test "bench/bench_solver_comparison --threads 4" \
      tests/engine_test tests/engine_determinism_test tests/plan_test \
      tests/apply_delta_test; do
    status=0
    ./build-tsan/$t > tsan_last_output.txt 2>&1 || status=$?
    tee -a test_output_tsan.txt < tsan_last_output.txt
    if [ "$status" -ne 0 ]; then
      echo "TSan run failed: $t (exit $status)" >&2
      exit 1
    fi
  done
  rm -f tsan_last_output.txt
fi
