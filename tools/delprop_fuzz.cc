// delprop_fuzz — differential fuzzing over the solver suite (docs/fuzzing.md).
//
//   delprop_fuzz --seed-start 1 --iterations 500 --threads 4
//                [--shrink 0|1] [--out-dir fuzz-out]
//   delprop_fuzz --replay tests/corpus/pivot_forest_minimal.delprop
//   delprop_fuzz --mutate --iterations 500 [--steps N]
//   delprop_fuzz --ilp-gaps --iterations 25
//
// Fuzz mode generates one instance per seed across the workload families,
// runs every differential oracle, and on violation shrinks the instance to a
// minimal repro script written under --out-dir. The summary on stdout is
// byte-identical at any --threads value. Replay mode reruns the oracles over
// saved repro/corpus files. Mutate mode drives random ApplyDelta scripts
// against live instances and checks every step against a full rebuild (the
// mutate-vs-rebuild oracle, see docs/incremental.md).
//
// Exit status: 0 all oracles hold, 1 violations found, 2 usage or I/O error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ilp/ilp_solver.h"
#include "runtime/thread_pool.h"
#include "solvers/exact_solver.h"
#include "testing/engine.h"
#include "testing/fuzzer.h"
#include "testing/mutation.h"
#include "testing/oracles.h"
#include "workload/random_workload.h"
#include "workload/trap_chain.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed-start N] [--iterations N] [--threads N]\n"
      "          [--shrink 0|1] [--out-dir DIR]\n"
      "       %s --replay FILE...\n"
      "       %s --mutate [--seed-start N] [--iterations N] [--threads N]\n"
      "          [--steps N]\n"
      "       %s --ilp-gaps [--iterations N]\n",
      argv0, argv0, argv0, argv0);
  return 2;
}

/// --ilp-gaps: bounded sweep of the ILP solver's optimality-gap reporting.
/// Trap chains exercise the decomposition (full run must certify gap 0), a
/// zero node budget exercises warm-start fallback, a zero deadline exercises
/// the deadline path, and a random sweep cross-checks proven-optimal costs
/// against the exact solver. Every line of the report is deterministic.
/// Exit status: 0 all certificates hold, 1 violations, 2 generation error.
int RunIlpGaps(size_t iterations) {
  using delprop::IlpOptions;
  using delprop::IlpSolver;
  using delprop::Objective;
  using delprop::VseSolution;

  size_t cases = 0;
  size_t bad = 0;
  auto emit = [&](const std::string& label, const VseSolution& s) {
    ++cases;
    const delprop::OptimalityGap& gap = s.gap;
    const char* status = gap.optimal        ? "optimal"
                         : gap.deadline_hit ? "deadline"
                         : gap.budget_hit   ? "budget"
                                            : "incomplete";
    std::printf(
        "ilp-gap %-20s status=%-8s lower=%.6f upper=%.6f gap=%.4f "
        "nodes=%llu\n",
        label.c_str(), status, gap.lower_bound, gap.upper_bound,
        gap.RelativeGap(), static_cast<unsigned long long>(gap.nodes));
    if (!gap.has_bound || gap.lower_bound > gap.upper_bound + 1e-9 ||
        (gap.optimal && gap.upper_bound - gap.lower_bound > 1e-9)) {
      ++bad;
      std::printf("ilp-gap %s VIOLATION: incoherent certificate\n",
                  label.c_str());
    }
  };
  auto fail = [&](const std::string& label, const std::string& detail) {
    ++bad;
    std::printf("ilp-gap %s VIOLATION: %s\n", label.c_str(), detail.c_str());
  };

  for (size_t gadgets : {4, 8, 12}) {
    const std::string label = "trap-" + std::to_string(gadgets);
    delprop::Result<delprop::GeneratedVse> generated =
        delprop::MakeTrapChain(gadgets);
    if (!generated.ok()) {
      std::fprintf(stderr, "%s: %s\n", label.c_str(),
                   generated.status().ToString().c_str());
      return 2;
    }
    const delprop::VseInstance& instance = *generated->instance;

    IlpSolver full;
    delprop::Result<VseSolution> run = full.Solve(instance);
    if (!run.ok()) {
      fail(label + "/full", run.status().ToString());
    } else {
      emit(label + "/full", *run);
      if (!run->gap.optimal ||
          std::abs(run->Cost() - 1.0 * static_cast<double>(gadgets)) > 1e-9) {
        fail(label + "/full", "expected certified optimum 1.0 per gadget");
      }
    }

    IlpOptions starved;
    starved.node_budget = 0;
    IlpSolver warm(Objective::kStandard, starved);
    run = warm.Solve(instance);
    if (!run.ok()) {
      fail(label + "/budget0", run.status().ToString());
    } else {
      emit(label + "/budget0", *run);
      if (!run->gap.budget_hit || !run->Feasible()) {
        fail(label + "/budget0",
             "zero budget must return the feasible warm start");
      }
    }

    IlpOptions expired;
    expired.deadline_ms = 0.0;
    IlpSolver dead(Objective::kStandard, expired);
    run = dead.Solve(instance);
    if (!run.ok()) {
      fail(label + "/deadline0", run.status().ToString());
    } else {
      emit(label + "/deadline0", *run);
      if (!run->gap.deadline_hit || !run->Feasible()) {
        fail(label + "/deadline0",
             "zero deadline must return the feasible best-so-far");
      }
    }
  }

  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    const std::string label = "random-" + std::to_string(seed);
    delprop::Rng rng(seed);
    delprop::RandomWorkloadParams params;
    params.relations = 2;
    params.rows_per_relation = 10;
    params.queries = 3;
    delprop::Result<delprop::GeneratedVse> generated =
        delprop::GenerateRandomWorkload(rng, params);
    if (!generated.ok()) {
      std::fprintf(stderr, "%s: %s\n", label.c_str(),
                   generated.status().ToString().c_str());
      return 2;
    }
    const delprop::VseInstance& instance = *generated->instance;

    IlpSolver ilp;
    delprop::Result<VseSolution> run = ilp.Solve(instance);
    if (!run.ok()) {
      fail(label, run.status().ToString());
      continue;
    }
    emit(label, *run);

    delprop::ExactSolver exact;
    delprop::Result<VseSolution> optimal = exact.Solve(instance);
    if (optimal.ok() && optimal->gap.optimal && run->gap.optimal &&
        std::abs(optimal->Cost() - run->Cost()) > 1e-9) {
      fail(label, "ilp cost diverges from the exact optimum");
    }
  }

  std::printf("ilp-gaps: %zu case(s), %zu violation(s)\n", cases, bad);
  return bad > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using delprop::ThreadPool;
  using delprop::testing::FuzzEngineOptions;
  using delprop::testing::FuzzSummary;
  using delprop::testing::OracleViolation;

  FuzzEngineOptions options;
  delprop::testing::MutationFuzzOptions mutation;
  size_t threads = 1;
  std::vector<std::string> replay_files;
  bool replay_mode = false;
  bool mutate_mode = false;
  bool ilp_gaps_mode = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--replay") {
      replay_mode = true;
    } else if (arg == "--mutate") {
      mutate_mode = true;
    } else if (arg == "--ilp-gaps") {
      ilp_gaps_mode = true;
    } else if (replay_mode && !arg.empty() && arg[0] != '-') {
      replay_files.push_back(arg);
    } else if (arg == "--steps") {
      const char* v = next_value();
      if (v == nullptr) return Usage(argv[0]);
      mutation.steps_per_case = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seed-start") {
      const char* v = next_value();
      if (v == nullptr) return Usage(argv[0]);
      options.seed_start = std::strtoull(v, nullptr, 10);
    } else if (arg == "--iterations") {
      const char* v = next_value();
      if (v == nullptr) return Usage(argv[0]);
      options.iterations = std::strtoull(v, nullptr, 10);
    } else if (arg == "--threads") {
      const char* v = next_value();
      if (v == nullptr) return Usage(argv[0]);
      threads = std::strtoull(v, nullptr, 10);
      if (threads == 0) threads = 1;
    } else if (arg == "--shrink") {
      const char* v = next_value();
      if (v == nullptr) return Usage(argv[0]);
      options.shrink = std::strcmp(v, "0") != 0;
    } else if (arg == "--out-dir") {
      const char* v = next_value();
      if (v == nullptr) return Usage(argv[0]);
      options.out_dir = v;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return Usage(argv[0]);
    }
  }

  if (ilp_gaps_mode) return RunIlpGaps(options.iterations);

  if (replay_mode) {
    if (replay_files.empty()) return Usage(argv[0]);
    int failures = 0;
    for (const std::string& file : replay_files) {
      delprop::Result<std::vector<OracleViolation>> violations =
          delprop::testing::ReplayScriptFile(file, options.oracle);
      if (!violations.ok()) {
        std::fprintf(stderr, "%s: %s\n", file.c_str(),
                     violations.status().ToString().c_str());
        return 2;
      }
      if (violations->empty()) {
        std::printf("%s: ok (all oracles hold)\n", file.c_str());
        continue;
      }
      ++failures;
      std::printf("%s: %zu violation(s)\n", file.c_str(),
                  violations->size());
      for (const OracleViolation& violation : *violations) {
        std::printf("  %s: %s\n", violation.oracle.c_str(),
                    violation.detail.c_str());
      }
    }
    return failures > 0 ? 1 : 0;
  }

  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  if (mutate_mode) {
    mutation.seed_start = options.seed_start;
    mutation.iterations = options.iterations;
    delprop::testing::MutationFuzzSummary summary =
        delprop::testing::RunMutationFuzz(mutation, pool.get());
    std::fputs(summary.ToString().c_str(), stdout);
    return summary.failing_cases > 0 || summary.generation_failures > 0 ? 1
                                                                        : 0;
  }

  FuzzSummary summary = delprop::testing::RunFuzz(options, pool.get());
  std::fputs(summary.ToString().c_str(), stdout);
  return summary.failing_cases > 0 || summary.generation_failures > 0 ? 1 : 0;
}
