// Theorem 3: PrimeDualVSE (Algorithm 1) is an l-approximation on forest
// cases. Sweeps tree workloads of varying depth/width, reporting the
// measured ratio against the l bound and against the other tree algorithm.
// Exits 1, naming the row and trial, when primal-dual fails or costs more
// than l·OPT against a proven optimum.
#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "common/text_table.h"
#include "solvers/exact_solver.h"
#include "solvers/greedy_solver.h"
#include "solvers/primal_dual_tree_solver.h"
#include "workload/path_schema.h"

namespace delprop {
namespace {

int Run() {
  int status = 0;
  bench::Header("Theorem 3 — PrimeDualVSE ratio sweep on forest cases");
  TextTable table({"levels", "roots", "fanout", "‖V‖", "‖ΔV‖", "l", "OPT",
                   "primal-dual", "ratio", "greedy", "pd ms"});
  for (auto [levels, roots, fanout, delta] :
       {std::tuple<size_t, size_t, size_t, double>{3, 2, 2, 0.3},
        {3, 3, 2, 0.25},
        {4, 2, 2, 0.2},
        {4, 1, 3, 0.25},
        {5, 1, 2, 0.2},
        {3, 2, 3, 0.3}}) {
    double ratio_worst = 0.0;
    for (int trial = 0; trial < 5; ++trial) {
      Rng rng(1000 + levels * 100 + roots * 10 + fanout + trial);
      PathSchemaParams params;
      params.levels = levels;
      params.roots = roots;
      params.fanout = fanout;
      params.deletion_fraction = delta;
      Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
      if (!generated.ok()) return 1;
      const VseInstance& instance = *generated->instance;
      ExactSolver exact;
      PrimalDualTreeSolver primal_dual;
      GreedySolver greedy;
      Result<VseSolution> opt = exact.Solve(instance);
      auto [pd, pd_ms] =
          bench::Timed([&] { return primal_dual.Solve(instance); });
      Result<VseSolution> g = greedy.Solve(instance);
      if (!pd.ok()) {
        std::fprintf(stderr,
                     "FAIL levels=%zu roots=%zu fanout=%zu trial=%d: %s\n",
                     levels, roots, fanout, trial,
                     pd.status().ToString().c_str());
        status = 1;
        continue;
      }
      if (!bench::ProvenOptimal(opt) || !g.ok()) continue;
      double l = static_cast<double>(instance.max_arity());
      if (pd->Cost() > l * opt->Cost() + 1e-9) {
        std::fprintf(stderr,
                     "FAIL levels=%zu roots=%zu fanout=%zu trial=%d: "
                     "primal-dual %.17g > l·OPT = %.0f·%.17g\n",
                     levels, roots, fanout, trial, pd->Cost(), l,
                     opt->Cost());
        status = 1;
      }
      double ratio =
          opt->Cost() > 0 ? pd->Cost() / opt->Cost() : 1.0;
      ratio_worst = std::max(ratio_worst, ratio);
      if (trial == 0) {
        table.AddRow({std::to_string(levels), std::to_string(roots),
                      std::to_string(fanout),
                      std::to_string(instance.TotalViewTuples()),
                      std::to_string(instance.TotalDeletionTuples()),
                      std::to_string(instance.max_arity()),
                      FmtDouble(opt->Cost(), 0), FmtDouble(pd->Cost(), 0),
                      FmtDouble(ratio, 2), FmtDouble(g->Cost(), 0),
                      FmtDouble(pd_ms, 2)});
      }
    }
    std::printf("  worst ratio over 5 trials (levels=%zu roots=%zu "
                "fanout=%zu): %.2f  (bound l)\n",
                levels, roots, fanout, ratio_worst);
  }
  table.Print();
  std::printf("\nShape check: every measured ratio is ≤ l (and usually near "
              "1); the reverse-delete step keeps solutions minimal.\n");
  return status;
}

}  // namespace
}  // namespace delprop

int main() { return delprop::Run(); }
