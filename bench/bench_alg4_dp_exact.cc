// Algorithm 4 (DPTreeVSE): exact polynomial DP for pivot forests. Verifies
// exactness against branch-and-bound on every shape where both run, and
// shows the polynomial runtime scaling where exact search blows up. Exits 1,
// naming the row, when a DP cost differs from a proven optimum or a solver
// fails.
#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "common/text_table.h"
#include "solvers/dp_tree_solver.h"
#include "solvers/exact_solver.h"
#include "workload/path_schema.h"

namespace delprop {
namespace {

int Run() {
  int status = 0;
  bench::Header("Algorithm 4 — exactness on pivot forests");
  {
    TextTable table({"levels", "roots", "fanout", "‖V‖", "B&B cost",
                     "DP cost", "equal", "B&B ms", "DP ms"});
    for (auto [levels, roots, fanout] :
         {std::tuple<size_t, size_t, size_t>{3, 2, 2},
          {3, 1, 3},
          {4, 2, 2},
          {4, 1, 3},
          {5, 1, 2}}) {
      Rng rng(4000 + levels * 100 + roots * 10 + fanout);
      PathSchemaParams params;
      params.levels = levels;
      params.roots = roots;
      params.fanout = fanout;
      params.deletion_fraction = 0.25;
      Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
      if (!generated.ok()) return 1;
      const VseInstance& instance = *generated->instance;
      ExactSolver exact;
      DpTreeSolver dp;
      auto [e, e_ms] = bench::Timed([&] { return exact.Solve(instance); });
      auto [d, d_ms] = bench::Timed([&] { return dp.Solve(instance); });
      if (!d.ok()) {
        std::fprintf(stderr, "FAIL levels=%zu roots=%zu fanout=%zu: %s\n",
                     levels, roots, fanout, d.status().ToString().c_str());
        return 1;
      }
      const bool proven = bench::ProvenOptimal(e);
      if (proven && e->Cost() != d->Cost()) {
        std::fprintf(stderr,
                     "FAIL levels=%zu roots=%zu fanout=%zu: DP cost %.17g "
                     "differs from the proven optimum %.17g\n",
                     levels, roots, fanout, d->Cost(), e->Cost());
        status = 1;
      }
      table.AddRow(
          {std::to_string(levels), std::to_string(roots),
           std::to_string(fanout),
           std::to_string(instance.TotalViewTuples()),
           proven ? FmtDouble(e->Cost(), 0) : "budget!",
           FmtDouble(d->Cost(), 0),
           proven ? (e->Cost() == d->Cost() ? "yes" : "NO") : "-",
           proven ? FmtDouble(e_ms, 2) : "-", FmtDouble(d_ms, 2)});
    }
    table.Print();
  }

  bench::Header("Algorithm 4 — polynomial scaling beyond B&B reach");
  {
    TextTable table({"levels", "fanout", "source tuples", "‖V‖", "‖ΔV‖",
                     "DP ms"});
    for (auto [levels, fanout] :
         {std::pair<size_t, size_t>{5, 2}, {6, 2}, {7, 2}, {8, 2}, {6, 3}}) {
      Rng rng(5000 + levels * 10 + fanout);
      PathSchemaParams params;
      params.levels = levels;
      params.roots = 2;
      params.fanout = fanout;
      params.deletion_fraction = 0.2;
      params.query_intervals = {{0, levels - 1}, {1, levels - 1}};
      Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
      if (!generated.ok()) return 1;
      const VseInstance& instance = *generated->instance;
      DpTreeSolver dp;
      auto [d, d_ms] = bench::Timed([&] { return dp.Solve(instance); });
      if (!d.ok()) {
        std::fprintf(stderr, "FAIL levels=%zu fanout=%zu: %s\n", levels,
                     fanout, d.status().ToString().c_str());
        return 1;
      }
      table.AddRow({std::to_string(levels), std::to_string(fanout),
                    std::to_string(generated->database->total_tuple_count()),
                    std::to_string(instance.TotalViewTuples()),
                    std::to_string(instance.TotalDeletionTuples()),
                    FmtDouble(d_ms, 2)});
    }
    table.Print();
    std::printf("\nShape check: DP cost equals the exact optimum wherever "
                "B&B completes, and DP runtime grows polynomially with the "
                "instance (Algorithm 4's claim).\n");
  }
  return status;
}

}  // namespace
}  // namespace delprop

int main() { return delprop::Run(); }
