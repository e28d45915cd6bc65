#include "solvers/lowdeg_tree_solver.h"

#include <algorithm>
#include <cmath>

#include "solvers/primal_dual_tree_solver.h"
#include "solvers/tree_common.h"

namespace delprop {

Result<VseSolution> LowDegTreeSolver::Solve(const VseInstance& instance) {
  if (instance.TotalDeletionTuples() == 0) {
    return MakeSolution(instance, DeletionSet(), name());
  }
  Result<TreeStructure> structure =
      BuildTreeStructure(instance, TreeMode::kDeltaPaths);
  if (!structure.ok()) return structure.status();
  const DataForest& forest = structure->forest;
  size_t n = forest.node_count();

  // Red degree of a node: number of preserved view tuples it is joined into.
  // The thresholds τ are the distinct red degrees, ascending.
  std::vector<size_t> red_degree(n);
  for (size_t node = 0; node < n; ++node) {
    red_degree[node] = structure->preserved_through(node).size();
  }
  std::vector<size_t> thresholds = red_degree;
  std::sort(thresholds.begin(), thresholds.end());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());

  // Prune set: preserved paths wider than sqrt(‖V‖).
  double width_cut = std::sqrt(static_cast<double>(instance.TotalViewTuples()));
  PrimalDualOptions options;
  options.zero_weight.assign(structure->preserved_paths.size(), false);
  for (size_t p = 0; p < structure->preserved_paths.size(); ++p) {
    if (static_cast<double>(structure->preserved_paths[p].nodes.size()) >
        width_cut) {
      options.zero_weight[p] = true;
    }
  }

  std::optional<VseSolution> best;
  for (size_t tau : thresholds) {
    options.undeletable.assign(n, false);
    for (size_t node = 0; node < n; ++node) {
      if (red_degree[node] > tau) options.undeletable[node] = true;
    }
    Result<std::vector<size_t>> nodes =
        PrimalDualTreeSolver::SolveOnTree(*structure, options);
    if (!nodes.ok()) continue;  // This τ's restriction is infeasible.
    DeletionSet deletion;
    for (size_t node : *nodes) deletion.Insert(forest.node_ref(node));
    VseSolution candidate = MakeSolution(instance, std::move(deletion), name());
    if (!candidate.Feasible()) continue;
    if (!best.has_value() || candidate.Cost() < best->Cost()) {
      best = std::move(candidate);
    }
  }
  if (!best.has_value()) {
    return Status::Infeasible("no threshold produced a feasible deletion");
  }
  return *best;
}

}  // namespace delprop
