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
  // The thresholds τ are the distinct red degrees, ascending. SolveOnTree
  // reads `undeletable` only for nodes on ΔV paths, so two thresholds that
  // differ only on other nodes give the same run: the thresholds come from
  // the ΔV-path nodes alone, one per distinct restriction, in the same
  // ascending order. (A τ below all of them makes every ΔV-path node
  // undeletable, which SolveOnTree rejects as infeasible.)
  std::vector<size_t> red_degree(n);
  std::vector<size_t> thresholds;
  thresholds.reserve(n);
  for (size_t node = 0; node < n; ++node) {
    red_degree[node] = structure->preserved_through(node).size();
    if (!structure->delta_through(node).empty()) {
      thresholds.push_back(red_degree[node]);
    }
  }
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

  // Different restrictions often give the same node set. An equal set has
  // an equal cost, and the strict `<` below keeps the earlier one, so only a
  // node set no earlier threshold produced needs a report.
  std::vector<std::vector<size_t>> answered;
  answered.reserve(thresholds.size());
  std::optional<VseSolution> best;
  for (size_t tau : thresholds) {
    options.undeletable.assign(n, false);
    for (size_t node = 0; node < n; ++node) {
      if (red_degree[node] > tau) options.undeletable[node] = true;
    }
    Result<std::vector<size_t>> nodes =
        PrimalDualTreeSolver::SolveOnTree(*structure, options);
    if (!nodes.ok()) continue;  // This τ's restriction is infeasible.
    if (std::find(answered.begin(), answered.end(), *nodes) !=
        answered.end()) {
      continue;
    }
    answered.push_back(*nodes);
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
