#include "solvers/lowdeg_tree_solver.h"

#include <algorithm>
#include <cmath>
#include <optional>

namespace delprop {

// delprop-hot
Result<VseSolution> LowDegTreeSolver::Solve(const VseInstance& instance) {
  if (instance.TotalDeletionTuples() == 0) {
    return MakeSolution(instance, DeletionSet(), name());
  }
  std::shared_ptr<const CompiledInstance> plan = instance.compiled();
  if (Status s = structure_.Build(instance, *plan, TreeMode::kDeltaPaths);
      !s.ok()) {
    return s;
  }
  const DataForest& forest = structure_.forest;
  size_t n = forest.node_count();

  // Red degree of a node: number of preserved view tuples it is joined into.
  // The thresholds τ are the distinct red degrees, ascending. SolveOnTree
  // reads `undeletable` only for nodes on ΔV paths, so two thresholds that
  // differ only on other nodes give the same run: the thresholds come from
  // the ΔV-path nodes alone, one per distinct restriction, in the same
  // ascending order, and only those nodes need a red degree. (A τ below
  // all of them makes every ΔV-path node undeletable, which SolveOnTree
  // rejects as infeasible.)
  delta_nodes_.clear();
  delta_red_.clear();
  delta_nodes_.reserve(n);
  delta_red_.reserve(n);
  for (size_t node = 0; node < n; ++node) {
    if (structure_.delta_through(node).empty()) continue;
    delta_nodes_.push_back(static_cast<uint32_t>(node));
    delta_red_.push_back(structure_.PreservedCount(node));
  }
  thresholds_.assign(delta_red_.begin(), delta_red_.end());
  std::sort(thresholds_.begin(), thresholds_.end());
  thresholds_.erase(std::unique(thresholds_.begin(), thresholds_.end()),
                    thresholds_.end());

  // Prune set: preserved paths wider than sqrt(‖V‖).
  options_.prune_wider_than =
      std::sqrt(static_cast<double>(instance.TotalViewTuples()));
  options_.undeletable.assign(n, false);

  // Different restrictions often give the same node set. An equal set has
  // an equal cost, and the strict `<` below keeps the earlier one, so only a
  // node set no earlier threshold produced needs a report.
  answered_.clear();
  answered_first_.assign(1, 0);
  answered_first_.reserve(thresholds_.size() + 1);
  std::optional<VseSolution> best;
  for (size_t tau : thresholds_) {
    for (size_t k = 0; k < delta_nodes_.size(); ++k) {
      options_.undeletable[delta_nodes_[k]] = delta_red_[k] > tau;
    }
    if (!PrimalDualTreeSolver::SolveOnTree(structure_, options_, &scratch_,
                                           &nodes_)
             .ok()) {
      continue;  // This τ's restriction is infeasible.
    }
    bool seen = false;
    for (size_t k = 0; !seen && k + 1 < answered_first_.size(); ++k) {
      seen = std::equal(answered_.begin() + answered_first_[k],
                        answered_.begin() + answered_first_[k + 1],
                        nodes_.begin(), nodes_.end());
    }
    if (seen) continue;
    answered_.insert(answered_.end(), nodes_.begin(), nodes_.end());
    answered_first_.push_back(answered_.size());
    DeletionSet deletion;
    for (size_t node : nodes_) deletion.Insert(forest.node_ref(node));
    VseSolution candidate = MakeSolution(instance, std::move(deletion), name());
    if (!candidate.Feasible()) continue;
    if (!best.has_value() || candidate.Cost() < best->Cost()) {
      best = std::move(candidate);
    }
  }
  if (!best.has_value()) {
    return Status::Infeasible("no threshold produced a feasible deletion");
  }
  return *std::move(best);
}

}  // namespace delprop
