#include "solvers/primal_dual_tree_solver.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace delprop {

Result<std::vector<size_t>> PrimalDualTreeSolver::SolveOnTree(
    const TreeStructure& structure, const PrimalDualOptions& options) {
  const DataForest& forest = structure.forest;
  size_t n = forest.node_count();

  auto deletable = [&](size_t node) {
    return options.undeletable.empty() || !options.undeletable[node];
  };

  // Capacity of a node: total weight of preserved paths through it (the dual
  // constraint (8) budget); zero-weight paths contribute nothing.
  std::vector<double> capacity(n, 0.0);
  for (size_t node = 0; node < n; ++node) {
    for (uint32_t p : structure.preserved_through(node)) {
      if (!options.zero_weight.empty() && options.zero_weight[p]) continue;
      capacity[node] += structure.preserved_paths[p].weight;
    }
  }

  std::vector<double> used(n, 0.0);
  std::vector<bool> deleted(n, false);
  std::vector<size_t> deletion_order;
  deletion_order.reserve(n);  // each node is deleted at most once

  auto path_cut = [&](const TreeStructure::PathInfo& path) {
    return std::any_of(path.nodes.begin(), path.nodes.end(),
                       [&](size_t node) { return deleted[node]; });
  };

  // ΔV paths grouped by LCA, processed bottom-up (deepest LCA first), the
  // GVY order.
  std::vector<size_t> order(structure.delta_paths.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return structure.rooting.depth[structure.delta_paths[a].lca_node] >
           structure.rooting.depth[structure.delta_paths[b].lca_node];
  });

  constexpr double kEps = 1e-9;
  for (size_t index : order) {
    const TreeStructure::PathInfo& path = structure.delta_paths[index];
    if (path_cut(path)) continue;
    // Raise this path's dual as much as possible: δ = min slack over its
    // deletable nodes.
    double delta = std::numeric_limits<double>::infinity();
    for (size_t node : path.nodes) {
      if (!deletable(node)) continue;
      delta = std::min(delta, capacity[node] - used[node]);
    }
    if (delta == std::numeric_limits<double>::infinity()) {
      return Status::Infeasible(
          "a deletion path consists solely of undeletable tuples");
    }
    for (size_t node : path.nodes) {
      if (!deletable(node)) continue;
      used[node] += delta;
      if (!deleted[node] && capacity[node] - used[node] <= kEps) {
        deleted[node] = true;
        deletion_order.push_back(node);
      }
    }
  }

  // Reverse-delete: drop deletions (newest first) that are not needed to
  // keep every ΔV path cut.
  if (options.skip_reverse_delete) {
    std::vector<size_t> all;
    all.reserve(deletion_order.size());
    for (size_t node = 0; node < n; ++node) {
      if (deleted[node]) all.push_back(node);
    }
    return all;
  }
  std::vector<uint32_t> cut_count(structure.delta_paths.size(), 0);
  for (size_t p = 0; p < structure.delta_paths.size(); ++p) {
    for (size_t node : structure.delta_paths[p].nodes) {
      if (deleted[node]) ++cut_count[p];
    }
  }
  for (auto it = deletion_order.rbegin(); it != deletion_order.rend(); ++it) {
    size_t node = *it;
    bool removable = true;
    for (uint32_t p : structure.delta_through(node)) {
      if (cut_count[p] <= 1) {
        removable = false;
        break;
      }
    }
    if (removable) {
      deleted[node] = false;
      for (uint32_t p : structure.delta_through(node)) --cut_count[p];
    }
  }

  std::vector<size_t> result;
  result.reserve(deletion_order.size());
  for (size_t node = 0; node < n; ++node) {
    if (deleted[node]) result.push_back(node);
  }
  return result;
}

Result<VseSolution> PrimalDualTreeSolver::Solve(const VseInstance& instance) {
  if (instance.TotalDeletionTuples() == 0) {
    return MakeSolution(instance, DeletionSet(), name());
  }
  Result<TreeStructure> structure =
      BuildTreeStructure(instance, TreeMode::kDeltaPaths);
  if (!structure.ok()) return structure.status();
  Result<std::vector<size_t>> nodes = SolveOnTree(*structure, {});
  if (!nodes.ok()) return nodes.status();
  DeletionSet deletion;
  for (size_t node : *nodes) {
    deletion.Insert(structure->forest.node_ref(node));
  }
  return MakeSolution(instance, std::move(deletion), name());
}

}  // namespace delprop
