#include "solvers/primal_dual_tree_solver.h"

#include <algorithm>
#include <limits>

namespace delprop {

Status PrimalDualTreeSolver::SolveOnTree(const TreeStructure& structure,
                                         const PrimalDualOptions& options,
                                         PrimalDualScratch* scratch,
                                         std::vector<size_t>* deleted) {
  std::vector<double>& capacity = scratch->capacity;
  std::vector<double>& used = scratch->used;
  std::vector<uint8_t>& is_deleted = scratch->deleted;
  std::vector<size_t>& deletion_order = scratch->deletion_order;
  std::vector<uint32_t>& depth_first = scratch->depth_first;
  std::vector<uint32_t>& order = scratch->order;
  std::vector<uint32_t>& cut_count = scratch->cut_count;
  const DataForest& forest = structure.forest;
  const std::vector<size_t>& depth = structure.rooting.depth;
  size_t n = forest.node_count();
  const std::vector<TreeStructure::PathInfo>& paths = structure.delta_paths;

  auto deletable = [&](size_t node) {
    return options.undeletable.empty() || !options.undeletable[node];
  };

  // Capacity of a node on a ΔV path (no other node's is read): total weight
  // of preserved paths through it (the dual constraint (8) budget); pruned
  // paths contribute nothing.
  capacity.assign(n, 0.0);
  for (size_t node = 0; node < n; ++node) {
    if (structure.delta_through(node).empty()) continue;
    structure.ForEachPreservedThrough(node, [&](uint32_t w, double weight) {
      if (static_cast<double>(forest.witnesses()[w].nodes.size()) >
          options.prune_wider_than) {
        return;
      }
      capacity[node] += weight;
    });
  }

  used.assign(n, 0.0);
  is_deleted.assign(n, 0);
  deletion_order.clear();
  deletion_order.reserve(n);  // each node is deleted at most once

  auto path_cut = [&](const TreeStructure::PathInfo& path) {
    return std::any_of(path.nodes.begin(), path.nodes.end(),
                       [&](size_t node) { return is_deleted[node] != 0; });
  };

  // ΔV paths grouped by LCA, processed bottom-up (deepest LCA first), the
  // GVY order; paths of equal LCA depth keep their order (a counting sort).
  size_t max_depth = 0;
  for (const TreeStructure::PathInfo& path : paths) {
    max_depth = std::max(max_depth, depth[path.lca_node]);
  }
  depth_first.assign(max_depth + 2, 0);
  for (const TreeStructure::PathInfo& path : paths) {
    ++depth_first[max_depth - depth[path.lca_node] + 1];
  }
  for (size_t d = 0; d <= max_depth; ++d) depth_first[d + 1] += depth_first[d];
  order.resize(paths.size());
  for (size_t p = 0; p < paths.size(); ++p) {
    order[depth_first[max_depth - depth[paths[p].lca_node]]++] =
        static_cast<uint32_t>(p);
  }

  constexpr double kEps = 1e-9;
  for (uint32_t index : order) {
    const TreeStructure::PathInfo& path = paths[index];
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
      if (!is_deleted[node] && capacity[node] - used[node] <= kEps) {
        is_deleted[node] = 1;
        deletion_order.push_back(node);
      }
    }
  }

  // Reverse-delete: drop deletions (newest first) that are not needed to
  // keep every ΔV path cut.
  if (!options.skip_reverse_delete) {
    cut_count.assign(paths.size(), 0);
    for (size_t p = 0; p < paths.size(); ++p) {
      for (size_t node : paths[p].nodes) {
        if (is_deleted[node]) ++cut_count[p];
      }
    }
    for (auto it = deletion_order.rbegin(); it != deletion_order.rend();
         ++it) {
      size_t node = *it;
      bool removable = true;
      for (uint32_t p : structure.delta_through(node)) {
        if (cut_count[p] <= 1) {
          removable = false;
          break;
        }
      }
      if (removable) {
        is_deleted[node] = 0;
        for (uint32_t p : structure.delta_through(node)) --cut_count[p];
      }
    }
  }

  deleted->clear();
  deleted->reserve(deletion_order.size());
  for (size_t node = 0; node < n; ++node) {
    if (is_deleted[node]) deleted->push_back(node);
  }
  return Status::Ok();
}

// delprop-hot
Result<VseSolution> PrimalDualTreeSolver::Solve(const VseInstance& instance) {
  if (instance.TotalDeletionTuples() == 0) {
    return MakeSolution(instance, DeletionSet(), name());
  }
  std::shared_ptr<const CompiledInstance> plan = instance.compiled();
  if (Status s = structure_.Build(instance, *plan, TreeMode::kDeltaPaths);
      !s.ok()) {
    return s;
  }
  if (Status s =
          SolveOnTree(structure_, PrimalDualOptions(), &scratch_, &nodes_);
      !s.ok()) {
    return s;
  }
  DeletionSet deletion;
  for (size_t node : nodes_) deletion.Insert(structure_.forest.node_ref(node));
  return MakeSolution(instance, std::move(deletion), name());
}

}  // namespace delprop
