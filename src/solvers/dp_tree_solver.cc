#include "solvers/dp_tree_solver.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "solvers/tree_common.h"

namespace delprop {
namespace {

/// Per-node lists of (top_depth, weight) entries with suffix sums, answering
/// "total weight of paths through/ending at this node with top_depth >
/// a_depth" in O(log). Flat: node n owns entries [first[n], first[n + 1]),
/// ascending, and suffix sums [first[n] + n, first[n + 1] + n], the last of
/// them 0.
struct SuffixByTopDepth {
  std::vector<uint32_t> first;  // size node count + 1
  std::vector<size_t> top_depths;
  std::vector<double> suffix_weight;

  /// `entries` holds each node's (top_depth, weight) pairs, in any order, at
  /// the positions `offsets` gives.
  void Build(std::vector<uint32_t> offsets,
             std::vector<std::pair<size_t, double>> entries) {
    first = std::move(offsets);
    size_t n = first.size() - 1;
    top_depths.resize(entries.size());
    suffix_weight.resize(entries.size() + n);
    for (size_t node = 0; node < n; ++node) {
      size_t begin = first[node];
      size_t end = first[node + 1];
      // Rows arrive in witness order, which is often sorted already.
      if (!std::is_sorted(entries.begin() + begin, entries.begin() + end)) {
        std::sort(entries.begin() + begin, entries.begin() + end);
      }
      suffix_weight[end + node] = 0.0;
      for (size_t i = end; i-- > begin;) {
        top_depths[i] = entries[i].first;
        suffix_weight[i + node] =
            suffix_weight[i + 1 + node] + entries[i].second;
      }
    }
  }

  /// Σ weight over node's entries with top_depth > a_depth (a_depth == -1 ⇒
  /// all).
  double WeightAbove(size_t node, long a_depth) const {
    size_t i = first[node];
    if (a_depth >= 0) {
      i = std::upper_bound(top_depths.begin() + first[node],
                           top_depths.begin() + first[node + 1],
                           static_cast<size_t>(a_depth)) -
          top_depths.begin();
    }
    return suffix_weight[i + node];
  }

  /// True if any of node's entries has top_depth > a_depth, whatever its
  /// weight.
  bool AnyAbove(size_t node, long a_depth) const {
    size_t end = first[node + 1];
    return end > first[node] &&
           (a_depth < 0 || top_depths[end - 1] > static_cast<size_t>(a_depth));
  }
};

}  // namespace

Result<VseSolution> DpTreeSolver::Solve(const VseInstance& instance) {
  if (instance.TotalDeletionTuples() == 0 &&
      objective_ == Objective::kStandard) {
    return MakeSolution(instance, DeletionSet(), name());
  }
  Result<TreeStructure> structure =
      BuildTreeStructure(instance, TreeMode::kVerticalAll);
  if (!structure.ok()) return structure.status();
  const DataForest& forest = structure->forest;
  const std::vector<long>& parent = structure->rooting.parent;
  const std::vector<size_t>& depth = structure->rooting.depth;
  size_t n = forest.node_count();

  // charge(t, a_depth): weight of preserved paths through t not already
  // killed above (top_depth > a_depth).
  SuffixByTopDepth charge;
  {
    std::vector<std::pair<size_t, double>> entries;
    entries.reserve(structure->preserved_through_paths.size());
    for (uint32_t p : structure->preserved_through_paths) {
      const auto& path = structure->preserved_paths[p];
      entries.emplace_back(path.top_depth, path.weight);
    }
    charge.Build(structure->preserved_through_first, std::move(entries));
  }
  // penalty(t, a_depth): ΔV paths with bottom t that are NOT yet killed when
  // t is kept (top_depth > a_depth) — infeasible (standard) or their weight
  // (balanced).
  SuffixByTopDepth delta_bottom;
  {
    std::vector<uint32_t> first(n + 1, 0);
    for (const auto& path : structure->delta_paths) {
      ++first[path.bottom_node + 1];
    }
    for (size_t node = 0; node < n; ++node) first[node + 1] += first[node];
    std::vector<std::pair<size_t, double>> entries(first[n]);
    std::vector<uint32_t> cursor(first.begin(), first.end() - 1);
    for (const auto& path : structure->delta_paths) {
      entries[cursor[path.bottom_node]++] = {path.top_depth, path.weight};
    }
    delta_bottom.Build(std::move(first), std::move(entries));
  }

  // Children (CSR, ascending ids), bottom-up order (deeper nodes first) and
  // the flat state layout: node t owns states [state_first[t], + depth + 1).
  std::vector<uint32_t> child_first(n + 1, 0);
  size_t max_depth = 0;
  for (size_t node = 0; node < n; ++node) {
    if (parent[node] >= 0) ++child_first[static_cast<size_t>(parent[node]) + 1];
    max_depth = std::max(max_depth, depth[node]);
  }
  for (size_t node = 0; node < n; ++node) {
    child_first[node + 1] += child_first[node];
  }
  std::vector<uint32_t> children(child_first[n]);
  std::vector<uint32_t> depth_first(max_depth + 2, 0);
  std::vector<size_t> state_first(n + 1, 0);
  {
    std::vector<uint32_t> cursor(child_first.begin(), child_first.end() - 1);
    for (size_t node = 0; node < n; ++node) {
      if (parent[node] >= 0) {
        children[cursor[static_cast<size_t>(parent[node])]++] =
            static_cast<uint32_t>(node);
      }
      ++depth_first[max_depth - depth[node] + 1];
      state_first[node + 1] = state_first[node] + depth[node] + 1;
    }
  }
  for (size_t d = 0; d <= max_depth; ++d) depth_first[d + 1] += depth_first[d];
  std::vector<uint32_t> order(n);
  for (size_t node = 0; node < n; ++node) {
    order[depth_first[max_depth - depth[node]]++] = static_cast<uint32_t>(node);
  }

  // dp[state] with state = state_first[node] + a_index, a_index = a_depth +
  // 1 ∈ [0, depth(node)]: the optimal cost below and at node when its
  // closest deleted strict ancestor sits at a_depth. A state is infeasible
  // when no choice eliminates the ΔV paths it must; infeasibility is kept
  // apart from cost and compared first, so no cost saturates.
  std::vector<double> dp(state_first[n]);
  std::vector<uint8_t> infeasible(state_first[n]);
  std::vector<uint8_t> choose_delete(state_first[n]);

  for (uint32_t node : order) {
    size_t states = depth[node] + 1;
    std::span<const uint32_t> kids(children.data() + child_first[node],
                                   child_first[node + 1] - child_first[node]);
    for (size_t a_index = 0; a_index < states; ++a_index) {
      long a_depth = static_cast<long>(a_index) - 1;
      // Option 1: delete node.
      double del = charge.WeightAbove(node, a_depth);
      bool del_infeasible = false;
      for (uint32_t c : kids) {
        size_t state = state_first[c] + depth[node] + 1;
        del += dp[state];
        del_infeasible |= infeasible[state] != 0;
      }
      // Option 2: keep node.
      double keep;
      bool keep_infeasible;
      if (objective_ == Objective::kStandard) {
        keep = 0.0;
        keep_infeasible = delta_bottom.AnyAbove(node, a_depth);
      } else {
        keep = delta_bottom.WeightAbove(node, a_depth);
        keep_infeasible = false;
      }
      for (uint32_t c : kids) {
        size_t state = state_first[c] + a_index;
        keep += dp[state];
        keep_infeasible |= infeasible[state] != 0;
      }
      bool del_wins = del_infeasible == keep_infeasible ? del < keep
                                                        : keep_infeasible;
      size_t state = state_first[node] + a_index;
      dp[state] = del_wins ? del : keep;
      infeasible[state] = del_wins ? del_infeasible : keep_infeasible;
      choose_delete[state] = del_wins;
    }
  }

  // Reconstruct: walk top-down from the pivot roots with a_index = 0.
  DeletionSet deletion;
  std::vector<std::pair<size_t, size_t>> stack;
  stack.reserve(n);  // every node enters the walk exactly once
  for (size_t root : structure->rooting.roots) {
    if (infeasible[state_first[root]]) {
      return Status::Infeasible("no vertical deletion eliminates all of ΔV");
    }
    stack.emplace_back(root, 0);
  }
  while (!stack.empty()) {
    auto [node, a_index] = stack.back();
    stack.pop_back();
    bool del = choose_delete[state_first[node] + a_index];
    if (del) deletion.Insert(forest.node_ref(node));
    size_t child_a_index = del ? depth[node] + 1 : a_index;
    for (uint32_t slot = child_first[node]; slot < child_first[node + 1];
         ++slot) {
      stack.emplace_back(children[slot], child_a_index);
    }
  }
  return MakeSolution(instance, std::move(deletion), name());
}

}  // namespace delprop
