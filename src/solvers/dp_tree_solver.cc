#include "solvers/dp_tree_solver.h"

#include <algorithm>

namespace delprop {

void DpTreeSolver::SuffixByTopDepth::Finish() {
  size_t n = first.size() - 1;
  for (size_t node = 0; node < n; ++node) {
    size_t begin = first[node];
    size_t end = first[node + 1];
    // Rows arrive in witness order, which is often sorted already.
    bool sorted = true;
    for (size_t i = begin + 1; sorted && i < end; ++i) {
      sorted = std::make_pair(top_depths[i - 1], suffix_weight[i - 1 + node]) <=
               std::make_pair(top_depths[i], suffix_weight[i + node]);
    }
    if (!sorted) {
      sort_scratch.clear();
      for (size_t i = begin; i < end; ++i) {
        // delprop-lint: hot-path-allocation-ok grows to the largest row, then keeps its capacity
        sort_scratch.emplace_back(top_depths[i], suffix_weight[i + node]);
      }
      std::sort(sort_scratch.begin(), sort_scratch.end());
      for (size_t i = begin; i < end; ++i) {
        top_depths[i] = sort_scratch[i - begin].first;
        suffix_weight[i + node] = sort_scratch[i - begin].second;
      }
    }
    for (size_t i = end; i-- > begin;) {
      suffix_weight[i + node] += suffix_weight[i + 1 + node];
    }
  }
}

double DpTreeSolver::SuffixByTopDepth::WeightAbove(size_t node,
                                                   long a_depth) const {
  size_t i = first[node];
  if (a_depth >= 0) {
    i = std::upper_bound(top_depths.begin() + first[node],
                         top_depths.begin() + first[node + 1],
                         static_cast<uint32_t>(a_depth)) -
        top_depths.begin();
  }
  return suffix_weight[i + node];
}

bool DpTreeSolver::SuffixByTopDepth::AnyAbove(size_t node,
                                              long a_depth) const {
  size_t end = first[node + 1];
  return end > first[node] &&
         (a_depth < 0 ||
          top_depths[end - 1] > static_cast<uint32_t>(a_depth));
}

// delprop-hot
Result<VseSolution> DpTreeSolver::Solve(const VseInstance& instance) {
  if (instance.TotalDeletionTuples() == 0 &&
      objective_ == Objective::kStandard) {
    return MakeSolution(instance, DeletionSet(), name());
  }
  std::shared_ptr<const CompiledInstance> plan = instance.compiled();
  if (Status s = structure_.Build(instance, *plan, TreeMode::kVerticalAll);
      !s.ok()) {
    return s;
  }
  const DataForest& forest = structure_.forest;
  const std::vector<long>& parent = structure_.rooting.parent;
  const std::vector<size_t>& depth = structure_.rooting.depth;
  size_t n = forest.node_count();

  // charge(t, a_depth): weight of preserved paths through t not already
  // killed above (top_depth > a_depth).
  const std::vector<ForestWitness>& witnesses = forest.witnesses();
  witness_top_.resize(witnesses.size());
  size_t incidence = 0;  // bounds the charge entries
  for (size_t i = 0; i < witnesses.size(); ++i) {
    size_t top = depth[witnesses[i].nodes[0]];
    for (uint32_t node : witnesses[i].nodes) top = std::min(top, depth[node]);
    witness_top_[i] = static_cast<uint32_t>(top);
    incidence += witnesses[i].nodes.size();
  }
  charge_.first.resize(n + 1);
  charge_.first[0] = 0;
  charge_.top_depths.clear();
  charge_.suffix_weight.clear();
  charge_.top_depths.reserve(incidence);
  charge_.suffix_weight.reserve(incidence + n);
  for (size_t node = 0; node < n; ++node) {
    structure_.ForEachPreservedThrough(node, [&](uint32_t w, double weight) {
      charge_.top_depths.push_back(witness_top_[w]);
      charge_.suffix_weight.push_back(weight);
    });
    charge_.suffix_weight.push_back(0.0);
    charge_.first[node + 1] = static_cast<uint32_t>(charge_.top_depths.size());
  }
  charge_.Finish();
  // penalty(t, a_depth): ΔV paths with bottom t that are NOT yet killed when
  // t is kept (top_depth > a_depth) — infeasible (standard) or their weight
  // (balanced).
  delta_bottom_.first.assign(n + 1, 0);
  for (const auto& path : structure_.delta_paths) {
    ++delta_bottom_.first[path.bottom_node + 1];
  }
  for (size_t node = 0; node < n; ++node) {
    delta_bottom_.first[node + 1] += delta_bottom_.first[node];
  }
  delta_bottom_.top_depths.resize(delta_bottom_.first[n]);
  delta_bottom_.suffix_weight.assign(delta_bottom_.first[n] + n, 0.0);
  cursor_.assign(delta_bottom_.first.begin(), delta_bottom_.first.end() - 1);
  for (const auto& path : structure_.delta_paths) {
    uint32_t i = cursor_[path.bottom_node]++;
    delta_bottom_.top_depths[i] = static_cast<uint32_t>(path.top_depth);
    delta_bottom_.suffix_weight[i + path.bottom_node] = path.weight;
  }
  delta_bottom_.Finish();

  // Children (CSR, ascending ids), bottom-up order (deeper nodes first) and
  // the flat state layout: node t owns states [state_first[t], + depth + 1).
  child_first_.assign(n + 1, 0);
  size_t max_depth = 0;
  for (size_t node = 0; node < n; ++node) {
    if (parent[node] >= 0) {
      ++child_first_[static_cast<size_t>(parent[node]) + 1];
    }
    max_depth = std::max(max_depth, depth[node]);
  }
  for (size_t node = 0; node < n; ++node) {
    child_first_[node + 1] += child_first_[node];
  }
  children_.resize(child_first_[n]);
  depth_first_.assign(max_depth + 2, 0);
  state_first_.assign(n + 1, 0);
  cursor_.assign(child_first_.begin(), child_first_.end() - 1);
  for (size_t node = 0; node < n; ++node) {
    if (parent[node] >= 0) {
      children_[cursor_[static_cast<size_t>(parent[node])]++] =
          static_cast<uint32_t>(node);
    }
    ++depth_first_[max_depth - depth[node] + 1];
    state_first_[node + 1] = state_first_[node] + depth[node] + 1;
  }
  for (size_t d = 0; d <= max_depth; ++d) depth_first_[d + 1] += depth_first_[d];
  order_.resize(n);
  for (size_t node = 0; node < n; ++node) {
    order_[depth_first_[max_depth - depth[node]]++] =
        static_cast<uint32_t>(node);
  }

  // dp[state] with state = state_first[node] + a_index, a_index = a_depth +
  // 1 ∈ [0, depth(node)]: the optimal cost below and at node when its
  // closest deleted strict ancestor sits at a_depth. A state is infeasible
  // when no choice eliminates the ΔV paths it must; infeasibility is kept
  // apart from cost and compared first, so no cost saturates.
  dp_.resize(state_first_[n]);
  infeasible_.resize(state_first_[n]);
  choose_delete_.resize(state_first_[n]);

  for (uint32_t node : order_) {
    size_t states = depth[node] + 1;
    std::span<const uint32_t> kids(children_.data() + child_first_[node],
                                   child_first_[node + 1] - child_first_[node]);
    for (size_t a_index = 0; a_index < states; ++a_index) {
      long a_depth = static_cast<long>(a_index) - 1;
      // Option 1: delete node.
      double del = charge_.WeightAbove(node, a_depth);
      bool del_infeasible = false;
      for (uint32_t c : kids) {
        size_t state = state_first_[c] + depth[node] + 1;
        del += dp_[state];
        del_infeasible |= infeasible_[state] != 0;
      }
      // Option 2: keep node.
      double keep;
      bool keep_infeasible;
      if (objective_ == Objective::kStandard) {
        keep = 0.0;
        keep_infeasible = delta_bottom_.AnyAbove(node, a_depth);
      } else {
        keep = delta_bottom_.WeightAbove(node, a_depth);
        keep_infeasible = false;
      }
      for (uint32_t c : kids) {
        size_t state = state_first_[c] + a_index;
        keep += dp_[state];
        keep_infeasible |= infeasible_[state] != 0;
      }
      bool del_wins = del_infeasible == keep_infeasible ? del < keep
                                                        : keep_infeasible;
      size_t state = state_first_[node] + a_index;
      dp_[state] = del_wins ? del : keep;
      infeasible_[state] = del_wins ? del_infeasible : keep_infeasible;
      choose_delete_[state] = del_wins;
    }
  }

  // Reconstruct: walk top-down from the pivot roots with a_index = 0.
  DeletionSet deletion;
  stack_.clear();
  stack_.reserve(n);  // every node enters the walk exactly once
  for (size_t root : structure_.rooting.roots) {
    if (infeasible_[state_first_[root]]) {
      return Status::Infeasible("no vertical deletion eliminates all of ΔV");
    }
    stack_.emplace_back(root, 0);
  }
  while (!stack_.empty()) {
    auto [node, a_index] = stack_.back();
    stack_.pop_back();
    bool del = choose_delete_[state_first_[node] + a_index];
    if (del) deletion.Insert(forest.node_ref(node));
    size_t child_a_index = del ? depth[node] + 1 : a_index;
    for (uint32_t slot = child_first_[node]; slot < child_first_[node + 1];
         ++slot) {
      stack_.emplace_back(children_[slot], child_a_index);
    }
  }
  return MakeSolution(instance, std::move(deletion), name());
}

}  // namespace delprop
