#ifndef DELPROP_SOLVERS_TREE_COMMON_H_
#define DELPROP_SOLVERS_TREE_COMMON_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "dp/vse_instance.h"
#include "hypergraph/data_forest.h"
#include "plan/compiled_instance.h"

namespace delprop {

/// How strictly TreeStructure::Build checks the components ΔV touches.
enum class TreeMode {
  /// Forest + every ΔV witness a path (precondition of Algorithms 1-3; the
  /// forest is rooted at default roots).
  kDeltaPaths,
  /// Forest + a pivot rooting making every witness vertical (precondition of
  /// Algorithm 4).
  kVerticalAll,
};

/// The tree-case view of one request: the data forest of the components
/// that ΔV's witnesses touch, a rooting, and every ΔV witness as a node path
/// with precomputed LCA/top/bottom. Preserved paths get no records: a
/// node's preserved paths are read from its base's occurrence row in the
/// compiled plan.
///
/// A touched component is a connected component of the base-witness
/// incidence of the compiled core that holds a ΔV witness. Every witness
/// through a node of it belongs to it, so the nodes, their adjacency and
/// their paths are exactly those of the whole instance's forest, numbered in
/// the same relative order (nodes in first-touch order over (view, tuple,
/// witness, member), neighbors in edge first-seen order). Untouched
/// components hold no ΔV path, and the tree algorithms delete only nodes on
/// ΔV paths, so restricting to the touched components changes no answer.
///
/// A solver owns one and rebuilds it on every call: every array keeps its
/// capacity, and the per-base and per-witness marks are cleared by walking
/// the previous build's lists, so a build costs the touched components, not
/// ‖V‖. Move-only, since the paths' node spans point into the forest.
class TreeStructure {
 public:
  struct PathInfo {
    /// The witness's nodes, ascending (a view into the forest).
    std::span<const uint32_t> nodes;
    double weight = 1.0;
    /// Depth of the shallowest node (the path's top end).
    size_t top_depth = 0;
    /// Deepest node of the path.
    size_t bottom_node = 0;
    /// Shallowest node of the path (its LCA in the tree).
    size_t lca_node = 0;
  };

  TreeStructure() = default;
  TreeStructure(TreeStructure&&) = default;
  TreeStructure& operator=(TreeStructure&&) = default;
  TreeStructure(const TreeStructure&) = delete;
  TreeStructure& operator=(const TreeStructure&) = delete;

  /// Rebuilds the structure for `instance`'s ΔV from `plan`, the instance's
  /// compiled plan, which must outlive every later read of this structure.
  /// Fails with FailedPrecondition when the instance has a multi-witness
  /// view tuple, or when the touched components are not a tree case of the
  /// requested mode (a cycle, a non-path ΔV witness, or no pivot rooting).
  Status Build(const VseInstance& instance, const CompiledInstance& plan,
               TreeMode mode);

  /// Build's first step, without its checks: rebuilds `forest` over the
  /// components ΔV's witnesses touch, from `plan`'s member and occurrence
  /// rows. With every view tuple in ΔV it is the whole instance's forest,
  /// node for node the one DataForest::Build makes from the views.
  void BuildForest(const VseInstance& instance, const CompiledInstance& plan);

  /// Indices into delta_paths of the paths containing a forest node,
  /// ascending.
  std::span<const uint32_t> delta_through(size_t node) const {
    return std::span<const uint32_t>(delta_through_paths)
        .subspan(delta_through_first[node],
                 delta_through_first[node + 1] - delta_through_first[node]);
  }

  /// Calls fn(witness, weight) for each preserved path through `node`, in
  /// ascending witness order: `witness` indexes forest.witnesses(), and
  /// `weight` is its view tuple's weight.
  template <typename Fn>
  void ForEachPreservedThrough(size_t node, Fn&& fn) const {
    uint32_t base = forest.node_key(node);
    for (uint32_t slot = plan_->occ_begin(base); slot < plan_->occ_end(base);
         ++slot) {
      uint32_t dense = plan_->occ_tuple(slot);
      if (plan_->is_deletion(dense)) continue;
      fn(forest_witness_[plan_->occ_witness(slot)], plan_->weight(dense));
    }
  }

  /// Number of preserved paths through `node` (its red degree).
  size_t PreservedCount(size_t node) const {
    size_t count = 0;
    ForEachPreservedThrough(node, [&](uint32_t, double) { ++count; });
    return count;
  }

  DataForest forest;
  DataForest::Rooting rooting;
  /// The ΔV paths, in witness order.
  std::vector<PathInfo> delta_paths;
  /// CSR arrays behind delta_through: node n's row is
  /// delta_through_paths[delta_through_first[n] .. delta_through_first[n +
  /// 1]).
  std::vector<uint32_t> delta_through_first;
  std::vector<uint32_t> delta_through_paths;

 private:
  /// Collects the witnesses and bases of the touched components into
  /// witnesses_ (ascending) and bases_, and numbers the witnesses.
  void CollectTouched(const CompiledInstance& plan);

  const CompiledInstance* plan_ = nullptr;
  // Core witness ids of the touched components, ascending: forest witness
  // i is core witness witnesses_[i].
  std::vector<uint32_t> witnesses_;
  // Core base ids of the touched components, in visiting order.
  std::vector<uint32_t> bases_;
  // Per core witness: its forest witness index, kNpos outside the touched
  // components. Per core base: 1 once visited. Between builds only the
  // entries of witnesses_ and bases_ are set.
  std::vector<uint32_t> forest_witness_;
  std::vector<uint8_t> base_seen_;
  // Joined atom pairs of view v: joined_[joined_first_[v] ..
  // joined_first_[v + 1]).
  std::vector<JoinedAtoms> joined_;
  std::vector<uint32_t> joined_first_;
  // One witness's member refs, in atom order.
  std::vector<TupleRef> member_refs_;
  std::vector<uint32_t> cursor_;
  DataForest::Scratch scratch_;
};

}  // namespace delprop

#endif  // DELPROP_SOLVERS_TREE_COMMON_H_
