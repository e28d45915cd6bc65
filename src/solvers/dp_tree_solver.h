#ifndef DELPROP_SOLVERS_DP_TREE_SOLVER_H_
#define DELPROP_SOLVERS_DP_TREE_SOLVER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "dp/solver.h"
#include "solvers/tree_common.h"

namespace delprop {

/// Algorithm 4, DPTreeVSE: exact polynomial dynamic programming for forest
/// cases with a pivot tuple — every witness is a vertical (ancestor-chain)
/// path under the pivot rooting. States are (node, depth of the closest
/// deleted strict ancestor); killed view tuples are charged at their first
/// deleted node top-down, which is well-defined exactly because paths are
/// vertical. Solves both the standard objective (hard feasibility on ΔV) and
/// the balanced one (soft penalties) exactly. The DP runs over the components
/// ΔV touches; the solver owns its tree structure and DP arrays and rebuilds
/// them in place on every call.
class DpTreeSolver : public VseSolver {
 public:
  explicit DpTreeSolver(Objective objective = Objective::kStandard)
      : objective_(objective) {}

  std::string name() const override {
    return objective_ == Objective::kStandard ? "dp-tree" : "dp-tree-balanced";
  }
  Objective objective() const override { return objective_; }
  Result<VseSolution> Solve(const VseInstance& instance) override;

 private:
  /// Per-node lists of (top_depth, weight) entries with suffix sums,
  /// answering "total weight of paths through/ending at this node with
  /// top_depth > a_depth" in O(log). Flat: node n owns entries [first[n],
  /// first[n + 1]), ascending, and suffix sums [first[n] + n, first[n + 1] +
  /// n], the last of them 0.
  struct SuffixByTopDepth {
    std::vector<uint32_t> first;  // size node count + 1
    /// Entry i's top depth; its weight is filled in at suffix_weight[i +
    /// node], and each node's slot past its last entry holds 0.
    std::vector<uint32_t> top_depths;
    std::vector<double> suffix_weight;
    std::vector<std::pair<uint32_t, double>> sort_scratch;

    /// Sorts each node's entries by (top_depth, weight) and turns the
    /// weights into suffix sums, in place.
    void Finish();
    /// Σ weight over node's entries with top_depth > a_depth (a_depth == -1
    /// ⇒ all).
    double WeightAbove(size_t node, long a_depth) const;
    /// True if any of node's entries has top_depth > a_depth, whatever its
    /// weight.
    bool AnyAbove(size_t node, long a_depth) const;
  };

  Objective objective_;
  TreeStructure structure_;
  // Top depth of every forest witness.
  std::vector<uint32_t> witness_top_;
  // charge: preserved paths through each node; delta_bottom: ΔV paths by
  // bottom node.
  SuffixByTopDepth charge_;
  SuffixByTopDepth delta_bottom_;
  std::vector<uint32_t> cursor_;
  // Children (CSR, ascending ids), the bottom-up order, the flat state
  // layout and the DP tables, then the reconstruction stack.
  std::vector<uint32_t> child_first_;
  std::vector<uint32_t> children_;
  std::vector<uint32_t> depth_first_;
  std::vector<size_t> state_first_;
  std::vector<uint32_t> order_;
  std::vector<double> dp_;
  std::vector<uint8_t> infeasible_;
  std::vector<uint8_t> choose_delete_;
  std::vector<std::pair<size_t, size_t>> stack_;
};

}  // namespace delprop

#endif  // DELPROP_SOLVERS_DP_TREE_SOLVER_H_
