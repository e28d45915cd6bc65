#ifndef DELPROP_SOLVERS_LOWDEG_TREE_SOLVER_H_
#define DELPROP_SOLVERS_LOWDEG_TREE_SOLVER_H_

#include "dp/solver.h"
#include "solvers/primal_dual_tree_solver.h"
#include "solvers/tree_common.h"

namespace delprop {

/// Algorithms 2 + 3, LowDegTreeVSE(Two): the 2·sqrt(‖V‖)-approximation for
/// the forest case (Theorem 4). For every red-degree threshold τ:
///  * tuples joined into more than τ preserved view tuples become
///    undeletable (Algorithm 2, step 1);
///  * preserved view tuples wider than sqrt(‖V‖) are pruned from the LP
///    (steps 6-7) — they are few (Claim 2: fewer than sqrt(‖V‖)·τ);
///  * PrimeDualVSE runs on the reduced instance.
/// The best feasible solution over all τ (by true cost) is returned
/// (Algorithm 3's outer loop). ‖V‖ is the whole instance's. The solver owns
/// its tree structure and scratch and rebuilds them in place on every call.
class LowDegTreeSolver : public VseSolver {
 public:
  std::string name() const override { return "lowdeg-tree"; }
  Result<VseSolution> Solve(const VseInstance& instance) override;

 private:
  TreeStructure structure_;
  PrimalDualScratch scratch_;
  PrimalDualOptions options_;
  // The nodes on ΔV paths, ascending, and each one's red degree.
  std::vector<uint32_t> delta_nodes_;
  std::vector<size_t> delta_red_;
  std::vector<size_t> thresholds_;
  std::vector<size_t> nodes_;
  // The node sets answered so far, back to back: answer k is
  // answered_[answered_first_[k] .. answered_first_[k + 1]).
  std::vector<size_t> answered_;
  std::vector<size_t> answered_first_;
};

}  // namespace delprop

#endif  // DELPROP_SOLVERS_LOWDEG_TREE_SOLVER_H_
