#ifndef DELPROP_SOLVERS_PRIMAL_DUAL_TREE_SOLVER_H_
#define DELPROP_SOLVERS_PRIMAL_DUAL_TREE_SOLVER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "dp/solver.h"
#include "solvers/tree_common.h"

namespace delprop {

/// Extra constraints threaded through the primal-dual core so that
/// LowDegTreeVSE (Algorithm 2) can reuse it.
struct PrimalDualOptions {
  /// Forest nodes that may not be deleted (their capacity is infinite).
  /// Indexed by forest node id and read only for nodes on ΔV paths; empty
  /// means all deletable.
  std::vector<bool> undeletable;
  /// Preserved paths with more nodes than this weigh zero in the LP
  /// (Algorithm 2's prune of view tuples wider than sqrt(‖V‖)).
  double prune_wider_than = std::numeric_limits<double>::infinity();
  /// Ablation switch: skip the final reverse-delete pass (Algorithm 1,
  /// lines 7-10). Solutions stay feasible but lose minimality.
  bool skip_reverse_delete = false;
};

/// Reusable storage of PrimalDualTreeSolver::SolveOnTree: per node capacity,
/// used budget and deleted mark; the deletions in order; the ΔV paths
/// bucketed by LCA depth; and per ΔV path its number of deleted nodes.
struct PrimalDualScratch {
  std::vector<double> capacity;
  std::vector<double> used;
  std::vector<uint8_t> deleted;
  std::vector<size_t> deletion_order;
  std::vector<uint32_t> depth_first;
  std::vector<uint32_t> order;
  std::vector<uint32_t> cut_count;
};

/// Algorithm 1, PrimeDualVSE: the Garg-Vazirani-Yannakakis-style primal-dual
/// l-approximation for the forest case (Theorem 3). ΔV witnesses are paths
/// to cut; each path's dual is raised at its LCA in bottom-up order until a
/// tuple on it saturates its capacity Σ_{s∈R, t∈s} w_s; saturated tuples are
/// deleted, and a reverse-delete pass restores minimality. The solver owns
/// its tree structure and scratch and rebuilds them in place on every call.
class PrimalDualTreeSolver : public VseSolver {
 public:
  std::string name() const override { return "primal-dual"; }
  Result<VseSolution> Solve(const VseInstance& instance) override;

  /// The core on a built tree structure, run on `scratch`: sets `deleted`
  /// to the deleted forest nodes, ascending, or returns Infeasible if some
  /// ΔV path has no deletable node.
  static Status SolveOnTree(const TreeStructure& structure,
                            const PrimalDualOptions& options,
                            PrimalDualScratch* scratch,
                            std::vector<size_t>* deleted);

 private:
  TreeStructure structure_;
  PrimalDualScratch scratch_;
  std::vector<size_t> nodes_;
};

}  // namespace delprop

#endif  // DELPROP_SOLVERS_PRIMAL_DUAL_TREE_SOLVER_H_
