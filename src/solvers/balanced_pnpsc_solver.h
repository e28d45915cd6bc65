#ifndef DELPROP_SOLVERS_BALANCED_PNPSC_SOLVER_H_
#define DELPROP_SOLVERS_BALANCED_PNPSC_SOLVER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "dp/solver.h"
#include "setcover/pnpsc.h"

namespace delprop {

/// The paper's balanced-variant algorithm (Lemma 1): reduce balanced
/// deletion propagation to Positive-Negative Partial Set Cover, solve that
/// through Miettinen's reduction to RBSC with Peleg's LowDegTwo, map back.
/// Approximation bound: 2·sqrt(l·(‖V‖+‖ΔV‖)·log‖ΔV‖).
///
/// Requires unique-witness views (key-preserving / project-free), as the
/// ±PSC image only models single-witness lineage faithfully.
///
/// The object owns the reduction's per-tuple negative-id scratch (see
/// RbscReductionSolver); one object serves one thread at a time.
class BalancedPnpscSolver : public VseSolver {
 public:
  using RbscSolverFn =
      std::function<Result<RbscSolution>(const RbscInstance&)>;

  explicit BalancedPnpscSolver(RbscSolverFn rbsc_solver = SolveRbscLowDegTwo,
                               std::string name = "balanced-pnpsc")
      : rbsc_solver_(std::move(rbsc_solver)), name_(std::move(name)) {}

  std::string name() const override { return name_; }
  Objective objective() const override { return Objective::kBalanced; }
  Result<VseSolution> Solve(const VseInstance& instance) override;

 private:
  RbscSolverFn rbsc_solver_;
  std::string name_;
  // ReduceBalancedToPnpsc's negative-id scratch: all kNpos between solves.
  std::vector<uint32_t> negative_of_tuple_;
};

}  // namespace delprop

#endif  // DELPROP_SOLVERS_BALANCED_PNPSC_SOLVER_H_
