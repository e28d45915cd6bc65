#ifndef DELPROP_SOLVERS_RBSC_REDUCTION_SOLVER_H_
#define DELPROP_SOLVERS_RBSC_REDUCTION_SOLVER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "dp/solver.h"
#include "setcover/red_blue.h"
#include "setcover/red_blue_solvers.h"

namespace delprop {

/// The paper's general-case algorithm (Claim 1): reduce view side-effect to
/// Red-Blue Set Cover, solve with Peleg's LowDegTwo, and map the chosen sets
/// back to a source deletion. Approximation bound:
/// O(2·sqrt(l·‖V‖·log‖ΔV‖)).
///
/// Requires every view tuple to have a unique witness (key-preserving or
/// project-free queries); fails with FailedPrecondition otherwise, because
/// the RBSC image only models single-witness lineage faithfully.
///
/// The object owns the reduction's per-tuple red-id scratch, so a reused
/// solver pays per request only for the candidates' kill rows; like every
/// VseSolver, one object serves one thread at a time.
class RbscReductionSolver : public VseSolver {
 public:
  using RbscSolverFn =
      std::function<Result<RbscSolution>(const RbscInstance&)>;

  /// `rbsc_solver` defaults to Peleg's LowDegTwo; inject SolveRbscGreedy or
  /// SolveRbscExact for ablations.
  explicit RbscReductionSolver(RbscSolverFn rbsc_solver = SolveRbscLowDegTwo,
                               std::string name = "rbsc-lowdeg")
      : rbsc_solver_(std::move(rbsc_solver)), name_(std::move(name)) {}

  std::string name() const override { return name_; }
  Result<VseSolution> Solve(const VseInstance& instance) override;

 private:
  RbscSolverFn rbsc_solver_;
  std::string name_;
  // ReduceVseToRbsc's red-id scratch: all kNpos between solves.
  std::vector<uint32_t> red_of_tuple_;
};

}  // namespace delprop

#endif  // DELPROP_SOLVERS_RBSC_REDUCTION_SOLVER_H_
