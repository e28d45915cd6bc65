#include "solvers/balanced_pnpsc_solver.h"

#include "reductions/balanced_to_pnpsc.h"

namespace delprop {

Result<VseSolution> BalancedPnpscSolver::Solve(const VseInstance& instance) {
  if (instance.TotalDeletionTuples() == 0) {
    return MakeSolution(instance, DeletionSet(), name());
  }
  if (!instance.all_unique_witness()) {
    return Status::FailedPrecondition(
        "±PSC reduction requires unique-witness (key-preserving) views");
  }
  Result<BalancedToPnpscMapping> mapping =
      ReduceBalancedToPnpsc(instance, negative_of_tuple_);
  if (!mapping.ok()) return mapping.status();
  Result<PnpscSolution> pnpsc_solution =
      SolvePnpsc(mapping->pnpsc, rbsc_solver_);
  if (!pnpsc_solution.ok()) return pnpsc_solution.status();
  DeletionSet deletion = MapPnpscChoiceToDeletion(*mapping, *pnpsc_solution);
  return MakeSolution(instance, std::move(deletion), name());
}

}  // namespace delprop
