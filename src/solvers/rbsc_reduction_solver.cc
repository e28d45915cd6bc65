#include "solvers/rbsc_reduction_solver.h"

#include "reductions/vse_to_rbsc.h"

namespace delprop {

Result<VseSolution> RbscReductionSolver::Solve(const VseInstance& instance) {
  if (instance.TotalDeletionTuples() == 0) {
    return MakeSolution(instance, DeletionSet(), name());
  }
  if (!instance.all_unique_witness()) {
    return Status::FailedPrecondition(
        "RBSC reduction requires unique-witness (key-preserving) views");
  }
  Result<VseToRbscMapping> mapping = ReduceVseToRbsc(instance, red_of_tuple_);
  if (!mapping.ok()) return mapping.status();
  Result<RbscSolution> rbsc_solution = rbsc_solver_(mapping->rbsc);
  if (!rbsc_solution.ok()) return rbsc_solution.status();
  DeletionSet deletion = MapRbscChoiceToDeletion(*mapping, *rbsc_solution);
  VseSolution solution = MakeSolution(instance, std::move(deletion), name());
  if (!solution.Feasible()) {
    return Status::Internal(
        "RBSC image solution did not eliminate all deletions");
  }
  return solution;
}

}  // namespace delprop
