#ifndef DELPROP_SOLVERS_SOLVER_REGISTRY_H_
#define DELPROP_SOLVERS_SOLVER_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "dp/solver.h"
#include "runtime/thread_pool.h"

namespace delprop {

/// Creates a solver by its stable name:
///   "exact", "exact-balanced", "ilp", "ilp-balanced", "greedy",
///   "local-search", "rbsc-lowdeg", "rbsc-greedy", "balanced-pnpsc",
///   "primal-dual", "lowdeg-tree", "dp-tree", "dp-tree-balanced",
///   "source-greedy", "source-exact", "single-deletion".
/// "exact" and "exact-balanced" are aliases of the ILP (IlpSolver with
/// default options, so no deadline); the solvers they return are named
/// "ilp" and "ilp-balanced". "ilp" and "ilp-balanced" carry a 2 s deadline.
/// Returns nullptr for an unknown name.
std::unique_ptr<VseSolver> MakeSolver(const std::string& name);

/// All solver names, in a stable presentation order.
std::vector<std::string> AllSolverNames();

/// Instantiates the approximation/heuristic solvers for the standard
/// objective (everything except the exact, balanced, and source solvers).
std::vector<std::unique_ptr<VseSolver>> StandardApproximationSolvers();

/// Outcome of one solver inside RunAll: the solver's result (a solution, or
/// its refusal/error status) plus its wall-clock time.
struct SolverRun {
  std::string name;
  Result<VseSolution> result;
  double wall_ms = 0.0;
};

/// Runs the named solvers over `instance`, concurrently when `pool` has more
/// than one worker (each solver is one task; `instance` is only read). The
/// returned vector is in `names` order and its contents are identical for
/// any thread count — solvers are deterministic and each task writes only
/// its own slot. Unknown names yield a NotFound result in their slot.
/// With an empty `names`, runs the bench comparison set: "ilp" plus
/// StandardApproximationSolvers().
std::vector<SolverRun> RunAll(const VseInstance& instance,
                              ThreadPool* pool = nullptr,
                              std::vector<std::string> names = {});

}  // namespace delprop

#endif  // DELPROP_SOLVERS_SOLVER_REGISTRY_H_
