#include "solvers/solver_registry.h"

#include <chrono>
#include <utility>

#include "ilp/ilp_solver.h"
#include "setcover/red_blue_solvers.h"
#include "solvers/balanced_pnpsc_solver.h"
#include "solvers/dp_tree_solver.h"
#include "solvers/greedy_solver.h"
#include "solvers/local_search_solver.h"
#include "solvers/lowdeg_tree_solver.h"
#include "solvers/primal_dual_tree_solver.h"
#include "solvers/rbsc_reduction_solver.h"
#include "solvers/single_query_solver.h"
#include "solvers/source_side_effect_solver.h"

namespace delprop {

// Solver construction is once-per-request setup, not part of any solve
// inner loop; the engine additionally memoizes solvers per worker.
// delprop-hot-stop
std::unique_ptr<VseSolver> MakeSolver(const std::string& name) {
  // The exact names are aliases of the ILP with default options: no
  // deadline, so their answers never depend on the wall clock. The
  // branch-and-bound classes in exact_solver.h stay for direct construction.
  if (name == "exact") return std::make_unique<IlpSolver>();
  if (name == "exact-balanced") {
    return std::make_unique<IlpSolver>(Objective::kBalanced);
  }
  if (name == "ilp" || name == "ilp-balanced") {
    // Registry-made ILP solvers carry a 2s wall-clock deadline so RunAll and
    // the shell stay responsive on adversarial instances; past it the solver
    // still returns its incumbent with a certified gap. Tests and oracles
    // construct IlpSolver directly with the deadline disabled when they need
    // machine-independent node counts.
    IlpOptions options;
    options.deadline_ms = 2000.0;
    return std::make_unique<IlpSolver>(name == "ilp-balanced"
                                           ? Objective::kBalanced
                                           : Objective::kStandard,
                                       options);
  }
  if (name == "greedy") return std::make_unique<GreedySolver>();
  if (name == "local-search") return std::make_unique<LocalSearchSolver>();
  if (name == "rbsc-lowdeg") return std::make_unique<RbscReductionSolver>();
  if (name == "rbsc-greedy") {
    return std::make_unique<RbscReductionSolver>(SolveRbscGreedy,
                                                 "rbsc-greedy");
  }
  if (name == "balanced-pnpsc") return std::make_unique<BalancedPnpscSolver>();
  if (name == "primal-dual") return std::make_unique<PrimalDualTreeSolver>();
  if (name == "lowdeg-tree") return std::make_unique<LowDegTreeSolver>();
  if (name == "dp-tree") return std::make_unique<DpTreeSolver>();
  if (name == "dp-tree-balanced") {
    return std::make_unique<DpTreeSolver>(Objective::kBalanced);
  }
  if (name == "source-greedy") {
    return std::make_unique<SourceSideEffectSolver>();
  }
  if (name == "source-exact") {
    return std::make_unique<SourceSideEffectSolver>(
        SourceSideEffectSolver::Mode::kExact);
  }
  if (name == "single-deletion") return std::make_unique<SingleQuerySolver>();
  return nullptr;
}

std::vector<std::string> AllSolverNames() {
  return {"exact",       "exact-balanced", "ilp",            "ilp-balanced",
          "greedy",      "local-search",   "rbsc-lowdeg",    "rbsc-greedy",
          "balanced-pnpsc", "primal-dual", "lowdeg-tree",    "dp-tree",
          "dp-tree-balanced", "source-greedy", "source-exact",
          "single-deletion"};
}

std::vector<SolverRun> RunAll(const VseInstance& instance, ThreadPool* pool,
                              std::vector<std::string> names) {
  if (names.empty()) {
    names.push_back("ilp");
    for (const auto& solver : StandardApproximationSolvers()) {
      names.push_back(solver->name());
    }
  }
  std::vector<SolverRun> runs;
  runs.reserve(names.size());
  for (std::string& name : names) {
    runs.push_back(
        SolverRun{std::move(name), Status::Internal("solver did not run")});
  }
  // One task per solver. Every task owns its solver object and writes only
  // runs[i]; the instance is shared read-only, which every solver's contract
  // already promises.
  ParallelFor(pool, runs.size(), [&](size_t i) {
    SolverRun& run = runs[i];
    std::unique_ptr<VseSolver> solver = MakeSolver(run.name);
    if (solver == nullptr) {
      run.result = Status::NotFound("unknown solver '" + run.name + "'");
      return;
    }
    auto start = std::chrono::steady_clock::now();
    run.result = solver->Solve(instance);
    auto end = std::chrono::steady_clock::now();
    run.wall_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            end - start)
            .count();
  });
  return runs;
}

std::vector<std::unique_ptr<VseSolver>> StandardApproximationSolvers() {
  std::vector<std::unique_ptr<VseSolver>> solvers;
  solvers.push_back(MakeSolver("greedy"));
  solvers.push_back(MakeSolver("local-search"));
  solvers.push_back(MakeSolver("rbsc-greedy"));
  solvers.push_back(MakeSolver("rbsc-lowdeg"));
  solvers.push_back(MakeSolver("primal-dual"));
  solvers.push_back(MakeSolver("lowdeg-tree"));
  solvers.push_back(MakeSolver("dp-tree"));
  return solvers;
}

}  // namespace delprop
