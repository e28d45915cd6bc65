// Property-based sweeps: every solver must uphold its contract on randomized
// instance families. TEST_P sweeps over seeds and instance shapes.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "solvers/dp_tree_solver.h"
#include "solvers/exact_solver.h"
#include "solvers/greedy_solver.h"
#include "solvers/lowdeg_tree_solver.h"
#include "solvers/primal_dual_tree_solver.h"
#include "solvers/rbsc_reduction_solver.h"
#include "solvers/solver_registry.h"
#include "workload/path_schema.h"
#include "workload/random_workload.h"
#include "workload/star_schema.h"

namespace delprop {
namespace {

// ---------------------------------------------------------------------------
// Sweep 1: random project-free workloads — feasibility, optimality ordering,
// Claim 1 bound.
// ---------------------------------------------------------------------------

struct RandomSweepCase {
  uint64_t seed;
  size_t relations;
  size_t rows;
  size_t queries;
};

class RandomWorkloadSweep : public ::testing::TestWithParam<RandomSweepCase> {
 protected:
  void SetUp() override {
    Rng rng(GetParam().seed);
    RandomWorkloadParams params;
    params.relations = GetParam().relations;
    params.rows_per_relation = GetParam().rows;
    params.queries = GetParam().queries;
    params.max_atoms = 2;
    Result<GeneratedVse> generated = GenerateRandomWorkload(rng, params);
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    generated_ = std::move(*generated);
  }
  GeneratedVse generated_;
};

TEST_P(RandomWorkloadSweep, SolversUpholdContracts) {
  const VseInstance& instance = *generated_.instance;
  ExactSolver exact;
  Result<VseSolution> optimal = exact.Solve(instance);
  ASSERT_TRUE(optimal.ok()) << optimal.status().ToString();
  ASSERT_TRUE(optimal->Feasible());

  GreedySolver greedy;
  Result<VseSolution> g = greedy.Solve(instance);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->Feasible());
  EXPECT_LE(optimal->Cost(), g->Cost() + 1e-9);

  if (instance.all_unique_witness()) {
    RbscReductionSolver rbsc;
    Result<VseSolution> r = rbsc.Solve(instance);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->Feasible());
    EXPECT_LE(optimal->Cost(), r->Cost() + 1e-9);
    // Claim 1: O(2·sqrt(l·‖V‖·log‖ΔV‖)).
    double l = static_cast<double>(instance.max_arity());
    double v = static_cast<double>(instance.TotalViewTuples());
    double dv = static_cast<double>(instance.TotalDeletionTuples());
    double bound = 2.0 * std::sqrt(l * v * std::log(std::max(2.0, dv)));
    EXPECT_LE(r->Cost(), bound * std::max(optimal->Cost(), 1.0) + 1e-9);
  }
}

TEST_P(RandomWorkloadSweep, DeletionsAreSubsetsOfCandidates) {
  const VseInstance& instance = *generated_.instance;
  ExactSolver exact;
  Result<VseSolution> optimal = exact.Solve(instance);
  ASSERT_TRUE(optimal.ok());
  // An optimal solution never deletes a tuple outside the ΔV witnesses.
  std::vector<TupleRef> candidates = instance.CandidateTuples();
  for (const TupleRef& ref : optimal->deletion.Sorted()) {
    EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(), ref))
        << instance.database().RenderTuple(ref);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RandomWorkloadSweep,
    ::testing::Values(RandomSweepCase{1, 2, 6, 1}, RandomSweepCase{2, 2, 8, 2},
                      RandomSweepCase{3, 3, 8, 2}, RandomSweepCase{4, 2, 10, 3},
                      RandomSweepCase{5, 3, 6, 3}, RandomSweepCase{6, 2, 8, 2},
                      RandomSweepCase{7, 3, 10, 2}, RandomSweepCase{8, 2, 6, 4},
                      RandomSweepCase{9, 3, 8, 3},
                      RandomSweepCase{10, 2, 12, 2}),
    [](const ::testing::TestParamInfo<RandomSweepCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_r" +
             std::to_string(info.param.relations) + "_n" +
             std::to_string(info.param.rows) + "_q" +
             std::to_string(info.param.queries);
    });

// ---------------------------------------------------------------------------
// Sweep 2: tree instances — Theorems 3/4 bounds and Algorithm 4 exactness.
// ---------------------------------------------------------------------------

struct TreeSweepCase {
  uint64_t seed;
  size_t levels;
  size_t roots;
  size_t fanout;
  double delta;
};

class TreeSweep : public ::testing::TestWithParam<TreeSweepCase> {
 protected:
  void SetUp() override {
    Rng rng(GetParam().seed);
    PathSchemaParams params;
    params.levels = GetParam().levels;
    params.roots = GetParam().roots;
    params.fanout = GetParam().fanout;
    params.deletion_fraction = GetParam().delta;
    Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    generated_ = std::move(*generated);
  }
  GeneratedVse generated_;
};

TEST_P(TreeSweep, TreeAlgorithmsUpholdTheorems) {
  const VseInstance& instance = *generated_.instance;
  ExactSolver exact;
  Result<VseSolution> optimal = exact.Solve(instance);
  ASSERT_TRUE(optimal.ok()) << optimal.status().ToString();

  DpTreeSolver dp;
  Result<VseSolution> dp_solution = dp.Solve(instance);
  ASSERT_TRUE(dp_solution.ok()) << dp_solution.status().ToString();
  EXPECT_NEAR(dp_solution->Cost(), optimal->Cost(), 1e-9)
      << "Algorithm 4 exactness";

  PrimalDualTreeSolver primal_dual;
  Result<VseSolution> pd = primal_dual.Solve(instance);
  ASSERT_TRUE(pd.ok()) << pd.status().ToString();
  EXPECT_TRUE(pd->Feasible());
  double l = static_cast<double>(instance.max_arity());
  EXPECT_LE(pd->Cost(), l * optimal->Cost() + 1e-9) << "Theorem 3 bound";

  LowDegTreeSolver lowdeg;
  Result<VseSolution> ld = lowdeg.Solve(instance);
  ASSERT_TRUE(ld.ok()) << ld.status().ToString();
  EXPECT_TRUE(ld->Feasible());
  double bound =
      2.0 * std::sqrt(static_cast<double>(instance.TotalViewTuples()));
  EXPECT_LE(ld->Cost(), bound * std::max(optimal->Cost(), 1.0) + 1e-9)
      << "Theorem 4 bound";
}

TEST_P(TreeSweep, BalancedDpExactness) {
  const VseInstance& instance = *generated_.instance;
  DpTreeSolver dp(Objective::kBalanced);
  ExactBalancedSolver exact;
  Result<VseSolution> a = dp.Solve(instance);
  Result<VseSolution> b = exact.Solve(instance);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_NEAR(a->BalancedCost(), b->BalancedCost(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeSweep,
    ::testing::Values(TreeSweepCase{11, 3, 1, 2, 0.3},
                      TreeSweepCase{12, 3, 2, 2, 0.2},
                      TreeSweepCase{13, 4, 1, 2, 0.25},
                      TreeSweepCase{14, 4, 2, 2, 0.15},
                      TreeSweepCase{15, 3, 3, 2, 0.3},
                      TreeSweepCase{16, 5, 1, 1, 0.4},
                      TreeSweepCase{17, 3, 2, 3, 0.2},
                      TreeSweepCase{18, 4, 1, 3, 0.1}),
    [](const ::testing::TestParamInfo<TreeSweepCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_l" +
             std::to_string(info.param.levels) + "_r" +
             std::to_string(info.param.roots) + "_f" +
             std::to_string(info.param.fanout);
    });

// ---------------------------------------------------------------------------
// Sweep 3: star instances — general-case algorithm on non-tree inputs.
// ---------------------------------------------------------------------------

class StarSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StarSweep, GeneralAlgorithmHandlesNonTreeShapes) {
  Rng rng(GetParam());
  StarSchemaParams params;
  params.dimensions = 3;
  params.fact_rows = 12;
  params.deletion_fraction = 0.2;
  Result<GeneratedVse> generated = GenerateStarSchema(rng, params);
  ASSERT_TRUE(generated.ok());
  const VseInstance& instance = *generated->instance;
  if (instance.TotalDeletionTuples() == 0) GTEST_SKIP();

  RbscReductionSolver rbsc;
  ExactSolver exact;
  Result<VseSolution> r = rbsc.Solve(instance);
  Result<VseSolution> e = exact.Solve(instance);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_TRUE(r->Feasible());
  EXPECT_LE(e->Cost(), r->Cost() + 1e-9);

  // Tree solvers must refuse.
  PrimalDualTreeSolver pd;
  EXPECT_EQ(pd.Solve(instance).status().code(),
            StatusCode::kFailedPrecondition);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StarSweep,
                         ::testing::Range(uint64_t{20}, uint64_t{28}));

// ---------------------------------------------------------------------------
// Registry coverage.
// ---------------------------------------------------------------------------

TEST(RegistryTest, AllNamesConstruct) {
  for (const std::string& name : AllSolverNames()) {
    EXPECT_NE(MakeSolver(name), nullptr) << name;
    // The exact names are aliases of the ILP, which reports its own name.
    std::string expected = name == "exact"            ? "ilp"
                           : name == "exact-balanced" ? "ilp-balanced"
                                                      : name;
    EXPECT_EQ(MakeSolver(name)->name(), expected);
  }
  EXPECT_EQ(MakeSolver("no-such-solver"), nullptr);
}

TEST(RegistryTest, StandardSolversNonEmpty) {
  EXPECT_GE(StandardApproximationSolvers().size(), 5u);
}

// RunAll on a pool must be a pure parallelization: same solver set, same
// order, same statuses, same costs and deletion sets as the sequential run.
TEST(RegistryTest, RunAllParallelMatchesSequential) {
  Rng rng(17);
  PathSchemaParams params;
  params.levels = 3;
  params.roots = 2;
  params.fanout = 2;
  params.deletion_fraction = 0.3;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  ASSERT_TRUE(generated.ok());
  const VseInstance& instance = *generated->instance;

  std::vector<SolverRun> sequential = RunAll(instance, nullptr);
  ThreadPool pool(4);
  std::vector<SolverRun> parallel = RunAll(instance, &pool);

  ASSERT_EQ(sequential.size(), parallel.size());
  ASSERT_GE(sequential.size(), 6u);
  for (size_t i = 0; i < sequential.size(); ++i) {
    const SolverRun& seq = sequential[i];
    const SolverRun& par = parallel[i];
    EXPECT_EQ(seq.name, par.name);
    EXPECT_GE(seq.wall_ms, 0.0);
    EXPECT_GE(par.wall_ms, 0.0);
    ASSERT_EQ(seq.result.ok(), par.result.ok()) << seq.name;
    if (!seq.result.ok()) {
      EXPECT_EQ(seq.result.status().code(), par.result.status().code());
      continue;
    }
    EXPECT_DOUBLE_EQ(seq.result->Cost(), par.result->Cost()) << seq.name;
    EXPECT_EQ(seq.result->deletion.size(), par.result->deletion.size())
        << seq.name;
    for (const TupleRef& ref : seq.result->deletion) {
      EXPECT_TRUE(par.result->deletion.Contains(ref)) << seq.name;
    }
  }
}

TEST(RegistryTest, RunAllReportsUnknownSolverName) {
  Rng rng(18);
  PathSchemaParams params;
  params.levels = 2;
  params.roots = 1;
  params.fanout = 2;
  params.deletion_fraction = 0.5;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  ASSERT_TRUE(generated.ok());
  std::vector<SolverRun> runs =
      RunAll(*generated->instance, nullptr, {"greedy", "no-such-solver"});
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_TRUE(runs[0].result.ok());
  ASSERT_FALSE(runs[1].result.ok());
  EXPECT_EQ(runs[1].result.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace delprop
