#include <gtest/gtest.h>

#include "common/rng.h"
#include "solvers/dp_tree_solver.h"
#include "solvers/exact_solver.h"
#include "solvers/primal_dual_tree_solver.h"
#include "workload/path_schema.h"
#include "workload/star_schema.h"

namespace delprop {
namespace {

Result<GeneratedVse> PivotInstance(uint64_t seed, size_t levels, size_t roots,
                                   size_t fanout, double delta) {
  Rng rng(seed);
  PathSchemaParams params;
  params.levels = levels;
  params.roots = roots;
  params.fanout = fanout;
  params.deletion_fraction = delta;
  return GeneratePathSchema(rng, params);
}

TEST(DpTreeTest, MatchesExactOnPivotInstances) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Result<GeneratedVse> generated = PivotInstance(400 + seed, 3, 2, 2, 0.3);
    ASSERT_TRUE(generated.ok());
    const VseInstance& instance = *generated->instance;
    DpTreeSolver dp;
    ExactSolver exact;
    Result<VseSolution> dp_solution = dp.Solve(instance);
    Result<VseSolution> exact_solution = exact.Solve(instance);
    ASSERT_TRUE(dp_solution.ok()) << dp_solution.status().ToString();
    ASSERT_TRUE(exact_solution.ok());
    EXPECT_TRUE(dp_solution->Feasible()) << "seed " << seed;
    EXPECT_NEAR(dp_solution->Cost(), exact_solution->Cost(), 1e-9)
        << "seed " << seed << ": Algorithm 4 must be exact on pivot forests";
  }
}

TEST(DpTreeTest, MatchesExactWithWeights) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Result<GeneratedVse> generated = PivotInstance(500 + seed, 3, 2, 2, 0.25);
    ASSERT_TRUE(generated.ok());
    VseInstance& instance = *generated->instance;
    // Random weights on all view tuples.
    Rng rng(900 + seed);
    for (size_t v = 0; v < instance.view_count(); ++v) {
      for (size_t t = 0; t < instance.view(v).size(); ++t) {
        ASSERT_TRUE(
            instance.SetWeight(ViewTupleId{v, t},
                               1.0 + static_cast<double>(rng.NextBelow(5)))
                .ok());
      }
    }
    DpTreeSolver dp;
    ExactSolver exact;
    Result<VseSolution> dp_solution = dp.Solve(instance);
    Result<VseSolution> exact_solution = exact.Solve(instance);
    ASSERT_TRUE(dp_solution.ok());
    ASSERT_TRUE(exact_solution.ok());
    EXPECT_NEAR(dp_solution->Cost(), exact_solution->Cost(), 1e-9)
        << "seed " << seed;
  }
}

TEST(DpTreeTest, BalancedMatchesExactBalanced) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    Result<GeneratedVse> generated = PivotInstance(600 + seed, 3, 2, 2, 0.35);
    ASSERT_TRUE(generated.ok());
    const VseInstance& instance = *generated->instance;
    DpTreeSolver dp(Objective::kBalanced);
    ExactBalancedSolver exact;
    Result<VseSolution> dp_solution = dp.Solve(instance);
    Result<VseSolution> exact_solution = exact.Solve(instance);
    ASSERT_TRUE(dp_solution.ok()) << dp_solution.status().ToString();
    ASSERT_TRUE(exact_solution.ok()) << exact_solution.status().ToString();
    EXPECT_NEAR(dp_solution->BalancedCost(), exact_solution->BalancedCost(),
                1e-9)
        << "seed " << seed;
  }
}

TEST(DpTreeTest, RefusesNonPivotInstances) {
  Rng rng(71);
  StarSchemaParams params;
  params.dimensions = 3;
  params.fact_rows = 12;
  params.query_dimension_sets = {{0, 1, 2}};
  params.deletion_fraction = 0.4;
  Result<GeneratedVse> generated = GenerateStarSchema(rng, params);
  ASSERT_TRUE(generated.ok());
  ASSERT_GT(generated->instance->TotalDeletionTuples(), 0u);
  DpTreeSolver dp;
  EXPECT_EQ(dp.Solve(*generated->instance).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DpTreeTest, DeepChainExact) {
  // A single long chain: the DP must still match the exact optimum.
  Result<GeneratedVse> generated = PivotInstance(72, 6, 1, 1, 0.4);
  ASSERT_TRUE(generated.ok());
  const VseInstance& instance = *generated->instance;
  DpTreeSolver dp;
  ExactSolver exact;
  Result<VseSolution> dp_solution = dp.Solve(instance);
  Result<VseSolution> exact_solution = exact.Solve(instance);
  ASSERT_TRUE(dp_solution.ok()) << dp_solution.status().ToString();
  ASSERT_TRUE(exact_solution.ok());
  EXPECT_NEAR(dp_solution->Cost(), exact_solution->Cost(), 1e-9);
}

TEST(DpTreeTest, RandomParentTreesExact) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(800 + seed);
    PathSchemaParams params;
    params.levels = 3;
    params.roots = 2;
    params.fanout = 3;
    params.random_parents = true;
    params.deletion_fraction = 0.3;
    Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
    ASSERT_TRUE(generated.ok());
    const VseInstance& instance = *generated->instance;
    DpTreeSolver dp;
    ExactSolver exact;
    Result<VseSolution> dp_solution = dp.Solve(instance);
    Result<VseSolution> exact_solution = exact.Solve(instance);
    ASSERT_TRUE(dp_solution.ok()) << dp_solution.status().ToString();
    ASSERT_TRUE(exact_solution.ok());
    EXPECT_NEAR(dp_solution->Cost(), exact_solution->Cost(), 1e-9)
        << "seed " << seed;
  }
}

TEST(DpTreeTest, BalancedNeverExceedsDoingNothing) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Result<GeneratedVse> generated = PivotInstance(700 + seed, 3, 2, 2, 0.5);
    ASSERT_TRUE(generated.ok());
    const VseInstance& instance = *generated->instance;
    DpTreeSolver dp(Objective::kBalanced);
    Result<VseSolution> solution = dp.Solve(instance);
    ASSERT_TRUE(solution.ok());
    double do_nothing = 0.0;
    for (const ViewTupleId& id : instance.deletion_tuples()) {
      do_nothing += instance.weight(id);
    }
    EXPECT_LE(solution->BalancedCost(), do_nothing + 1e-9) << "seed " << seed;
  }
}

TEST(DpTreeTest, FeasibleWhenOptimumReachesOneE17) {
  // ΔV = {(0, 0)}; every other view tuple weighs scale × {1.0, 1.1, 1.2}.
  // The optimum (1.1 × scale) once reached the old 1e17 "infeasible"
  // sentinel, at which dp-tree reported Infeasible; at 1e16 it never did.
  for (double scale : {1e16, 1e17}) {
    Result<GeneratedVse> generated = PivotInstance(5, 3, 2, 2, 0.0);
    ASSERT_TRUE(generated.ok());
    VseInstance& instance = *generated->instance;
    ASSERT_TRUE(instance.MarkForDeletion(ViewTupleId{0, 0}).ok());
    for (size_t v = 0; v < instance.view_count(); ++v) {
      for (size_t t = 0; t < instance.view(v).size(); ++t) {
        if (v == 0 && t == 0) continue;
        double weight = scale * (1.0 + 0.1 * static_cast<double>((v + t) % 3));
        ASSERT_TRUE(instance.SetWeight(ViewTupleId{v, t}, weight).ok());
      }
    }
    DpTreeSolver dp;
    PrimalDualTreeSolver primal_dual;
    Result<VseSolution> dp_solution = dp.Solve(instance);
    Result<VseSolution> pd_solution = primal_dual.Solve(instance);
    ASSERT_TRUE(dp_solution.ok())
        << "scale " << scale << ": " << dp_solution.status().ToString();
    ASSERT_TRUE(pd_solution.ok());
    EXPECT_TRUE(dp_solution->Feasible()) << "scale " << scale;
    EXPECT_EQ(dp_solution->Cost(), pd_solution->Cost()) << "scale " << scale;
    EXPECT_EQ(dp_solution->Cost(), 1.1 * scale) << "scale " << scale;
  }
}

TEST(DpTreeTest, ZeroWeightDeltaTuplesAreStillEliminated) {
  // A ΔV tuple's weight does not make it optional: with every ΔV weight 0,
  // the DP must still eliminate ΔV, at the exact optimum.
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Result<GeneratedVse> generated = PivotInstance(400 + seed, 3, 2, 2, 0.3);
    ASSERT_TRUE(generated.ok());
    VseInstance& instance = *generated->instance;
    ASSERT_GT(instance.TotalDeletionTuples(), 0u);
    std::vector<ViewTupleId> delta_v = instance.deletion_tuples();
    for (const ViewTupleId& id : delta_v) {
      ASSERT_TRUE(instance.SetWeight(id, 0.0).ok());
    }
    DpTreeSolver dp;
    ExactSolver exact;
    Result<VseSolution> dp_solution = dp.Solve(instance);
    Result<VseSolution> exact_solution = exact.Solve(instance);
    ASSERT_TRUE(dp_solution.ok()) << dp_solution.status().ToString();
    ASSERT_TRUE(exact_solution.ok());
    EXPECT_TRUE(dp_solution->Feasible()) << "seed " << seed;
    EXPECT_NEAR(dp_solution->Cost(), exact_solution->Cost(), 1e-9)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace delprop
