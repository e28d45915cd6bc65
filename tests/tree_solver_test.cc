#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "solvers/dp_tree_solver.h"
#include "solvers/exact_solver.h"
#include "solvers/lowdeg_tree_solver.h"
#include "solvers/primal_dual_tree_solver.h"
#include "solvers/tree_common.h"
#include "workload/path_schema.h"
#include "workload/star_schema.h"

namespace delprop {
namespace {

Result<GeneratedVse> TreeInstance(uint64_t seed, size_t levels, size_t roots,
                                  size_t fanout, double delta) {
  Rng rng(seed);
  PathSchemaParams params;
  params.levels = levels;
  params.roots = roots;
  params.fanout = fanout;
  params.deletion_fraction = delta;
  return GeneratePathSchema(rng, params);
}

TEST(TreeCommonTest, BuildsOnPathSchema) {
  Result<GeneratedVse> generated = TreeInstance(61, 4, 2, 2, 0.2);
  ASSERT_TRUE(generated.ok());
  Result<TreeStructure> structure =
      BuildTreeStructure(*generated->instance, TreeMode::kDeltaPaths);
  ASSERT_TRUE(structure.ok()) << structure.status().ToString();
  EXPECT_EQ(structure->delta_paths.size(),
            generated->instance->TotalDeletionTuples());
  EXPECT_EQ(structure->delta_paths.size() + structure->preserved_paths.size(),
            generated->instance->TotalViewTuples());
  // Every path's LCA is its shallowest node.
  for (const auto& path : structure->delta_paths) {
    for (size_t n : path.nodes) {
      EXPECT_GE(structure->rooting.depth[n],
                structure->rooting.depth[path.lca_node]);
    }
  }
}

TEST(TreeCommonTest, RefusesStarWitnesses) {
  Rng rng(62);
  StarSchemaParams params;
  params.dimensions = 3;
  params.fact_rows = 12;
  params.query_dimension_sets = {{0, 1, 2}};
  params.deletion_fraction = 0.5;
  Result<GeneratedVse> generated = GenerateStarSchema(rng, params);
  ASSERT_TRUE(generated.ok());
  ASSERT_GT(generated->instance->TotalDeletionTuples(), 0u);
  Result<TreeStructure> structure =
      BuildTreeStructure(*generated->instance, TreeMode::kDeltaPaths);
  EXPECT_EQ(structure.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PrimalDualTest, FeasibleOnTreeInstances) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Result<GeneratedVse> generated = TreeInstance(100 + seed, 4, 2, 2, 0.25);
    ASSERT_TRUE(generated.ok());
    PrimalDualTreeSolver solver;
    Result<VseSolution> solution = solver.Solve(*generated->instance);
    ASSERT_TRUE(solution.ok()) << solution.status().ToString();
    EXPECT_TRUE(solution->Feasible()) << "seed " << seed;
  }
}

TEST(PrimalDualTest, WithinFactorLOfExact) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    Result<GeneratedVse> generated = TreeInstance(200 + seed, 3, 2, 2, 0.3);
    ASSERT_TRUE(generated.ok());
    const VseInstance& instance = *generated->instance;
    PrimalDualTreeSolver primal_dual;
    ExactSolver exact;
    Result<VseSolution> approx = primal_dual.Solve(instance);
    Result<VseSolution> optimal = exact.Solve(instance);
    ASSERT_TRUE(approx.ok());
    ASSERT_TRUE(optimal.ok()) << optimal.status().ToString();
    double l = static_cast<double>(instance.max_arity());
    EXPECT_LE(optimal->Cost(), approx->Cost() + 1e-9);
    EXPECT_LE(approx->Cost(), l * optimal->Cost() + 1e-9)
        << "seed " << seed << ": Theorem 3's l-approximation bound";
  }
}

TEST(PrimalDualTest, ReverseDeleteGivesMinimalSolution) {
  Result<GeneratedVse> generated = TreeInstance(63, 4, 2, 2, 0.3);
  ASSERT_TRUE(generated.ok());
  const VseInstance& instance = *generated->instance;
  PrimalDualTreeSolver solver;
  Result<VseSolution> solution = solver.Solve(instance);
  ASSERT_TRUE(solution.ok());
  ASSERT_TRUE(solution->Feasible());
  for (const TupleRef& ref : solution->deletion.Sorted()) {
    DeletionSet smaller = solution->deletion;
    smaller.Erase(ref);
    EXPECT_FALSE(
        EvaluateDeletion(instance, smaller).eliminates_all_deletions)
        << "dropping " << instance.database().RenderTuple(ref)
        << " should break feasibility";
  }
}

TEST(PrimalDualTest, UndeletableNodesRespected) {
  Result<GeneratedVse> generated = TreeInstance(64, 3, 1, 2, 0.4);
  ASSERT_TRUE(generated.ok());
  Result<TreeStructure> structure =
      BuildTreeStructure(*generated->instance, TreeMode::kDeltaPaths);
  ASSERT_TRUE(structure.ok());
  PrimalDualOptions options;
  options.undeletable.assign(structure->forest.node_count(), true);
  Result<std::vector<size_t>> nodes =
      PrimalDualTreeSolver::SolveOnTree(*structure, options);
  EXPECT_EQ(nodes.status().code(), StatusCode::kInfeasible);
}

TEST(LowDegTest, FeasibleAndWithinTheoremFourBound) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    Result<GeneratedVse> generated = TreeInstance(300 + seed, 3, 2, 2, 0.3);
    ASSERT_TRUE(generated.ok());
    const VseInstance& instance = *generated->instance;
    LowDegTreeSolver lowdeg;
    ExactSolver exact;
    Result<VseSolution> approx = lowdeg.Solve(instance);
    Result<VseSolution> optimal = exact.Solve(instance);
    ASSERT_TRUE(approx.ok()) << approx.status().ToString();
    ASSERT_TRUE(optimal.ok());
    EXPECT_TRUE(approx->Feasible());
    double bound =
        2.0 * std::sqrt(static_cast<double>(instance.TotalViewTuples()));
    EXPECT_LE(approx->Cost(),
              bound * std::max(optimal->Cost(), 1.0) + 1e-9)
        << "seed " << seed << ": Theorem 4's 2·sqrt(‖V‖) bound";
  }
}

TEST(LowDegTest, NeverWorseThanPrimalDualByMuch) {
  // Algorithm 3 includes the unrestricted τ=max pass, whose image is the
  // plain primal-dual run with pruned wide tuples; sanity-check both run.
  Result<GeneratedVse> generated = TreeInstance(65, 4, 2, 3, 0.25);
  ASSERT_TRUE(generated.ok());
  const VseInstance& instance = *generated->instance;
  LowDegTreeSolver lowdeg;
  PrimalDualTreeSolver primal_dual;
  Result<VseSolution> a = lowdeg.Solve(instance);
  Result<VseSolution> b = primal_dual.Solve(instance);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->Feasible());
  EXPECT_TRUE(b->Feasible());
}

TEST(TreeSolversTest, EmptyDeltaV) {
  Result<GeneratedVse> generated = TreeInstance(66, 3, 1, 2, 0.0);
  ASSERT_TRUE(generated.ok());
  if (generated->instance->TotalDeletionTuples() != 0) GTEST_SKIP();
  PrimalDualTreeSolver pd;
  LowDegTreeSolver ld;
  Result<VseSolution> a = pd.Solve(*generated->instance);
  Result<VseSolution> b = ld.Solve(*generated->instance);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->deletion.size(), 0u);
  EXPECT_EQ(b->deletion.size(), 0u);
}

// A live-sized forest (levels 6, fanout 3; roots 3 is 1x, roots 6 is 2x)
// with weights 1, 2, 4 or 8 and a ΔV clustered around `clusters` random
// L1-L3 tuples: each view tuple through one of them is marked with
// probability 0.3. Clustering pulls deletions above the leaves, where the
// three tree solvers disagree.
Result<GeneratedVse> ClusteredForest(uint64_t seed, size_t roots,
                                     size_t clusters) {
  Rng rng(seed);
  PathSchemaParams params;
  params.levels = 6;
  params.roots = roots;
  params.fanout = 3;
  params.deletion_fraction = 0.0;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  if (!generated.ok()) return generated;
  VseInstance& instance = *generated->instance;
  for (size_t v = 0; v < instance.view_count(); ++v) {
    for (size_t t = 0; t < instance.view(v).size(); ++t) {
      double weight = static_cast<double>(1u << rng.NextBelow(4));
      if (Status s = instance.SetWeight(ViewTupleId{v, t}, weight); !s.ok()) {
        return s;
      }
    }
  }
  std::set<TupleRef> centers;
  for (size_t i = 0; i < clusters; ++i) {
    RelationId level = static_cast<RelationId>(1 + rng.NextBelow(3));
    uint32_t row = static_cast<uint32_t>(
        rng.NextBelow(instance.database().relation(level).row_count()));
    centers.insert(TupleRef{level, row});
  }
  std::vector<ViewTupleId> delta_v;
  for (size_t v = 0; v < instance.view_count(); ++v) {
    for (size_t t = 0; t < instance.view(v).size(); ++t) {
      bool through = false;
      for (const TupleRef& ref : instance.view(v).tuple(t).witnesses[0]) {
        through = through || centers.count(ref) > 0;
      }
      if (through && rng.NextBool(0.3)) delta_v.push_back(ViewTupleId{v, t});
    }
  }
  if (Status s = instance.ResetDeletions(delta_v); !s.ok()) return s;
  return generated;
}

TEST(TreeSolversTest, AnswersMatchRecordedGoldens) {
  // Recorded before the tree solvers moved to flat arrays; every ΔD and
  // cost must stay exactly as it was. ΔD is sorted (relation, row).
  using Refs = std::vector<std::pair<RelationId, uint32_t>>;
  struct Golden {
    uint64_t seed;
    size_t roots;
    size_t clusters;
    size_t delta_v;
    double dp_cost;
    Refs dp;
    double pd_cost;
    Refs pd;
    double ld_cost;
    Refs ld;
  };
  const Golden goldens[] = {
      {3, 3, 1, 8,
       39, {{5, 486}, {5, 492}, {5, 493}, {5, 494}},
       39, {{4, 164}, {5, 486}},
       39, {{5, 486}, {5, 492}, {5, 493}, {5, 494}}},
      {6, 3, 2, 57,
       418, {{1, 6}, {2, 20}},
       433, {{1, 6}, {4, 180}, {5, 547}, {5, 553}, {5, 554}, {5, 558},
             {5, 560}, {5, 562}, {5, 566}},
       433, {{1, 6}, {4, 180}, {5, 547}, {5, 553}, {5, 554}, {5, 558},
             {5, 560}, {5, 562}, {5, 566}}},
      {8, 6, 1, 5,
       81, {{5, 1452}, {5, 1453}, {5, 1454}, {5, 1455}, {5, 1456}},
       81, {{4, 484}, {5, 1455}, {5, 1456}},
       81, {{5, 1452}, {5, 1453}, {5, 1454}, {5, 1455}, {5, 1456}}},
  };
  for (const Golden& golden : goldens) {
    Result<GeneratedVse> generated =
        ClusteredForest(golden.seed, golden.roots, golden.clusters);
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    const VseInstance& instance = *generated->instance;
    ASSERT_EQ(instance.TotalDeletionTuples(), golden.delta_v);
    DpTreeSolver dp;
    PrimalDualTreeSolver primal_dual;
    LowDegTreeSolver lowdeg;
    struct Run {
      VseSolver* solver;
      double cost;
      const Refs* deletion;
    };
    for (const Run& run : {Run{&dp, golden.dp_cost, &golden.dp},
                           Run{&primal_dual, golden.pd_cost, &golden.pd},
                           Run{&lowdeg, golden.ld_cost, &golden.ld}}) {
      std::string label =
          run.solver->name() + " seed " + std::to_string(golden.seed);
      Result<VseSolution> solution = run.solver->Solve(instance);
      ASSERT_TRUE(solution.ok())
          << label << ": " << solution.status().ToString();
      EXPECT_TRUE(solution->Feasible()) << label;
      Refs got;
      for (const TupleRef& ref : solution->deletion.Sorted()) {
        got.emplace_back(ref.relation, ref.row);
      }
      EXPECT_EQ(solution->Cost(), run.cost) << label;
      EXPECT_EQ(got, *run.deletion) << label;
    }
  }
}

}  // namespace
}  // namespace delprop
