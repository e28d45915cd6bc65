#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/rng.h"
#include "ilp/ilp_solver.h"
#include "solvers/dp_tree_solver.h"
#include "solvers/exact_solver.h"
#include "solvers/lowdeg_tree_solver.h"
#include "solvers/primal_dual_tree_solver.h"
#include "solvers/tree_common.h"
#include "tool/script.h"
#include "workload/path_schema.h"
#include "workload/random_workload.h"
#include "workload/star_schema.h"

#ifndef DELPROP_CORPUS_DIR
#error "build must define DELPROP_CORPUS_DIR (see tests/CMakeLists.txt)"
#endif

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
  const VseInstance& instance = *generated->instance;
  std::shared_ptr<const CompiledInstance> plan = instance.compiled();
  TreeStructure structure;
  Status built = structure.Build(instance, *plan, TreeMode::kDeltaPaths);
  ASSERT_TRUE(built.ok()) << built.ToString();
  EXPECT_EQ(structure.delta_paths.size(), instance.TotalDeletionTuples());
  // ΔV touches both root trees, so every view tuple's witness is a path of
  // the structure, ΔV's among the delta paths and the rest preserved.
  EXPECT_EQ(structure.forest.witnesses().size(), instance.TotalViewTuples());
  size_t preserved_incidence = 0;
  size_t delta_incidence = 0;
  for (size_t n = 0; n < structure.forest.node_count(); ++n) {
    preserved_incidence += structure.PreservedCount(n);
    delta_incidence += structure.delta_through(n).size();
  }
  size_t incidence = 0;
  for (const ForestWitness& witness : structure.forest.witnesses()) {
    incidence += witness.nodes.size();
  }
  EXPECT_EQ(preserved_incidence + delta_incidence, incidence);
  // Every path's LCA is its shallowest node.
  for (const auto& path : structure.delta_paths) {
    for (size_t n : path.nodes) {
      EXPECT_GE(structure.rooting.depth[n],
                structure.rooting.depth[path.lca_node]);
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
  TreeStructure structure;
  EXPECT_EQ(structure
                .Build(*generated->instance, *generated->instance->compiled(),
                       TreeMode::kDeltaPaths)
                .code(),
            StatusCode::kFailedPrecondition);
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
  std::shared_ptr<const CompiledInstance> plan =
      generated->instance->compiled();
  TreeStructure structure;
  ASSERT_TRUE(
      structure.Build(*generated->instance, *plan, TreeMode::kDeltaPaths)
          .ok());
  PrimalDualOptions options;
  options.undeletable.assign(structure.forest.node_count(), true);
  PrimalDualScratch scratch;
  std::vector<size_t> nodes;
  EXPECT_EQ(PrimalDualTreeSolver::SolveOnTree(structure, options, &scratch,
                                              &nodes)
                .code(),
            StatusCode::kInfeasible);
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

// --- the touched components -------------------------------------------

// A pivot forest (two roots, three children) that each case extends with a
// disjoint part breaking one tree precondition, and the ΔV lines.
constexpr char kPathForest[] = R"(relation L0(id*, payload)
relation L1(id*, parent, payload)
insert L0(a, pa)
insert L0(b, pb)
insert L1(c, a, pc)
insert L1(d, a, pd)
insert L1(e, b, pe)
)";
constexpr char kPathQueries[] = R"(query Q0(x0, w0, x1, w1) :- L0(x0, w0), L1(x1, x0, w1)
query Q1(x0, w0) :- L0(x0, w0)
)";
constexpr char kForestDeltaV[] = R"(delete Q1(a, pa)
delete Q0(b, pb, e, pe)
weight Q0(a, pa, d, pd) 0.1
)";

struct BrokenPart {
  const char* name;
  const char* relations_and_rows;
  const char* query;
  const char* delta_v;  // a ΔV inside the broken part
  // Today's refusal messages when ΔV touches the part.
  const char* dp_message;
  const char* path_message;
};

const BrokenPart kBrokenParts[] = {
    // Two facts sharing both dimension rows: f1 - x - f2 - y - f1.
    {"cycle",
     R"(relation F(f*, d1, d2)
relation D1(d1*)
relation D2(d2*)
insert F(f1, x, y)
insert F(f2, x, y)
insert D1(x)
insert D2(y)
)",
     "query Qs(f, u, v) :- F(f, u, v), D1(u), D2(v)\n",
     "delete Qs(f1, x, y)\n",
     "data dual graph has a cycle: not a tree case",
     "data dual graph has a cycle: not a tree case"},
    // One fact with three dimensions: a star, so a tree, but its witness is
    // neither a path nor vertical under any rooting.
    {"star",
     R"(relation G(g*, e1, e2, e3)
relation E1(e1*)
relation E2(e2*)
relation E3(e3*)
insert G(g1, p, q, r)
insert E1(p)
insert E2(q)
insert E3(r)
)",
     "query Qt(g, i, j, k) :- G(g, i, j, k), E1(i), E2(j), E3(k)\n",
     "delete Qt(g1, p, q, r)\n",
     "no pivot rooting exists: Algorithm 4 does not apply",
     "witness of Qt(g1, p, q, r) is not a path in the data dual graph"},
};

std::string PartScript(const BrokenPart& part, const char* delta_v) {
  return std::string(kPathForest) + part.relations_and_rows + kPathQueries +
         part.query + delta_v;
}

TEST(TreeSolversTest, AnswerWhenOnlyUntouchedComponentsBreakTheShape) {
  for (const BrokenPart& part : kBrokenParts) {
    SCOPED_TRACE(part.name);
    ScriptSession session;
    std::string out;
    Status ran = session.Run(PartScript(part, kForestDeltaV), &out);
    ASSERT_TRUE(ran.ok()) << ran.ToString();
    const VseInstance& instance = *session.instance();
    ASSERT_EQ(instance.TotalDeletionTuples(), 2u);

    IlpSolver ilp;
    Result<VseSolution> optimum = ilp.Solve(instance);
    ASSERT_TRUE(optimum.ok()) << optimum.status().ToString();
    DpTreeSolver dp;
    DpTreeSolver dp_balanced(Objective::kBalanced);
    PrimalDualTreeSolver primal_dual;
    LowDegTreeSolver lowdeg;
    for (VseSolver* solver : std::initializer_list<VseSolver*>{
             &dp, &dp_balanced, &primal_dual, &lowdeg}) {
      Result<VseSolution> solution = solver->Solve(instance);
      ASSERT_TRUE(solution.ok())
          << solver->name() << ": " << solution.status().ToString();
      if (solver->objective() == Objective::kStandard) {
        EXPECT_TRUE(solution->Feasible()) << solver->name();
      }
    }
    Result<VseSolution> exact = dp.Solve(instance);
    ASSERT_TRUE(exact.ok());
    EXPECT_EQ(exact->Cost(), optimum->Cost());
    EXPECT_DOUBLE_EQ(exact->Cost(), 1.1);
  }
}

TEST(TreeSolversTest, RefuseWhenDeltaVTouchesTheBrokenComponent) {
  for (const BrokenPart& part : kBrokenParts) {
    SCOPED_TRACE(part.name);
    ScriptSession session;
    std::string out;
    Status ran = session.Run(PartScript(part, part.delta_v), &out);
    ASSERT_TRUE(ran.ok()) << ran.ToString();
    const VseInstance& instance = *session.instance();
    ASSERT_EQ(instance.TotalDeletionTuples(), 1u);

    DpTreeSolver dp;
    DpTreeSolver dp_balanced(Objective::kBalanced);
    PrimalDualTreeSolver primal_dual;
    LowDegTreeSolver lowdeg;
    for (VseSolver* solver : std::initializer_list<VseSolver*>{
             &dp, &dp_balanced, &primal_dual, &lowdeg}) {
      Result<VseSolution> solution = solver->Solve(instance);
      EXPECT_EQ(solution.status().code(), StatusCode::kFailedPrecondition)
          << solver->name();
      bool pivot_mode = solver == &dp || solver == &dp_balanced;
      EXPECT_EQ(solution.status().message(),
                pivot_mode ? part.dp_message : part.path_message)
          << solver->name();
    }
  }
}

// Marks every view tuple of `instance` for deletion, so that every
// component is touched.
void MarkEverything(VseInstance* instance) {
  std::vector<ViewTupleId> all;
  for (size_t v = 0; v < instance->view_count(); ++v) {
    for (size_t t = 0; t < instance->view(v).size(); ++t) {
      all.push_back(ViewTupleId{v, t});
    }
  }
  ASSERT_TRUE(instance->ResetDeletions(all).ok());
}

// The forest the tree solvers build from the compiled core, over every
// component, is DataForest::Build's over the views node for node.
void ExpectCoreForestMatchesViews(VseInstance* instance) {
  MarkEverything(instance);
  std::shared_ptr<const CompiledInstance> plan = instance->compiled();
  TreeStructure structure;
  // A dirty structure first: the rebuild must clear every mark it left.
  Rng rng(5);
  if (instance->TotalViewTuples() > 0) {
    std::vector<ViewTupleId> some = {instance->deletion_tuples()[rng.NextBelow(
        instance->TotalViewTuples())]};
    ASSERT_TRUE(instance->ResetDeletions(some).ok());
    std::shared_ptr<const CompiledInstance> partial = instance->compiled();
    structure.BuildForest(*instance, *partial);
    MarkEverything(instance);
    plan = instance->compiled();
  }
  structure.BuildForest(*instance, *plan);
  const DataForest& got = structure.forest;
  DataForest want = DataForest::Build(instance->ViewPointers());
  EXPECT_EQ(got.is_forest(), want.is_forest());
  ASSERT_EQ(got.node_count(), want.node_count());
  ASSERT_EQ(got.component_count(), want.component_count());
  for (size_t n = 0; n < want.node_count(); ++n) {
    EXPECT_EQ(got.node_ref(n), want.node_ref(n)) << "node " << n;
    EXPECT_EQ(got.component(n), want.component(n)) << "node " << n;
    EXPECT_TRUE(std::ranges::equal(got.neighbors(n), want.neighbors(n)))
        << "node " << n;
    EXPECT_EQ(got.node_ref(n), plan->base_ref(got.node_key(n)));
  }
  ASSERT_EQ(got.witnesses().size(), want.witnesses().size());
  for (size_t i = 0; i < want.witnesses().size(); ++i) {
    const ForestWitness& a = got.witnesses()[i];
    const ForestWitness& b = want.witnesses()[i];
    EXPECT_EQ(a.view_index, b.view_index) << "witness " << i;
    EXPECT_EQ(a.tuple_index, b.tuple_index) << "witness " << i;
    EXPECT_EQ(a.witness_index, b.witness_index) << "witness " << i;
    EXPECT_TRUE(std::ranges::equal(a.nodes, b.nodes)) << "witness " << i;
  }
}

TEST(TreeCommonTest, CoreForestMatchesViewForestOnTheCorpus) {
  size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(DELPROP_CORPUS_DIR)) {
    if (entry.path().extension() != ".delprop") continue;
    SCOPED_TRACE(entry.path().string());
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    ScriptSession session;
    std::string out;
    Status ran = session.Run(text.str(), &out);
    ASSERT_TRUE(ran.ok()) << ran.ToString();
    // A file that marks nothing leaves the views unmaterialized.
    if (session.mutable_instance() == nullptr) {
      ASSERT_TRUE(session.Execute("views", &out).ok());
    }
    ASSERT_NE(session.mutable_instance(), nullptr);
    ExpectCoreForestMatchesViews(session.mutable_instance());
    ++files;
  }
  EXPECT_GE(files, 5u);
}

TEST(TreeCommonTest, CoreForestMatchesViewForestOnGeneratedShapes) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Result<GeneratedVse> path = TreeInstance(400 + seed, 4, 3, 2, 0.2);
    ASSERT_TRUE(path.ok());
    ExpectCoreForestMatchesViews(path->instance.get());

    Rng star_rng(410 + seed);
    StarSchemaParams star_params;
    star_params.dimensions = 3;
    star_params.fact_rows = 12;
    star_params.query_dimension_sets = {{0, 1, 2}, {0, 1}};
    Result<GeneratedVse> star = GenerateStarSchema(star_rng, star_params);
    ASSERT_TRUE(star.ok());
    ExpectCoreForestMatchesViews(star->instance.get());

    Rng random_rng(420 + seed);
    Result<GeneratedVse> random =
        GenerateRandomWorkload(random_rng, RandomWorkloadParams());
    ASSERT_TRUE(random.ok());
    ExpectCoreForestMatchesViews(random->instance.get());
  }
}

// The complexity contract of a tree point request. On a 1x and a 4x path
// forest (6 levels, fanout 3, 3 vs 12 roots: ‖V‖ 3,645 vs 14,580) the view
// tuples that leaf row 0 kills lie in one root's tree, so the tree build
// visits that tree's witnesses and nodes at both sizes: a third of ‖V‖ at
// 1x and a twelfth at 4x.
struct TreeBuildWork {
  size_t view_tuples = 0;
  size_t witnesses = 0;
  size_t nodes = 0;
  size_t delta_paths = 0;
  double dp_cost = 0.0;
};

TreeBuildWork LeafPointRequest(size_t roots) {
  TreeBuildWork work;
  Rng rng(600 + roots);
  PathSchemaParams params;
  params.levels = 6;
  params.roots = roots;
  params.fanout = 3;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  EXPECT_TRUE(generated.ok());
  VseInstance& instance = *generated->instance;
  work.view_tuples = instance.TotalViewTuples();
  const TupleRef leaf{5, 0};  // row 0 of L5, the leaf level
  EXPECT_TRUE(instance.ResetDeletions(instance.KilledBy(leaf)).ok());
  std::shared_ptr<const CompiledInstance> plan = instance.compiled();
  TreeStructure structure;
  Status built = structure.Build(instance, *plan, TreeMode::kVerticalAll);
  EXPECT_TRUE(built.ok()) << built.ToString();
  work.witnesses = structure.forest.witnesses().size();
  work.nodes = structure.forest.node_count();
  work.delta_paths = structure.delta_paths.size();
  DpTreeSolver dp;
  Result<VseSolution> solution = dp.Solve(instance);
  EXPECT_TRUE(solution.ok());
  if (solution.ok()) work.dp_cost = solution->Cost();
  return work;
}

TEST(TreeCommonTest, PointRequestWorkDoesNotGrowWithTheInstance) {
  TreeBuildWork small = LeafPointRequest(3);
  TreeBuildWork large = LeafPointRequest(12);
  EXPECT_EQ(small.view_tuples, 3645u);
  EXPECT_EQ(large.view_tuples, 14580u);
  EXPECT_EQ(small.witnesses, small.view_tuples / 3);
  EXPECT_EQ(small.witnesses, large.witnesses);
  EXPECT_EQ(small.nodes, large.nodes);
  EXPECT_LT(large.witnesses, large.view_tuples / 4);
  EXPECT_EQ(small.nodes, 364u);  // 1 + 3 + 9 + 27 + 81 + 243
  EXPECT_EQ(small.delta_paths, 5u);  // one per view through the leaf
  EXPECT_EQ(small.delta_paths, large.delta_paths);
  EXPECT_EQ(small.dp_cost, large.dp_cost);
}

}  // namespace
}  // namespace delprop
