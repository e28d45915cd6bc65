#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ilp/covering_model.h"
#include "ilp/ilp_solver.h"
#include "plan/compiled_instance.h"
#include "reductions/vse_to_rbsc.h"
#include "solvers/exact_solver.h"
#include "solvers/greedy_solver.h"
#include "solvers/scratch_pool.h"
#include "solvers/solver_registry.h"
#include "workload/author_journal.h"
#include "workload/path_schema.h"
#include "workload/random_workload.h"
#include "workload/star_schema.h"
#include "workload/trap_chain.h"

namespace delprop {
namespace {

TEST(IlpSolverTest, RegistryKnowsBothObjectives) {
  std::unique_ptr<VseSolver> standard = MakeSolver("ilp");
  ASSERT_NE(standard, nullptr);
  EXPECT_EQ(standard->name(), "ilp");
  EXPECT_EQ(standard->objective(), Objective::kStandard);
  std::unique_ptr<VseSolver> balanced = MakeSolver("ilp-balanced");
  ASSERT_NE(balanced, nullptr);
  EXPECT_EQ(balanced->name(), "ilp-balanced");
  EXPECT_EQ(balanced->objective(), Objective::kBalanced);
}

TEST(IlpSolverTest, Fig1MatchesExact) {
  Result<GeneratedVse> generated = BuildFig1Example();
  ASSERT_TRUE(generated.ok());
  VseInstance& instance = *generated->instance;
  ASSERT_TRUE(instance.MarkForDeletionByValues(0, {"John", "XML"}).ok());

  IlpSolver ilp;
  Result<VseSolution> solution = ilp.Solve(instance);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_TRUE(solution->Feasible());
  EXPECT_TRUE(solution->gap.optimal);
  EXPECT_DOUBLE_EQ(solution->gap.lower_bound, solution->gap.upper_bound);
  EXPECT_DOUBLE_EQ(solution->Cost(), 4.0);  // the paper's Fig. 1 optimum
}

TEST(IlpSolverTest, EmptyDeltaVIsFree) {
  Result<GeneratedVse> generated = BuildFig1Example();
  ASSERT_TRUE(generated.ok());
  IlpSolver ilp;
  Result<VseSolution> solution = ilp.Solve(*generated->instance);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->deletion.size(), 0u);
  EXPECT_TRUE(solution->gap.optimal);
  EXPECT_DOUBLE_EQ(solution->Cost(), 0.0);
}

TEST(IlpSolverTest, RandomSweepMatchesExactBothObjectives) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    RandomWorkloadParams params;
    params.relations = 2;
    params.rows_per_relation = 8;
    params.queries = 2;
    Result<GeneratedVse> generated = GenerateRandomWorkload(rng, params);
    ASSERT_TRUE(generated.ok()) << "seed " << seed;
    const VseInstance& instance = *generated->instance;

    ExactSolver exact;
    Result<VseSolution> optimal = exact.Solve(instance);
    IlpSolver ilp;
    Result<VseSolution> solution = ilp.Solve(instance);
    ASSERT_EQ(optimal.ok(), solution.ok()) << "seed " << seed;
    if (optimal.ok() && optimal->gap.optimal) {
      ASSERT_TRUE(solution->gap.optimal) << "seed " << seed;
      EXPECT_NEAR(solution->Cost(), optimal->Cost(), 1e-9)
          << "seed " << seed;
    }

    ExactBalancedSolver exact_balanced;
    Result<VseSolution> balanced_opt = exact_balanced.Solve(instance);
    IlpSolver ilp_balanced(Objective::kBalanced);
    Result<VseSolution> balanced = ilp_balanced.Solve(instance);
    ASSERT_TRUE(balanced_opt.ok()) << "seed " << seed;
    ASSERT_TRUE(balanced.ok()) << "seed " << seed;
    if (balanced_opt->gap.optimal) {
      ASSERT_TRUE(balanced->gap.optimal) << "seed " << seed;
      EXPECT_NEAR(balanced->BalancedCost(), balanced_opt->BalancedCost(),
                  1e-9)
          << "seed " << seed;
    }
  }
}

TEST(IlpSolverTest, TrapChainCertifiesOptimumGreedyCannotReach) {
  const size_t kGadgets = 16;
  Result<GeneratedVse> generated = MakeTrapChain(kGadgets);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const VseInstance& instance = *generated->instance;

  GreedySolver greedy;
  Result<VseSolution> trapped = greedy.Solve(instance);
  ASSERT_TRUE(trapped.ok());
  EXPECT_NEAR(trapped->Cost(), 1.1 * kGadgets, 1e-9);

  IlpSolver ilp;
  Result<VseSolution> solution = ilp.Solve(instance);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_TRUE(solution->Feasible());
  EXPECT_TRUE(solution->gap.optimal);
  EXPECT_NEAR(solution->Cost(), 1.0 * kGadgets, 1e-9);
  EXPECT_DOUBLE_EQ(solution->gap.RelativeGap(), 0.0);
  // Decomposition makes the search linear in the chain length: a handful of
  // nodes per gadget instead of one exponential tree.
  EXPECT_LE(solution->gap.nodes, 16 * kGadgets);
}

TEST(IlpSolverTest, TrapChainBalancedMatchesExact) {
  Result<GeneratedVse> generated = MakeTrapChain(3);
  ASSERT_TRUE(generated.ok());
  const VseInstance& instance = *generated->instance;
  ExactBalancedSolver exact;
  Result<VseSolution> optimal = exact.Solve(instance);
  ASSERT_TRUE(optimal.ok());
  ASSERT_TRUE(optimal->gap.optimal);
  IlpSolver ilp(Objective::kBalanced);
  Result<VseSolution> solution = ilp.Solve(instance);
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(solution->gap.optimal);
  EXPECT_NEAR(solution->BalancedCost(), optimal->BalancedCost(), 1e-9);
  // Per gadget: deleting U pays damage 1.0 against 2.0 of surviving ΔV.
  EXPECT_NEAR(solution->BalancedCost(), 3.0, 1e-9);
}

TEST(IlpSolverTest, NodeCountsAndSolutionsAreDeterministic) {
  Result<GeneratedVse> generated = MakeTrapChain(8);
  ASSERT_TRUE(generated.ok());
  const VseInstance& instance = *generated->instance;
  ScratchPool pool;
  IlpSolver first;
  Result<VseSolution> a = first.SolveWith(instance, &pool);
  IlpSolver second;
  Result<VseSolution> b = second.SolveWith(instance, &pool);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->gap.nodes, b->gap.nodes);
  EXPECT_DOUBLE_EQ(a->Cost(), b->Cost());
  EXPECT_EQ(a->deletion.Sorted(), b->deletion.Sorted());
  // And a third run through the pooled-scratch path on a random instance.
  Rng rng(7);
  RandomWorkloadParams params;
  Result<GeneratedVse> random = GenerateRandomWorkload(rng, params);
  ASSERT_TRUE(random.ok());
  IlpSolver third;
  Result<VseSolution> c = third.SolveWith(*random->instance, &pool);
  IlpSolver fourth;
  Result<VseSolution> d = fourth.SolveWith(*random->instance, &pool);
  ASSERT_EQ(c.ok(), d.ok());
  if (c.ok()) {
    EXPECT_EQ(c->gap.nodes, d->gap.nodes);
    EXPECT_EQ(c->deletion.Sorted(), d->deletion.Sorted());
  }
}

TEST(IlpSolverTest, ExhaustedBudgetReturnsWarmStartWithValidBound) {
  const size_t kGadgets = 10;
  Result<GeneratedVse> generated = MakeTrapChain(kGadgets);
  ASSERT_TRUE(generated.ok());
  IlpOptions options;
  options.node_budget = 0;  // abort at the very first search node
  IlpSolver ilp(Objective::kStandard, options);
  Result<VseSolution> solution = ilp.Solve(*generated->instance);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_TRUE(solution->Feasible());
  EXPECT_TRUE(solution->gap.has_bound);
  EXPECT_FALSE(solution->gap.optimal);
  EXPECT_TRUE(solution->gap.budget_hit);
  // The incumbent is the greedy warm start (1.1 per gadget); the certified
  // lower bound is the root packing bound (0.4 per gadget).
  EXPECT_NEAR(solution->Cost(), 1.1 * kGadgets, 1e-9);
  EXPECT_DOUBLE_EQ(solution->gap.upper_bound, solution->Cost());
  EXPECT_NEAR(solution->gap.lower_bound, 0.4 * kGadgets, 1e-9);
  EXPECT_GT(solution->gap.RelativeGap(), 0.0);
}

TEST(IlpSolverTest, ZeroDeadlineReturnsFeasibleBestSoFar) {
  Result<GeneratedVse> generated = MakeTrapChain(6);
  ASSERT_TRUE(generated.ok());
  IlpOptions options;
  options.deadline_ms = 0.0;  // expires before the first search node
  IlpSolver ilp(Objective::kStandard, options);
  Result<VseSolution> solution = ilp.Solve(*generated->instance);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_TRUE(solution->Feasible());
  EXPECT_TRUE(solution->gap.has_bound);
  EXPECT_FALSE(solution->gap.optimal);
  EXPECT_TRUE(solution->gap.deadline_hit);
  EXPECT_LE(solution->gap.lower_bound, solution->gap.upper_bound);
  EXPECT_GE(solution->gap.lower_bound, 0.0);
  EXPECT_DOUBLE_EQ(solution->gap.upper_bound, solution->Cost());
}

// --- CoveringModel ----------------------------------------------------------

// A decomposition as plain lists, for comparison.
struct Decomposition {
  std::vector<std::vector<uint32_t>> bases;
  std::vector<std::vector<uint32_t>> tuples;
  std::vector<double> delta_weight;
  bool standard_infeasible = false;
  double orphan_delta_weight = 0.0;

  bool operator==(const Decomposition&) const = default;
};

void PrintTo(const Decomposition& d, std::ostream* out) {
  for (size_t c = 0; c < d.bases.size(); ++c) {
    *out << "\n  component " << c << ": bases";
    for (uint32_t b : d.bases[c]) *out << " " << b;
    *out << "; ΔV";
    for (uint32_t t : d.tuples[c]) *out << " " << t;
    *out << "; weight " << d.delta_weight[c];
  }
  *out << "\n  infeasible " << d.standard_infeasible << ", orphan weight "
       << d.orphan_delta_weight;
}

Decomposition Read(const CoveringModel& model) {
  Decomposition d;
  for (uint32_t c = 0; c < model.component_count(); ++c) {
    d.bases.emplace_back(model.comp_bases_begin(c), model.comp_bases_end(c));
    d.tuples.emplace_back(model.comp_tuples_begin(c),
                          model.comp_tuples_end(c));
    d.delta_weight.push_back(model.comp_delta_weight(c));
  }
  d.standard_infeasible = model.standard_infeasible();
  d.orphan_delta_weight = model.orphan_delta_weight();
  return d;
}

// The reference decomposition: a scan over every view tuple. A ΔV tuple
// joins all its witness members; a preserved tuple joins its candidate
// members when every witness holds one. Components are numbered by first
// appearance over ascending candidates.
Decomposition FullScanDecomposition(const CompiledInstance& plan) {
  constexpr uint32_t kNpos = CompiledInstance::kNpos;
  std::vector<uint32_t> parent(plan.base_count(), kNpos);
  for (uint32_t b : plan.candidate_bases()) parent[b] = b;
  auto find = [&](uint32_t b) {
    while (parent[b] != b) b = parent[b];
    return b;
  };
  Decomposition d;
  for (uint32_t t = 0; t < plan.tuple_count(); ++t) {
    const bool delta = plan.is_deletion(t);
    bool killable = true;
    std::vector<uint32_t> members;
    for (uint32_t w = plan.tuple_witness_begin(t);
         w < plan.tuple_witness_end(t); ++w) {
      if (delta && plan.member_begin(w) == plan.member_end(w)) {
        d.standard_infeasible = true;
      }
      bool has_candidate = false;
      for (uint32_t slot = plan.member_begin(w); slot < plan.member_end(w);
           ++slot) {
        uint32_t b = plan.member_base(slot);
        if (parent[b] == kNpos) continue;
        has_candidate = true;
        members.push_back(b);
      }
      killable = killable && has_candidate;
    }
    if (!delta && !killable) continue;
    for (uint32_t b : members) {
      uint32_t ra = find(members[0]);
      uint32_t rb = find(b);
      if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
    }
  }
  std::vector<uint32_t> comp_of_root(plan.base_count(), kNpos);
  for (uint32_t b : plan.candidate_bases()) {
    uint32_t root = find(b);
    if (comp_of_root[root] == kNpos) {
      comp_of_root[root] = static_cast<uint32_t>(d.bases.size());
      d.bases.emplace_back();
      d.tuples.emplace_back();
      d.delta_weight.push_back(0.0);
    }
    d.bases[comp_of_root[root]].push_back(b);
  }
  for (uint32_t t : plan.deletion_dense()) {
    uint32_t c = kNpos;
    for (uint32_t w = plan.tuple_witness_begin(t);
         c == kNpos && w < plan.tuple_witness_end(t); ++w) {
      if (plan.member_begin(w) < plan.member_end(w)) {
        c = comp_of_root[find(plan.member_base(plan.member_begin(w)))];
      }
    }
    if (c == kNpos) {
      d.orphan_delta_weight += plan.weight(t);
      continue;
    }
    d.tuples[c].push_back(t);
    d.delta_weight[c] += plan.weight(t);
  }
  return d;
}

std::vector<ViewTupleId> AllViewTupleIds(const VseInstance& instance) {
  std::vector<ViewTupleId> ids;
  for (size_t v = 0; v < instance.view_count(); ++v) {
    for (size_t t = 0; t < instance.view(v).size(); ++t) {
      ids.push_back(ViewTupleId{v, t});
    }
  }
  return ids;
}

GeneratedVse PathForest(size_t levels, size_t roots, size_t fanout) {
  Rng rng(levels * 100 + roots);
  PathSchemaParams params;
  params.levels = levels;
  params.roots = roots;
  params.fanout = fanout;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  return std::move(*generated);
}

// One model decomposes a seeded sequence of plans of different sizes and
// shapes, with ΔV of 0, 1 and many tuples. Its per-base arrays and visit
// stamps carry over from call to call, so a stale entry would show up as a
// difference from a fresh model or from the full scan.
TEST(CoveringModelTest, ReusedModelMatchesFreshAndFullScan) {
  std::vector<GeneratedVse> subjects;
  subjects.push_back(PathForest(4, 2, 2));
  subjects.push_back(PathForest(5, 2, 3));
  subjects.push_back(PathForest(6, 3, 3));
  Rng star_rng(3);
  Result<GeneratedVse> star = GenerateStarSchema(star_rng, {});
  ASSERT_TRUE(star.ok());
  subjects.push_back(std::move(*star));
  Result<GeneratedVse> fig1 = BuildFig1Example();  // Q3 has two witnesses
  ASSERT_TRUE(fig1.ok());
  subjects.push_back(std::move(*fig1));
  // Dense author/journal lineage: many multi-witness Q3 tuples, some of
  // them unkillable because one witness holds no candidate.
  Rng journal_rng(4);
  AuthorJournalParams journal_params;
  journal_params.write_probability = 0.6;
  journal_params.cover_probability = 0.7;
  Result<GeneratedVse> journal =
      GenerateAuthorJournal(journal_rng, journal_params);
  ASSERT_TRUE(journal.ok());
  subjects.push_back(std::move(*journal));

  CoveringModel reused;
  Rng rng(11);
  size_t nonempty_components = 0;
  for (int step = 0; step < 300; ++step) {
    VseInstance& instance = *subjects[rng.NextBelow(subjects.size())].instance;
    std::vector<ViewTupleId> all = AllViewTupleIds(instance);
    size_t size = 0;
    switch (rng.NextBelow(3)) {
      case 0:
        break;
      case 1:
        size = 1;
        break;
      default:
        size = std::min(all.size(), 2 + rng.NextBelow(all.size() / 8 + 1));
        break;
    }
    std::vector<ViewTupleId> delta_v;
    for (size_t index : rng.SampleIndices(all.size(), size)) {
      delta_v.push_back(all[index]);
    }
    ASSERT_TRUE(instance.ResetDeletions(delta_v).ok());
    std::shared_ptr<const CompiledInstance> plan = instance.compiled();
    reused.Decompose(*plan);
    CoveringModel fresh;
    fresh.Decompose(*plan);
    SCOPED_TRACE("step " + std::to_string(step));
    EXPECT_EQ(Read(reused), Read(fresh));
    EXPECT_EQ(Read(reused), FullScanDecomposition(*plan));
    EXPECT_EQ(reused.tuples_visited(), fresh.tuples_visited());
    EXPECT_LE(reused.tuples_visited(), plan->tuple_count());
    nonempty_components += reused.component_count() > 0;
  }
  EXPECT_GT(nonempty_components, 100u);
}

// The complexity contract of a point request. On a 1x and a 4x path forest
// (6 levels, fanout 3, 3 vs 12 roots: ‖V‖ 3,645 vs 14,580) the view tuples
// that leaf row 0 kills have the same neighbourhood, so Decompose visits
// the same number of view tuples and the RBSC image has the same shape.
struct PointRequestWork {
  size_t view_tuples = 0;
  uint64_t tuples_visited = 0;
  std::vector<std::pair<uint32_t, size_t>> component_shapes;
  size_t red_count = 0;
  std::vector<std::pair<size_t, size_t>> set_shapes;  // (reds, blues)
};

PointRequestWork LeafPointRequest(size_t roots) {
  PointRequestWork work;
  GeneratedVse generated = PathForest(6, roots, 3);
  VseInstance& instance = *generated.instance;
  work.view_tuples = instance.TotalViewTuples();
  const TupleRef leaf{5, 0};  // row 0 of L5, the leaf level
  EXPECT_TRUE(instance.ResetDeletions(instance.KilledBy(leaf)).ok());
  CoveringModel model;
  model.Decompose(*instance.compiled());
  work.tuples_visited = model.tuples_visited();
  for (uint32_t c = 0; c < model.component_count(); ++c) {
    work.component_shapes.emplace_back(
        model.comp_base_count(c),
        model.comp_tuples_end(c) - model.comp_tuples_begin(c));
  }
  Result<VseToRbscMapping> mapping = ReduceVseToRbsc(instance);
  EXPECT_TRUE(mapping.ok()) << mapping.status().ToString();
  if (mapping.ok()) {
    work.red_count = mapping->rbsc.red_count;
    for (const RbscInstance::Set& set : mapping->rbsc.sets) {
      work.set_shapes.emplace_back(set.reds.size(), set.blues.size());
    }
  }
  return work;
}

TEST(CoveringModelTest, PointRequestWorkDoesNotGrowWithTheInstance) {
  PointRequestWork small = LeafPointRequest(3);
  PointRequestWork large = LeafPointRequest(12);
  EXPECT_EQ(small.view_tuples, 3645u);
  EXPECT_EQ(large.view_tuples, 14580u);
  EXPECT_EQ(small.tuples_visited, large.tuples_visited);
  EXPECT_LT(small.tuples_visited, small.view_tuples / 4);
  ASSERT_FALSE(small.component_shapes.empty());
  EXPECT_EQ(small.component_shapes, large.component_shapes);
  EXPECT_EQ(small.red_count, large.red_count);
  EXPECT_EQ(small.set_shapes, large.set_shapes);
}

}  // namespace
}  // namespace delprop
