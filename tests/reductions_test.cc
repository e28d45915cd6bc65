#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dp/side_effect.h"
#include "plan/compiled_instance.h"
#include "reductions/balanced_to_pnpsc.h"
#include "reductions/pnpsc_to_balanced.h"
#include "reductions/rbsc_to_vse.h"
#include "reductions/vse_to_rbsc.h"
#include "setcover/red_blue_solvers.h"
#include "workload/path_schema.h"
#include "workload/random_rbsc.h"
#include "workload/random_workload.h"
#include "workload/star_schema.h"

namespace delprop {
namespace {

// ---------- Theorem 1 direction: RBSC -> VSE ----------

RbscInstance Fig2Instance() {
  // Fig. 2: one red r1, three blues; C1={r1,b1}, C2={r1,b2}, C3={r1,b3}.
  RbscInstance instance;
  instance.red_count = 1;
  instance.blue_count = 3;
  instance.sets = {{{0}, {0}}, {{0}, {1}}, {{0}, {2}}};
  return instance;
}

TEST(RbscToVseTest, Fig2ShapeMatchesPaper) {
  Result<GeneratedVse> generated = ReduceRbscToVse(Fig2Instance());
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const VseInstance& instance = *generated->instance;
  // One view per element: Vr1, Vb1, Vb2, Vb3, each with one tuple.
  EXPECT_EQ(instance.view_count(), 4u);
  for (size_t v = 0; v < instance.view_count(); ++v) {
    EXPECT_EQ(instance.view(v).size(), 1u);
  }
  EXPECT_EQ(instance.TotalDeletionTuples(), 3u) << "the three blue views";
  EXPECT_TRUE(instance.all_key_preserving());
  EXPECT_TRUE(instance.all_unique_witness());
  // The red view joins all three set rows (the "join path").
  EXPECT_EQ(instance.view(0).tuple(0).witnesses[0].size(), 3u);
  // The generated table has one row per set.
  EXPECT_EQ(generated->database->total_tuple_count(), 3u);
}

TEST(RbscToVseTest, Fig2CostEquivalence) {
  RbscInstance rbsc = Fig2Instance();
  Result<GeneratedVse> generated = ReduceRbscToVse(rbsc);
  ASSERT_TRUE(generated.ok());
  const VseInstance& instance = *generated->instance;
  // Deleting all three rows covers all blues and the single red: the red
  // view loses its tuple → side-effect 1 (the RBSC cost of {C1,C2,C3}).
  DeletionSet all;
  for (const TupleRef& ref : generated->set_rows) all.Insert(ref);
  SideEffectReport report = EvaluateDeletion(instance, all);
  EXPECT_TRUE(report.eliminates_all_deletions);
  EXPECT_EQ(report.side_effect_count, 1u);
  RbscSolution mapped = MapDeletionToRbscChoice(*generated, all);
  EXPECT_EQ(mapped.chosen.size(), 3u);
  EXPECT_DOUBLE_EQ(RbscCost(rbsc, mapped), 1.0);
}

TEST(RbscToVseTest, RandomCostEquivalence) {
  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    RandomRbscParams params;
    params.red_count = 5;
    params.blue_count = 4;
    params.set_count = 6;
    RbscInstance rbsc = GenerateRandomRbsc(rng, params);
    Result<GeneratedVse> generated = ReduceRbscToVse(rbsc);
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    const VseInstance& instance = *generated->instance;
    // For every subset choice made by a solver on the RBSC side, the mapped
    // deletion has side-effect weight == RBSC cost. Spot-check with greedy.
    Result<RbscSolution> greedy = SolveRbscGreedy(rbsc);
    ASSERT_TRUE(greedy.ok());
    DeletionSet deletion;
    for (size_t s : greedy->chosen) {
      deletion.Insert(generated->set_rows[s]);
    }
    SideEffectReport report = EvaluateDeletion(instance, deletion);
    EXPECT_TRUE(report.eliminates_all_deletions);
    // Red views may be filtered if a red occurs in no set; the reduction
    // keeps covered-cost equality for occurring reds, which is what RbscCost
    // measures.
    EXPECT_DOUBLE_EQ(report.side_effect_weight, RbscCost(rbsc, *greedy))
        << "trial " << trial;
  }
}

// ---------- Claim 1 direction: VSE -> RBSC ----------

TEST(VseToRbscTest, RoundTripThroughBothReductions) {
  // Lift an RBSC instance to VSE, reduce back, and check the RBSC image is
  // cost-equivalent via exact solvers.
  RbscInstance original = Fig2Instance();
  Result<GeneratedVse> generated = ReduceRbscToVse(original);
  ASSERT_TRUE(generated.ok());
  Result<VseToRbscMapping> mapping = ReduceVseToRbsc(*generated->instance);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  Result<RbscSolution> image_exact = SolveRbscExact(mapping->rbsc);
  Result<RbscSolution> original_exact = SolveRbscExact(original);
  ASSERT_TRUE(image_exact.ok());
  ASSERT_TRUE(original_exact.ok());
  EXPECT_DOUBLE_EQ(RbscCost(mapping->rbsc, *image_exact),
                   RbscCost(original, *original_exact));
}

TEST(VseToRbscTest, MappedSolutionFeasibleAndCostExact) {
  Rng rng(42);
  for (int trial = 0; trial < 15; ++trial) {
    RandomWorkloadParams params;
    params.relations = 2;
    params.rows_per_relation = 8;
    params.queries = 2;
    Result<GeneratedVse> generated = GenerateRandomWorkload(rng, params);
    ASSERT_TRUE(generated.ok());
    const VseInstance& instance = *generated->instance;
    if (!instance.all_unique_witness()) continue;
    Result<VseToRbscMapping> mapping = ReduceVseToRbsc(instance);
    ASSERT_TRUE(mapping.ok());
    Result<RbscSolution> solved = SolveRbscExact(mapping->rbsc);
    if (!solved.ok()) continue;
    DeletionSet deletion = MapRbscChoiceToDeletion(*mapping, *solved);
    SideEffectReport report = EvaluateDeletion(instance, deletion);
    EXPECT_TRUE(report.eliminates_all_deletions) << "trial " << trial;
    EXPECT_DOUBLE_EQ(report.side_effect_weight,
                     RbscCost(mapping->rbsc, *solved))
        << "trial " << trial;
  }
}

// An instance over `subject`'s database and queries with no ΔV marked.
Result<VseInstance> Unmarked(const GeneratedVse& subject) {
  std::vector<const ConjunctiveQuery*> qs;
  for (const auto& q : subject.queries) qs.push_back(q.get());
  return VseInstance::Create(*subject.database, qs);
}

TEST(VseToRbscTest, RequiresMarkedDeletions) {
  Rng rng(43);
  RandomWorkloadParams params;
  params.deletion_fraction = 0.0;
  Result<GeneratedVse> generated = GenerateRandomWorkload(rng, params);
  ASSERT_TRUE(generated.ok());
  // The generator force-marks one deletion; build a fresh instance with none.
  Result<VseInstance> fresh = Unmarked(*generated);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(ReduceVseToRbsc(*fresh).status().code(),
            StatusCode::kFailedPrecondition);
}

// Instances of different tuple counts for the reused-scratch tests: path
// forests at three sizes, a star schema and a random workload. Each keeps
// the ΔV its generator marked.
std::vector<GeneratedVse> ScratchSubjects() {
  std::vector<GeneratedVse> subjects;
  for (size_t roots : {1, 2, 4}) {
    Rng rng(roots);
    PathSchemaParams params;
    params.levels = 4;
    params.roots = roots;
    params.fanout = 3;
    params.deletion_fraction = 0.1;
    Result<GeneratedVse> forest = GeneratePathSchema(rng, params);
    EXPECT_TRUE(forest.ok());
    subjects.push_back(std::move(*forest));
  }
  Rng star_rng(5);
  Result<GeneratedVse> star = GenerateStarSchema(star_rng, {});
  EXPECT_TRUE(star.ok());
  subjects.push_back(std::move(*star));
  Rng random_rng(6);
  Result<GeneratedVse> random = GenerateRandomWorkload(random_rng, {});
  EXPECT_TRUE(random.ok());
  subjects.push_back(std::move(*random));
  return subjects;
}

bool AllNpos(const std::vector<uint32_t>& scratch) {
  return std::all_of(scratch.begin(), scratch.end(), [](uint32_t id) {
    return id == CompiledInstance::kNpos;
  });
}

void ExpectSameRbscMapping(const VseToRbscMapping& a,
                           const VseToRbscMapping& b) {
  EXPECT_EQ(a.rbsc.red_count, b.rbsc.red_count);
  EXPECT_EQ(a.rbsc.blue_count, b.rbsc.blue_count);
  EXPECT_EQ(a.rbsc.red_weights, b.rbsc.red_weights);
  ASSERT_EQ(a.rbsc.sets.size(), b.rbsc.sets.size());
  for (size_t s = 0; s < a.rbsc.sets.size(); ++s) {
    EXPECT_EQ(a.rbsc.sets[s].reds, b.rbsc.sets[s].reds) << "set " << s;
    EXPECT_EQ(a.rbsc.sets[s].blues, b.rbsc.sets[s].blues) << "set " << s;
  }
  EXPECT_EQ(a.set_tuples, b.set_tuples);
  EXPECT_EQ(a.red_tuples, b.red_tuples);
  EXPECT_EQ(a.blue_tuples, b.blue_tuples);
}

// One red-id array serves reductions of instances with different tuple
// counts, and a call that fails on an empty ΔV, in a seeded order; every
// mapping equals a fresh reduction's, and the array is all kNpos after each
// call.
TEST(VseToRbscTest, ReusedScratchMatchesFreshReduction) {
  std::vector<GeneratedVse> subjects = ScratchSubjects();
  std::vector<uint32_t> scratch;
  Rng rng(47);
  size_t reduced = 0;
  for (int step = 0; step < 40; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const GeneratedVse& subject = subjects[rng.NextBelow(subjects.size())];
    if (rng.NextBelow(5) == 0) {
      Result<VseInstance> unmarked = Unmarked(subject);
      ASSERT_TRUE(unmarked.ok());
      EXPECT_EQ(ReduceVseToRbsc(*unmarked, scratch).status().code(),
                StatusCode::kFailedPrecondition);
      EXPECT_TRUE(AllNpos(scratch));
      continue;
    }
    Result<VseToRbscMapping> reused =
        ReduceVseToRbsc(*subject.instance, scratch);
    Result<VseToRbscMapping> fresh = ReduceVseToRbsc(*subject.instance);
    ASSERT_TRUE(reused.ok()) << reused.status().ToString();
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    ExpectSameRbscMapping(*reused, *fresh);
    EXPECT_EQ(scratch.size(), subject.instance->compiled()->tuple_count());
    EXPECT_TRUE(AllNpos(scratch));
    ++reduced;
  }
  EXPECT_GT(reduced, 20u);
}

// ---------- Theorem 2 / Lemma 1 directions: ±PSC <-> balanced ----------

TEST(PnpscToBalancedTest, CostEquivalenceOnSmallInstance) {
  PnpscInstance pnpsc;
  pnpsc.positive_count = 2;
  pnpsc.negative_count = 2;
  pnpsc.sets = {{{0, 1}, {0}}, {{0}, {1}}, {{1}, {}}};
  Result<GeneratedVse> generated = ReducePnpscToBalancedVse(pnpsc);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const VseInstance& instance = *generated->instance;

  Result<PnpscSolution> exact = SolvePnpscExact(pnpsc);
  ASSERT_TRUE(exact.ok());
  DeletionSet deletion;
  for (size_t s : exact->chosen) deletion.Insert(generated->set_rows[s]);
  SideEffectReport report = EvaluateDeletion(instance, deletion);
  EXPECT_DOUBLE_EQ(report.balanced_cost, PnpscCost(pnpsc, *exact));

  PnpscSolution mapped = MapDeletionToPnpscChoice(*generated, deletion);
  EXPECT_DOUBLE_EQ(PnpscCost(pnpsc, mapped), PnpscCost(pnpsc, *exact));
}

TEST(PnpscToBalancedTest, RandomBalancedCostEquivalence) {
  Rng rng(44);
  for (int trial = 0; trial < 10; ++trial) {
    RandomPnpscParams params;
    params.positive_count = 3;
    params.negative_count = 4;
    params.set_count = 5;
    PnpscInstance pnpsc = GenerateRandomPnpsc(rng, params);
    // Skip instances with uncoverable positives: they shift the generated
    // instance's objective by a constant (documented in the reduction).
    std::vector<bool> coverable(params.positive_count, false);
    for (const auto& set : pnpsc.sets) {
      for (size_t p : set.positives) coverable[p] = true;
    }
    bool all_coverable = true;
    for (bool c : coverable) all_coverable &= c;
    if (!all_coverable) continue;

    Result<GeneratedVse> generated = ReducePnpscToBalancedVse(pnpsc);
    ASSERT_TRUE(generated.ok());
    // Random subset choices map with equal balanced cost.
    PnpscSolution choice;
    for (size_t s = 0; s < pnpsc.sets.size(); ++s) {
      if (rng.NextBool(0.5)) choice.chosen.push_back(s);
    }
    DeletionSet deletion;
    for (size_t s : choice.chosen) deletion.Insert(generated->set_rows[s]);
    SideEffectReport report =
        EvaluateDeletion(*generated->instance, deletion);
    EXPECT_DOUBLE_EQ(report.balanced_cost, PnpscCost(pnpsc, choice))
        << "trial " << trial;
  }
}

TEST(BalancedToPnpscTest, ImageCostMatchesBalancedCost) {
  Rng rng(45);
  for (int trial = 0; trial < 15; ++trial) {
    RandomWorkloadParams params;
    params.relations = 2;
    params.rows_per_relation = 8;
    params.queries = 2;
    Result<GeneratedVse> generated = GenerateRandomWorkload(rng, params);
    ASSERT_TRUE(generated.ok());
    const VseInstance& instance = *generated->instance;
    if (!instance.all_unique_witness()) continue;
    if (instance.TotalDeletionTuples() == 0) continue;  // empty workload
    Result<BalancedToPnpscMapping> mapping = ReduceBalancedToPnpsc(instance);
    ASSERT_TRUE(mapping.ok());
    // Any subset of the candidate sets maps to a deletion whose balanced
    // cost equals the ±PSC cost of the subset.
    PnpscSolution choice;
    for (size_t s = 0; s < mapping->pnpsc.sets.size(); ++s) {
      if (rng.NextBool(0.4)) choice.chosen.push_back(s);
    }
    DeletionSet deletion = MapPnpscChoiceToDeletion(*mapping, choice);
    SideEffectReport report = EvaluateDeletion(instance, deletion);
    EXPECT_DOUBLE_EQ(report.balanced_cost, PnpscCost(mapping->pnpsc, choice))
        << "trial " << trial;
  }
}

// The ±PSC reduction's negative-id array under the same reuse as
// VseToRbscTest.ReusedScratchMatchesFreshReduction.
TEST(BalancedToPnpscTest, ReusedScratchMatchesFreshReduction) {
  std::vector<GeneratedVse> subjects = ScratchSubjects();
  std::vector<uint32_t> scratch;
  Rng rng(48);
  size_t reduced = 0;
  for (int step = 0; step < 40; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const GeneratedVse& subject = subjects[rng.NextBelow(subjects.size())];
    if (rng.NextBelow(5) == 0) {
      Result<VseInstance> unmarked = Unmarked(subject);
      ASSERT_TRUE(unmarked.ok());
      EXPECT_EQ(ReduceBalancedToPnpsc(*unmarked, scratch).status().code(),
                StatusCode::kFailedPrecondition);
      EXPECT_TRUE(AllNpos(scratch));
      continue;
    }
    Result<BalancedToPnpscMapping> reused =
        ReduceBalancedToPnpsc(*subject.instance, scratch);
    Result<BalancedToPnpscMapping> fresh =
        ReduceBalancedToPnpsc(*subject.instance);
    ASSERT_TRUE(reused.ok()) << reused.status().ToString();
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    const PnpscInstance& a = reused->pnpsc;
    const PnpscInstance& b = fresh->pnpsc;
    EXPECT_EQ(a.positive_count, b.positive_count);
    EXPECT_EQ(a.negative_count, b.negative_count);
    EXPECT_EQ(a.positive_weights, b.positive_weights);
    EXPECT_EQ(a.negative_weights, b.negative_weights);
    ASSERT_EQ(a.sets.size(), b.sets.size());
    for (size_t s = 0; s < a.sets.size(); ++s) {
      EXPECT_EQ(a.sets[s].positives, b.sets[s].positives) << "set " << s;
      EXPECT_EQ(a.sets[s].negatives, b.sets[s].negatives) << "set " << s;
    }
    EXPECT_EQ(reused->set_tuples, fresh->set_tuples);
    EXPECT_EQ(reused->positive_tuples, fresh->positive_tuples);
    EXPECT_EQ(reused->negative_tuples, fresh->negative_tuples);
    EXPECT_EQ(scratch.size(), subject.instance->compiled()->tuple_count());
    EXPECT_TRUE(AllNpos(scratch));
    ++reduced;
  }
  EXPECT_GT(reduced, 20u);
}

}  // namespace
}  // namespace delprop
