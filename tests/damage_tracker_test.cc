#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dp/side_effect.h"
#include "plan/compiled_instance.h"
#include "query/parser.h"
#include "relational/database.h"
#include "relational/tuple_ref.h"
#include "solvers/damage_tracker.h"
#include "workload/author_journal.h"
#include "workload/random_workload.h"

namespace delprop {
namespace {

class TrackerFig1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<GeneratedVse> generated = BuildFig1Example();
    ASSERT_TRUE(generated.ok());
    generated_ = std::move(*generated);
    ASSERT_TRUE(generated_.instance
                    ->MarkForDeletionByValues(0, {"John", "XML"})
                    .ok());
  }
  TupleRef Row(const char* rel, uint32_t row) {
    RelationId id = *generated_.database->schema().FindRelation(rel);
    return TupleRef{id, row};
  }
  GeneratedVse generated_;
};

TEST_F(TrackerFig1Test, InitialStateMatchesInstance) {
  DamageTracker tracker(*generated_.instance);
  EXPECT_EQ(tracker.unkilled_deletion_count(), 1u);
  EXPECT_DOUBLE_EQ(tracker.killed_preserved_weight(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.surviving_deletion_weight(), 1.0);
  EXPECT_EQ(tracker.deleted_count(), 0u);
}

TEST_F(TrackerFig1Test, MultiWitnessKillNeedsBothWitnessesHit) {
  DamageTracker tracker(*generated_.instance);
  // (John, XML) has witnesses via TKDE and TODS; hitting one is not enough.
  tracker.Delete(Row("T1", 1));  // (John, TKDE)
  EXPECT_EQ(tracker.unkilled_deletion_count(), 1u);
  tracker.Delete(Row("T1", 3));  // (John, TODS)
  EXPECT_EQ(tracker.unkilled_deletion_count(), 0u);
}

TEST_F(TrackerFig1Test, DeleteReturnsMarginalAndUndeleteRestores) {
  DamageTracker tracker(*generated_.instance);
  double marginal = tracker.MarginalDamage(Row("T1", 1));
  double killed = tracker.Delete(Row("T1", 1));
  EXPECT_DOUBLE_EQ(marginal, killed);
  // (John,TKDE) kills Q3(John,CUBE) (single witness) + Q4(John,TKDE,XML) +
  // Q4(John,TKDE,CUBE); Q3(John,XML) is a ΔV tuple and not counted.
  EXPECT_DOUBLE_EQ(killed, 3.0);
  tracker.Undelete(Row("T1", 1));
  EXPECT_DOUBLE_EQ(tracker.killed_preserved_weight(), 0.0);
  EXPECT_EQ(tracker.unkilled_deletion_count(), 1u);
  EXPECT_FALSE(tracker.IsDeleted(Row("T1", 1)));
}

TEST_F(TrackerFig1Test, MarginalDamageAccountsForPriorDeletions) {
  DamageTracker tracker(*generated_.instance);
  tracker.Delete(Row("T1", 1));
  // After (John, TKDE), deleting (TKDE, XML, 30) no longer re-kills the
  // John tuples but still kills Joe/Tom XML rows in Q3 and Q4.
  double marginal = tracker.MarginalDamage(Row("T2", 0));
  EXPECT_DOUBLE_EQ(marginal, 4.0);  // Q3(Joe,XML), Q3(Tom,XML) + 2 Q4 rows.
}

TEST_F(TrackerFig1Test, CurrentDeletionRoundTrips) {
  DamageTracker tracker(*generated_.instance);
  tracker.Delete(Row("T1", 1));
  tracker.Delete(Row("T2", 2));
  DeletionSet set = tracker.CurrentDeletion();
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Contains(Row("T1", 1)));
  EXPECT_TRUE(set.Contains(Row("T2", 2)));
}

TEST_F(TrackerFig1Test, UnknownTupleIsHarmless) {
  DamageTracker tracker(*generated_.instance);
  // A base tuple in no witness: zero damage, state unchanged.
  EXPECT_DOUBLE_EQ(tracker.MarginalDamage(TupleRef{0, 77}), 0.0);
  EXPECT_DOUBLE_EQ(tracker.Delete(TupleRef{0, 77}), 0.0);
  EXPECT_EQ(tracker.unkilled_deletion_count(), 1u);
  tracker.Undelete(TupleRef{0, 77});
}

// Property: tracker accounting must agree with EvaluateDeletion for random
// deletion sets applied in random order with interleaved undeletes.
TEST(TrackerPropertyTest, AgreesWithSideEffectEvaluation) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    RandomWorkloadParams params;
    params.relations = 2;
    params.rows_per_relation = 8;
    params.queries = 3;
    Result<GeneratedVse> generated = GenerateRandomWorkload(rng, params);
    ASSERT_TRUE(generated.ok());
    const VseInstance& instance = *generated->instance;
    DamageTracker tracker(instance);

    std::vector<TupleRef> candidates = instance.CandidateTuples();
    if (candidates.empty()) continue;
    // Random walk: delete/undelete.
    for (int step = 0; step < 30; ++step) {
      const TupleRef& ref = candidates[rng.NextBelow(candidates.size())];
      if (tracker.IsDeleted(ref)) {
        tracker.Undelete(ref);
      } else {
        tracker.Delete(ref);
      }
      SideEffectReport report =
          EvaluateDeletion(instance, tracker.CurrentDeletion());
      EXPECT_DOUBLE_EQ(tracker.killed_preserved_weight(),
                       report.side_effect_weight)
          << "seed " << seed << " step " << step;
      EXPECT_EQ(tracker.unkilled_deletion_count(),
                report.surviving_deletions.size());
    }
  }
}

// Regression for the swap-and-pop Undelete rewrite: CurrentDeletion() must
// stay semantically identical (same set, any order) to a reference set under
// arbitrary interleavings, including undeletes from the middle of the
// deletion list (the swap case) and non-LIFO orders.
TEST(TrackerUndeleteRegressionTest, CurrentDeletionMatchesReferenceSet) {
  Result<GeneratedVse> generated = BuildFig1Example();
  ASSERT_TRUE(generated.ok());
  ASSERT_TRUE(generated->instance->MarkForDeletionByValues(0, {"John", "XML"})
                  .ok());
  const VseInstance& instance = *generated->instance;
  DamageTracker tracker(instance);
  std::vector<TupleRef> candidates = instance.CandidateTuples();
  ASSERT_GE(candidates.size(), 4u);

  std::unordered_set<TupleRef, TupleRefHash> reference;
  auto check = [&] {
    DeletionSet current = tracker.CurrentDeletion();
    ASSERT_EQ(current.size(), reference.size());
    for (const TupleRef& ref : reference) {
      EXPECT_TRUE(current.Contains(ref)) << "lost " << ref.relation << "/"
                                         << ref.row << " on undelete";
      EXPECT_TRUE(tracker.IsDeleted(ref));
    }
    EXPECT_EQ(tracker.deleted_count(), reference.size());
  };

  // Delete four, undelete the SECOND one deleted (middle of the internal
  // list — exercises the swap), then continue mutating.
  for (size_t i = 0; i < 4; ++i) {
    tracker.Delete(candidates[i]);
    reference.insert(candidates[i]);
  }
  check();
  tracker.Undelete(candidates[1]);
  reference.erase(candidates[1]);
  check();
  // Undelete the element that was swapped into the hole (was last).
  tracker.Undelete(candidates[3]);
  reference.erase(candidates[3]);
  check();
  // Re-delete and drain in FIFO order (worst case for the old linear find).
  tracker.Delete(candidates[1]);
  reference.insert(candidates[1]);
  check();
  for (const TupleRef& ref :
       {candidates[0], candidates[2], candidates[1]}) {
    tracker.Undelete(ref);
    reference.erase(ref);
    check();
  }
  EXPECT_EQ(tracker.deleted_count(), 0u);
  EXPECT_DOUBLE_EQ(tracker.killed_preserved_weight(), 0.0);
}

// ---------------------------------------------------------------------------
// One tuple with many witnesses. Q(x) :- R(x, y), S(y) over rows ("h", y_i) /
// ("p", y_i) / S(y_i) yields two view tuples with `n` witnesses of two
// members each; the S rows are shared between them, so deleting S damages
// the preserved tuple while killing the ΔV one.
// ---------------------------------------------------------------------------

struct FanInCase {
  std::unique_ptr<Database> db;
  std::unique_ptr<ConjunctiveQuery> query;
  std::unique_ptr<VseInstance> instance;
  std::vector<TupleRef> s_rows;
  std::vector<TupleRef> r_rows;
};

FanInCase BuildFanIn(uint32_t n) {
  FanInCase c;
  c.db = std::make_unique<Database>();
  EXPECT_TRUE(c.db->AddRelation("R", 2, {0, 1}).ok());
  EXPECT_TRUE(c.db->AddRelation("S", 1, {0}).ok());
  for (uint32_t i = 0; i < n; ++i) {
    std::string y = "y" + std::to_string(i);
    Result<TupleRef> r =
        c.db->InsertText(0, std::vector<std::string>{"h", y});
    EXPECT_TRUE(r.ok());
    c.r_rows.push_back(*r);
    EXPECT_TRUE(c.db->InsertText(0, std::vector<std::string>{"p", y}).ok());
    Result<TupleRef> s = c.db->InsertText(1, std::vector<std::string>{y});
    EXPECT_TRUE(s.ok());
    c.s_rows.push_back(*s);
  }
  Result<ConjunctiveQuery> q =
      ParseQuery("Q(x) :- R(x, y), S(y)", c.db->schema(), c.db->dict());
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  c.query = std::make_unique<ConjunctiveQuery>(std::move(*q));
  Result<VseInstance> instance =
      VseInstance::Create(*c.db, {c.query.get()});
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  c.instance = std::make_unique<VseInstance>(std::move(*instance));
  EXPECT_TRUE(c.instance->MarkForDeletionByValues(0, {"h"}).ok());
  return c;
}

void CheckFanIn(uint32_t n) {
  FanInCase c = BuildFanIn(n);
  DamageTracker tracker(*c.instance);
  const CompiledInstance& plan = tracker.plan();
  ASSERT_EQ(plan.tuple_count(), 2u);
  for (uint32_t d = 0; d < plan.tuple_count(); ++d) {
    ASSERT_EQ(plan.tuple_witness_count(d), n) << "tuple " << d;
  }
  auto agree = [&](const char* when) {
    SideEffectReport report =
        EvaluateDeletion(*c.instance, tracker.CurrentDeletion());
    ASSERT_EQ(tracker.killed_preserved_weight(), report.side_effect_weight)
        << when;
    ASSERT_EQ(tracker.unkilled_deletion_count(),
              report.surviving_deletions.size())
        << when;
  };
  agree("initial");
  EXPECT_EQ(tracker.unkilled_deletion_count(), 1u);

  // Kill via the shared S rows: the i-th delete hits witness i of both view
  // tuples; only the final one kills them, both in the same step.
  for (size_t i = 0; i < c.s_rows.size(); ++i) {
    double marginal = tracker.MarginalDamage(c.s_rows[i]);
    ASSERT_EQ(tracker.Delete(c.s_rows[i]), marginal) << "delete " << i;
    ASSERT_EQ(marginal, i + 1 == c.s_rows.size() ? 1.0 : 0.0)
        << "delete " << i;
  }
  agree("all S deleted");
  EXPECT_EQ(tracker.unkilled_deletion_count(), 0u);
  EXPECT_EQ(tracker.killed_preserved_weight(), 1.0);

  // All rows dead: every further marginal is zero, and no S row is
  // droppable (each is the sole deleted member of its witness pair).
  for (const TupleRef& r : c.r_rows) {
    ASSERT_EQ(tracker.MarginalDamage(r), 0.0);
  }
  for (const TupleRef& s : c.s_rows) {
    uint32_t base = plan.FindBase(s);
    ASSERT_NE(base, CompiledInstance::kNpos);
    EXPECT_FALSE(tracker.CanDropBase(base));
  }

  // Undelete the even rows, then re-delete them through the re-kill path.
  for (size_t i = 0; i < c.s_rows.size(); i += 2) {
    tracker.Undelete(c.s_rows[i]);
  }
  agree("half undeleted");
  EXPECT_EQ(tracker.unkilled_deletion_count(), 1u);
  for (size_t i = 0; i < c.s_rows.size(); i += 2) {
    tracker.Delete(c.s_rows[i]);
  }
  agree("re-deleted");

  tracker.Reset();
  agree("after reset");
  EXPECT_EQ(tracker.unkilled_deletion_count(), 1u);
  EXPECT_EQ(tracker.killed_preserved_weight(), 0.0);
}

// The suite and case names date from the packed kill kernels, whose one-word
// limit these widths straddled. The tracker has one representation now, so
// every width runs the same checks.
TEST(KernelFanInTest, Width63) { CheckFanIn(63); }
TEST(KernelFanInTest, Width64) { CheckFanIn(64); }
TEST(KernelFanInTest, Width65FallsBackToScalar) { CheckFanIn(65); }

// ---------------------------------------------------------------------------
// Single-member witnesses: Q(x) :- R(x, y) gives every witness exactly one
// member, so each delete is a direct witness kill.
// ---------------------------------------------------------------------------

TEST(TrackerSingleMemberTest, EachDeleteKillsExactlyOneWitness) {
  Database db;
  ASSERT_TRUE(db.AddRelation("R", 2, {0, 1}).ok());
  std::vector<TupleRef> rows;
  for (uint32_t i = 0; i < 64; ++i) {
    Result<TupleRef> r = db.InsertText(
        0, std::vector<std::string>{"h", "y" + std::to_string(i)});
    ASSERT_TRUE(r.ok());
    rows.push_back(*r);
  }
  Result<ConjunctiveQuery> q =
      ParseQuery("Q(x) :- R(x, y)", db.schema(), db.dict());
  ASSERT_TRUE(q.ok());
  Result<VseInstance> instance = VseInstance::Create(db, {&*q});
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(instance->MarkForDeletionByValues(0, {"h"}).ok());

  DamageTracker tracker(*instance);
  uint32_t dense = tracker.plan().deletion_dense()[0];
  for (uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(tracker.dead_witness_count(dense), i);
    EXPECT_FALSE(tracker.IsKilledDense(dense));
    tracker.Delete(rows[i]);
    for (uint32_t w = 0; w <= i; ++w) {
      EXPECT_EQ(tracker.witness_hits(tracker.plan().tuple_witness_begin(
                    dense) + w),
                1u);
    }
  }
  EXPECT_TRUE(tracker.IsKilledDense(dense));
  EXPECT_EQ(tracker.unkilled_deletion_count(), 0u);
  // Undeleting any single row revives the tuple (its witness comes back).
  tracker.Undelete(rows[17]);
  EXPECT_FALSE(tracker.IsKilledDense(dense));
  EXPECT_EQ(tracker.unkilled_deletion_count(), 1u);
  EXPECT_EQ(tracker.FirstUnhitWitness(dense),
            tracker.plan().tuple_witness_begin(dense) + 17);
}

// ---------------------------------------------------------------------------
// Regressions for the foreign-ref side list and the sparse reset.
// ---------------------------------------------------------------------------

TEST(TrackerRegressionTest, ForeignRefsStayBoundedAndExact) {
  FanInCase c = BuildFanIn(8);
  DamageTracker tracker(*c.instance);
  size_t interned = tracker.deleted_count();
  ASSERT_EQ(interned, 0u);
  // Rows far past the stored relation: never interned, tracked on the
  // sorted side list. Insert out of order to exercise the sorted insert.
  std::vector<TupleRef> foreign;
  for (uint32_t i = 0; i < 100; ++i) {
    foreign.push_back(TupleRef{0, 100000 + ((i * 37) % 100)});
  }
  for (const TupleRef& ref : foreign) {
    EXPECT_FALSE(tracker.IsDeleted(ref));
    EXPECT_EQ(tracker.Delete(ref), 0.0);
    EXPECT_TRUE(tracker.IsDeleted(ref));
  }
  EXPECT_EQ(tracker.deleted_count(), 100u);
  EXPECT_EQ(tracker.unkilled_deletion_count(), 1u);  // ΔV untouched
  // Undelete in a different order; membership stays exact throughout.
  for (uint32_t i = 0; i < 100; ++i) {
    TupleRef ref{0, 100000 + i};
    EXPECT_TRUE(tracker.IsDeleted(ref));
    tracker.Undelete(ref);
    EXPECT_FALSE(tracker.IsDeleted(ref));
  }
  EXPECT_EQ(tracker.deleted_count(), 0u);
}

TEST(TrackerRegressionTest,
     ResetRestoresPristineStateSparselyAndAfterOverflow) {
  FanInCase c = BuildFanIn(32);
  DamageTracker tracker(*c.instance);
  DamageTracker fresh(*c.instance);
  auto expect_pristine = [&](const char* when) {
    const CompiledInstance& plan = tracker.plan();
    ASSERT_EQ(tracker.unkilled_deletion_count(),
              fresh.unkilled_deletion_count())
        << when;
    ASSERT_EQ(tracker.killed_preserved_weight(),
              fresh.killed_preserved_weight())
        << when;
    ASSERT_EQ(tracker.deleted_count(), 0u) << when;
    for (uint32_t w = 0; w < plan.witness_count(); ++w) {
      ASSERT_EQ(tracker.witness_hits(w), 0u) << when << " witness " << w;
    }
    for (uint32_t d = 0; d < plan.tuple_count(); ++d) {
      ASSERT_EQ(tracker.dead_witness_count(d), 0u) << when << " tuple " << d;
      ASSERT_EQ(tracker.IsKilledDense(d), fresh.IsKilledDense(d))
          << when << " tuple " << d;
    }
  };

  // Sparse path: touch a handful of witnesses, well under the log caps.
  tracker.Delete(c.s_rows[3]);
  tracker.Delete(c.s_rows[7]);
  tracker.Reset();
  expect_pristine("sparse reset");

  // Overflow path: hammer one base through delete/undelete cycles — every
  // re-delete logs its witness transitions again, so the touch log
  // overflows and Reset must fall back to the full clear.
  for (int cycle = 0; cycle < 500; ++cycle) {
    tracker.Delete(c.s_rows[0]);
    tracker.Undelete(c.s_rows[0]);
  }
  for (const TupleRef& s : c.s_rows) tracker.Delete(s);
  tracker.Reset();
  expect_pristine("overflow reset");

  // Back-to-back reset on an untouched tracker is a no-op.
  tracker.Reset();
  expect_pristine("idle reset");
}

}  // namespace
}  // namespace delprop
