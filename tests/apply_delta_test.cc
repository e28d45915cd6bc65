#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "dp/base_delta.h"
#include "dp/vse_instance.h"
#include "plan/compiled_instance.h"
#include "solvers/scratch_pool.h"
#include "workload/author_journal.h"

namespace delprop {
namespace {

// All tests run on the paper's Fig. 1 example: T1(AuName, Journal),
// T2(Journal, Topic, NumPapers), views Q3(x,z) and Q4(x,y,z). T1 rows:
// 0=(Joe,TKDE) 1=(John,TKDE) 2=(Tom,TKDE) 3=(John,TODS); T2 rows:
// 0=(TKDE,XML) 1=(TKDE,CUBE) 2=(TODS,XML).
class ApplyDeltaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<GeneratedVse> generated = BuildFig1Example();
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    generated_ = std::move(*generated);
  }

  VseInstance& instance() { return *generated_.instance; }
  Database& db() { return *generated_.database; }

  TupleRef Row(const char* rel, uint32_t row) {
    RelationId id = *db().schema().FindRelation(rel);
    return TupleRef{id, row};
  }

  BaseInsert T1Insert(const char* author, const char* journal) {
    RelationId id = *db().schema().FindRelation("T1");
    return BaseInsert{
        id, {db().dict().Intern(author), db().dict().Intern(journal)}};
  }

  /// Byte-compares the live instance's derived state against a fresh
  /// re-index of a copy of its views (CreateFromMaterializedViews), carrying
  /// over ΔV and weights — the unit-test-sized version of the mutate-vs-
  /// rebuild oracle in testing/mutation.h.
  void ExpectMatchesReindex() {
    std::vector<const ConjunctiveQuery*> queries;
    for (const auto& query : generated_.queries) queries.push_back(query.get());
    std::vector<View> views;
    for (size_t v = 0; v < instance().view_count(); ++v) {
      views.push_back(instance().view(v));
    }
    Result<VseInstance> reindexed = VseInstance::CreateFromMaterializedViews(
        db(), queries, std::move(views));
    ASSERT_TRUE(reindexed.ok()) << reindexed.status().ToString();
    VseInstance& shadow = *reindexed;
    ASSERT_TRUE(shadow.ResetDeletions(instance().deletion_tuples()).ok());
    for (size_t v = 0; v < instance().view_count(); ++v) {
      for (size_t t = 0; t < instance().view(v).size(); ++t) {
        ViewTupleId id{v, t};
        if (instance().weight(id) != 1.0) {
          ASSERT_TRUE(shadow.SetWeight(id, instance().weight(id)).ok());
        }
      }
    }
    EXPECT_EQ(instance().all_unique_witness(), shadow.all_unique_witness());
    EXPECT_TRUE(*instance().compiled()->core() == *shadow.compiled()->core())
        << "PlanCore differs from a from-scratch build of the same views";
    EXPECT_EQ(instance().compiled()->deletion_dense(),
              shadow.compiled()->deletion_dense());
    EXPECT_EQ(instance().compiled()->candidate_bases(),
              shadow.compiled()->candidate_bases());
  }

  GeneratedVse generated_;
};

TEST_F(ApplyDeltaTest, InsertExpandsViewsIncrementally) {
  BaseDelta delta;
  delta.inserts.push_back(T1Insert("Bob", "TKDE"));
  ApplyDeltaReport report;
  ASSERT_TRUE(instance().ApplyDelta(db(), delta, {}, &report).ok());

  // Bob×TKDE joins T2's two TKDE rows: Q3 gains (Bob,XML),(Bob,CUBE), Q4
  // gains (Bob,TKDE,XML),(Bob,TKDE,CUBE).
  EXPECT_EQ(instance().view(0).size(), 8u);
  EXPECT_EQ(instance().view(1).size(), 9u);
  EXPECT_EQ(report.view_tuples_added, 4u);
  EXPECT_EQ(report.witnesses_added, 4u);
  EXPECT_EQ(report.view_tuples_removed, 0u);
  EXPECT_EQ(instance().structure_epoch(), 1u);

  // The new base row is live, has a kill row, and the new view tuples carry
  // real witnesses through it.
  TupleRef bob = Row("T1", 4);
  EXPECT_FALSE(instance().base_mask().Contains(bob));
  EXPECT_EQ(instance().KilledBy(bob).size(), 4u);
  ExpectMatchesReindex();
}

TEST_F(ApplyDeltaTest, DeleteShrinksViewsAndDropsDeadMarks) {
  // Mark Q4 (John,TODS,XML) — killed by the delete below — and Q3 (Tom,*),
  // which survive but shift when Q3 loses nothing... Q3 keeps its size here:
  // only Q4 loses a tuple, Q3's (John,XML) just loses one witness.
  ASSERT_TRUE(
      instance().MarkForDeletionByValues(1, {"John", "TODS", "XML"}).ok());
  ASSERT_TRUE(instance().MarkForDeletionByValues(0, {"Tom", "XML"}).ok());
  ASSERT_FALSE(instance().all_unique_witness()) << "(John, XML) has 2";

  BaseDelta delta;
  delta.deletes.push_back(Row("T1", 3));  // (John, TODS)
  ApplyDeltaReport report;
  ASSERT_TRUE(instance().ApplyDelta(db(), delta, {}, &report).ok());

  EXPECT_EQ(instance().view(0).size(), 6u);  // (John,XML) survives via TKDE
  EXPECT_EQ(instance().view(1).size(), 6u);  // (John,TODS,XML) is gone
  EXPECT_EQ(report.view_tuples_removed, 1u);
  EXPECT_EQ(report.witnesses_removed, 2u);
  EXPECT_TRUE(instance().base_mask().Contains(Row("T1", 3)));

  // The dead tuple's mark is dropped; the surviving mark still points at
  // (Tom, XML). The last multi-witness tuple lost a witness, so the
  // unique-witness property now holds.
  ASSERT_EQ(instance().deletion_tuples().size(), 1u);
  EXPECT_EQ(instance().RenderViewTuple(instance().deletion_tuples()[0]),
            "Q3(Tom, XML)");
  EXPECT_TRUE(instance().all_unique_witness());
  ExpectMatchesReindex();
}

TEST_F(ApplyDeltaTest, MixedDeltaMatchesReindexUnderWeights) {
  ASSERT_TRUE(instance().SetWeight(ViewTupleId{0, 0}, 3.5).ok());
  BaseDelta delta;
  delta.inserts.push_back(T1Insert("Bob", "TODS"));
  delta.deletes.push_back(Row("T1", 0));  // (Joe, TKDE)
  ApplyDeltaReport report;
  ASSERT_TRUE(instance().ApplyDelta(db(), delta, {}, &report).ok());
  EXPECT_GT(report.view_tuples_added, 0u);
  EXPECT_GT(report.view_tuples_removed, 0u);
  ExpectMatchesReindex();
}

// One delta that both shifts a surviving tuple (compaction) and adds a
// witness to it (insert): the insert must find the survivor at its new index.
TEST_F(ApplyDeltaTest, CompactedSurvivorGainsWitness) {
  ASSERT_EQ(instance().RenderViewTuple(ViewTupleId{0, 4}), "Q3(John, CUBE)");
  RelationId t2 = *db().schema().FindRelation("T2");
  BaseDelta delta;
  delta.deletes.push_back(Row("T1", 0));  // (Joe, TKDE)
  delta.inserts.push_back(BaseInsert{
      t2,
      {db().dict().Intern("TODS"), db().dict().Intern("CUBE"),
       db().dict().Intern("30")}});
  ApplyDeltaReport report;
  ASSERT_TRUE(instance().ApplyDelta(db(), delta, {}, &report).ok());

  EXPECT_EQ(report.view_tuples_added, 1u);    // Q4 (John, TODS, CUBE)
  EXPECT_EQ(report.view_tuples_removed, 4u);  // Joe's two Q3 and two Q4 rows
  EXPECT_EQ(report.witnesses_added, 2u);
  EXPECT_EQ(report.witnesses_removed, 4u);

  // Q3 (John, CUBE) moved from index 4 to 2 and gained the TODS witness.
  Tuple john_cube = {*db().dict().Find("John"), *db().dict().Find("CUBE")};
  ASSERT_EQ(instance().view(0).Find(john_cube), std::optional<size_t>(2));
  EXPECT_EQ(instance().RenderViewTuple(ViewTupleId{0, 2}), "Q3(John, CUBE)");
  EXPECT_EQ(instance().view(0).tuple(2).witnesses.size(), 2u);
  std::vector<std::string> q4;
  for (size_t t = 0; t < instance().view(1).size(); ++t) {
    q4.push_back(instance().RenderViewTuple(ViewTupleId{1, t}));
  }
  EXPECT_NE(std::find(q4.begin(), q4.end(), "Q4(John, TODS, CUBE)"),
            q4.end());
  ExpectMatchesReindex();
}

TEST_F(ApplyDeltaTest, EmptyDeltaBuildsNoCore) {
  ASSERT_EQ(instance().plan_stats().full_builds, 0u) << "never compiled";
  uint64_t epoch_before = instance().structure_epoch();
  ApplyDeltaReport report;
  ASSERT_TRUE(instance().ApplyDelta(db(), BaseDelta{}, {}, &report).ok());
  EXPECT_EQ(instance().plan_stats().full_builds, 0u);
  EXPECT_EQ(instance().structure_epoch(), epoch_before);
}

TEST_F(ApplyDeltaTest, ErrorsNameTheOffendingRelationAndRow) {
  auto expect_invalid = [&](const BaseDelta& delta, const char* fragment) {
    Status status = instance().ApplyDelta(db(), delta);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.ToString().find(fragment), std::string::npos)
        << "missing '" << fragment << "' in: " << status.ToString();
  };

  BaseDelta bad_relation;
  bad_relation.inserts.push_back(BaseInsert{99, {0, 0}});
  expect_invalid(bad_relation, "relation id 99, which does not exist");

  BaseDelta bad_arity;
  bad_arity.inserts.push_back(T1Insert("Bob", "TKDE"));
  bad_arity.inserts[0].tuple.push_back(0);
  expect_invalid(bad_arity, "has 3 value(s) for relation 'T1' of arity 2");

  BaseDelta duplicate;
  duplicate.inserts.push_back(T1Insert("John", "TKDE"));
  expect_invalid(duplicate, "duplicates row 1 of relation 'T1'");

  BaseDelta batch_repeat;
  batch_repeat.inserts.push_back(T1Insert("Bob", "TKDE"));
  batch_repeat.inserts.push_back(T1Insert("Bob", "TKDE"));
  expect_invalid(batch_repeat, "repeats the key of an earlier insert");

  BaseDelta dangling;
  dangling.deletes.push_back(Row("T1", 40));
  expect_invalid(dangling,
                 "row 40 of relation 'T1' does not exist (4 row(s))");

  BaseDelta witnessed;
  witnessed.deletes.push_back(Row("T1", 0));
  ApplyDeltaOptions forbid;
  forbid.forbid_witnessed_deletes = true;
  Status status = instance().ApplyDelta(db(), witnessed, forbid);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("still occurs in a witness"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("Q3(Joe,"), std::string::npos)
      << "error should render the referencing view tuple: "
      << status.ToString();

  // Masked rows stay masked and keep their keys occupied.
  BaseDelta first;
  first.deletes.push_back(Row("T1", 3));
  ASSERT_TRUE(instance().ApplyDelta(db(), first).ok());
  BaseDelta again;
  again.deletes.push_back(Row("T1", 3));
  expect_invalid(again, "row 3 of relation 'T1' is already deleted");
  BaseDelta reuse_key;
  reuse_key.inserts.push_back(T1Insert("John", "TODS"));
  expect_invalid(reuse_key,
                 "logically deleted rows keep their keys occupied");
}

TEST_F(ApplyDeltaTest, RejectedDeltaHasNoSideEffects) {
  size_t rows_before = db().relation(Row("T1", 0).relation).row_count();
  size_t q3_before = instance().view(0).size();
  uint64_t epoch_before = instance().structure_epoch();

  // Valid insert + dangling delete: the whole delta must be rejected and the
  // insert must NOT reach the database.
  BaseDelta delta;
  delta.inserts.push_back(T1Insert("Bob", "TKDE"));
  delta.deletes.push_back(Row("T2", 77));
  EXPECT_EQ(instance().ApplyDelta(db(), delta).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db().relation(Row("T1", 0).relation).row_count(), rows_before);
  EXPECT_EQ(instance().view(0).size(), q3_before);
  EXPECT_EQ(instance().structure_epoch(), epoch_before);
  EXPECT_TRUE(instance().base_mask().Sorted().empty());
}

TEST_F(ApplyDeltaTest, WitnessChangingDeltaRebuildsCoreOnce) {
  std::shared_ptr<const PlanCore> core = instance().compiled()->core();
  ASSERT_EQ(instance().plan_stats().full_builds, 1u);

  // (Bob, Nowhere) joins nothing: no witness changes, so the core stays.
  BaseDelta unjoined;
  unjoined.inserts.push_back(T1Insert("Bob", "Nowhere"));
  ApplyDeltaReport report;
  ASSERT_TRUE(instance().ApplyDelta(db(), unjoined, {}, &report).ok());
  EXPECT_EQ(report.witnesses_added, 0u);
  EXPECT_EQ(instance().compiled()->core(), core);
  PlanBuildStats stats = instance().plan_stats();
  EXPECT_EQ(stats.full_builds, 1u);
  EXPECT_EQ(stats.core_patch_fallbacks, 0u);

  // A witnessed delete drops the core; the next compiled() builds it once.
  BaseDelta witnessed;
  witnessed.deletes.push_back(Row("T1", 3));  // (John, TODS)
  ASSERT_TRUE(instance().ApplyDelta(db(), witnessed, {}, &report).ok());
  EXPECT_GT(report.witnesses_removed, 0u);
  stats = instance().plan_stats();
  EXPECT_EQ(stats.full_builds, 1u) << "the rebuild is lazy";
  EXPECT_EQ(stats.core_patch_fallbacks, 1u);
  (void)instance().compiled();
  (void)instance().compiled();
  EXPECT_EQ(instance().plan_stats().full_builds, 2u);
  ExpectMatchesReindex();

  // Two witnessed deletes with no compiled() between them: the second reads
  // its kill rows from a core it first builds (before it validates), and
  // the next compiled() builds once more.
  BaseDelta first;
  first.deletes.push_back(Row("T1", 0));  // (Joe, TKDE)
  ASSERT_TRUE(instance().ApplyDelta(db(), first, {}, &report).ok());
  EXPECT_EQ(instance().plan_stats().full_builds, 2u);
  BaseDelta second;
  second.deletes.push_back(Row("T2", 1));  // (TKDE, CUBE)
  ASSERT_TRUE(instance().ApplyDelta(db(), second, {}, &report).ok());
  EXPECT_GT(report.witnesses_removed, 0u);
  stats = instance().plan_stats();
  EXPECT_EQ(stats.full_builds, 3u);
  EXPECT_EQ(stats.core_patch_fallbacks, 3u);
  (void)instance().compiled();
  EXPECT_EQ(instance().plan_stats().full_builds, 4u);
  ExpectMatchesReindex();
}

TEST_F(ApplyDeltaTest, SetWeightRebuildsCoreAndLeavesReplicaPlansFrozen) {
  (void)instance().compiled();
  VseInstance replica = instance().Replicate();
  std::shared_ptr<const CompiledInstance> replica_plan = replica.compiled();
  ViewTupleId id{0, 1};
  ViewTupleId other{1, 0};
  double replica_weight_before =
      replica_plan->weight(replica_plan->DenseOf(id));

  ASSERT_TRUE(instance().SetWeight(id, 9.0).ok());
  EXPECT_EQ(instance().plan_stats().full_builds, 1u) << "the rebuild is lazy";
  ASSERT_TRUE(instance().SetWeight(other, 4.0).ok());
  EXPECT_EQ(instance().plan_stats().full_builds, 1u)
      << "a second reweight before any compile builds nothing";

  // The replica's plan keeps the core it was built on.
  EXPECT_EQ(replica_plan->weight(replica_plan->DenseOf(id)),
            replica_weight_before);
  EXPECT_EQ(replica.weight(id), replica_weight_before);

  // The primary's next plan is one full build that reads both new weights.
  std::shared_ptr<const CompiledInstance> primary_plan = instance().compiled();
  EXPECT_EQ(instance().plan_stats().full_builds, 2u);
  EXPECT_NE(primary_plan->core(), replica_plan->core());
  EXPECT_EQ(primary_plan->weight(primary_plan->DenseOf(id)), 9.0);
  EXPECT_EQ(primary_plan->weight(primary_plan->DenseOf(other)), 4.0);
  ExpectMatchesReindex();
}

// The rebuild after a witness-changing delta or a reweight fills the core
// the instance dropped when the instance is its sole owner: the same
// address, the same bytes as a from-scratch build of the same views.
TEST_F(ApplyDeltaTest, SoleOwnerRebuildsIntoTheDroppedCore) {
  const PlanCore* core = instance().compiled()->core().get();
  ASSERT_EQ(instance().plan_stats().core_reuses, 0u);

  BaseDelta witnessed;
  witnessed.deletes.push_back(Row("T1", 3));  // (John, TODS)
  witnessed.inserts.push_back(T1Insert("Bob", "TKDE"));
  ASSERT_TRUE(instance().ApplyDelta(db(), witnessed).ok());
  EXPECT_EQ(instance().compiled()->core().get(), core);
  PlanBuildStats stats = instance().plan_stats();
  EXPECT_EQ(stats.full_builds, 2u);
  EXPECT_EQ(stats.core_reuses, 1u);
  ExpectMatchesReindex();

  ASSERT_TRUE(instance().SetWeight(ViewTupleId{0, 2}, 3.0).ok());
  ASSERT_TRUE(instance().SetWeight(ViewTupleId{1, 1}, 0.5).ok());
  EXPECT_EQ(instance().compiled()->core().get(), core);
  stats = instance().plan_stats();
  EXPECT_EQ(stats.full_builds, 3u);
  EXPECT_EQ(stats.core_reuses, 2u);
  ExpectMatchesReindex();
}

// Anything else that still holds the dropped core — a replica, a plan
// handed out before the core was dropped (here retired by a ΔV mark), a
// pooled tracker — blocks the reuse: the rebuild allocates a new core and
// the held one keeps its bytes.
TEST_F(ApplyDeltaTest, HeldCoreBlocksReuseAndStaysFrozen) {
  enum Holder { kReplica, kRetiredPlan, kPooledTracker };
  for (Holder holder : {kReplica, kRetiredPlan, kPooledTracker}) {
    SCOPED_TRACE(holder);
    SetUp();
    const PlanCore snapshot = *instance().compiled()->core();
    std::optional<VseInstance> replica;
    std::shared_ptr<const CompiledInstance> retired_plan;
    ScratchPool pool;
    const PlanCore* held = nullptr;  // the old core, as the holder reads it
    switch (holder) {
      case kReplica:
        replica.emplace(instance().Replicate());
        held = replica->compiled()->core().get();
        break;
      case kRetiredPlan:
        retired_plan = instance().compiled();
        ASSERT_TRUE(instance().MarkForDeletion(ViewTupleId{0, 0}).ok());
        held = retired_plan->core().get();
        break;
      case kPooledTracker:
        held = pool.AcquireTracker(instance())->plan().core().get();
        break;
    }

    BaseDelta witnessed;
    witnessed.deletes.push_back(Row("T1", 3));  // (John, TODS)
    ASSERT_TRUE(instance().ApplyDelta(db(), witnessed).ok());
    EXPECT_NE(instance().compiled()->core().get(), held);
    EXPECT_EQ(instance().plan_stats().core_reuses, 0u);
    EXPECT_TRUE(*held == snapshot);
    ExpectMatchesReindex();
  }
}

// Satellite regression: ResetDeletions used to rebuild a shadow hash set per
// request; membership is now derived from the sorted deletion_tuples_ alone
// and must stay consistent through resets, marks, and deltas.
TEST_F(ApplyDeltaTest, DeletionMembershipStaysConsistent) {
  std::vector<ViewTupleId> dv = {{1, 3}, {0, 1}, {1, 3}, {0, 5}};  // dupes ok
  ASSERT_TRUE(instance().ResetDeletions(dv).ok());
  EXPECT_EQ(instance().TotalDeletionTuples(), 3u);
  EXPECT_TRUE(instance().IsMarkedForDeletion(ViewTupleId{0, 1}));
  EXPECT_TRUE(instance().IsMarkedForDeletion(ViewTupleId{0, 5}));
  EXPECT_TRUE(instance().IsMarkedForDeletion(ViewTupleId{1, 3}));
  EXPECT_FALSE(instance().IsMarkedForDeletion(ViewTupleId{0, 0}));
  EXPECT_TRUE(std::is_sorted(instance().deletion_tuples().begin(),
                             instance().deletion_tuples().end()));

  ASSERT_TRUE(instance().MarkForDeletion(ViewTupleId{0, 0}).ok());
  EXPECT_TRUE(instance().IsMarkedForDeletion(ViewTupleId{0, 0}));
  EXPECT_TRUE(std::is_sorted(instance().deletion_tuples().begin(),
                             instance().deletion_tuples().end()));

  // Membership agrees with deletion_tuples() on every view tuple.
  size_t marked = 0;
  for (size_t v = 0; v < instance().view_count(); ++v) {
    for (size_t t = 0; t < instance().view(v).size(); ++t) {
      ViewTupleId id{v, t};
      bool listed = std::binary_search(instance().deletion_tuples().begin(),
                                       instance().deletion_tuples().end(), id);
      EXPECT_EQ(instance().IsMarkedForDeletion(id), listed);
      if (listed) ++marked;
    }
  }
  EXPECT_EQ(marked, instance().TotalDeletionTuples());

  ASSERT_TRUE(instance().ResetDeletions({}).ok());
  EXPECT_FALSE(instance().IsMarkedForDeletion(ViewTupleId{0, 1}));
  EXPECT_EQ(instance().TotalDeletionTuples(), 0u);
}

TEST_F(ApplyDeltaTest, DeleteOfUnreferencedRowIsAllowedUnderForbid) {
  // (Bob, Nowhere) joins nothing, so it lands in no witness; deleting it
  // with forbid_witnessed_deletes on must succeed and change no view.
  BaseDelta insert;
  insert.inserts.push_back(T1Insert("Bob", "Nowhere"));
  ApplyDeltaReport report;
  ASSERT_TRUE(instance().ApplyDelta(db(), insert, {}, &report).ok());
  EXPECT_EQ(report.view_tuples_added, 0u);

  BaseDelta remove;
  remove.deletes.push_back(Row("T1", 4));
  ApplyDeltaOptions forbid;
  forbid.forbid_witnessed_deletes = true;
  ASSERT_TRUE(instance().ApplyDelta(db(), remove, forbid, &report).ok());
  EXPECT_EQ(report.view_tuples_removed, 0u);
  EXPECT_TRUE(instance().base_mask().Contains(Row("T1", 4)));
  ExpectMatchesReindex();
}

TEST_F(ApplyDeltaTest, WrongDatabaseIsRejected) {
  Database other;
  BaseDelta delta;
  delta.deletes.push_back(Row("T1", 0));
  EXPECT_EQ(instance().ApplyDelta(other, delta).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace delprop
