#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "dp/side_effect.h"
#include "dp/vse_instance.h"
#include "query/evaluator.h"
#include "workload/author_journal.h"

namespace delprop {
namespace {

// All tests run on the paper's Fig. 1 example (views Q3 and Q4).
class Fig1Test : public ::testing::Test {
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

  GeneratedVse generated_;
};

TEST_F(Fig1Test, ViewSizesMatchPaper) {
  EXPECT_EQ(instance().view_count(), 2u);
  EXPECT_EQ(instance().view(0).size(), 6u);  // Q3 (Fig. 1c).
  EXPECT_EQ(instance().view(1).size(), 7u);  // Q4 (Fig. 1d).
  EXPECT_EQ(instance().TotalViewTuples(), 13u);
}

TEST_F(Fig1Test, PropertiesDetected) {
  EXPECT_FALSE(instance().all_key_preserving()) << "Q3 projects keys away";
  EXPECT_FALSE(instance().all_unique_witness()) << "(John, XML) has 2";
  EXPECT_EQ(instance().max_arity(), 3u);
}

TEST_F(Fig1Test, MarkForDeletionByValues) {
  EXPECT_TRUE(
      instance().MarkForDeletionByValues(0, {"John", "XML"}).ok());
  EXPECT_EQ(instance().TotalDeletionTuples(), 1u);
  // Idempotent.
  EXPECT_TRUE(instance().MarkForDeletionByValues(0, {"John", "XML"}).ok());
  EXPECT_EQ(instance().TotalDeletionTuples(), 1u);
  // Unknown tuples and views rejected.
  EXPECT_EQ(instance().MarkForDeletionByValues(0, {"John", "Nope"})
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(instance().MarkForDeletionByValues(9, {"John", "XML"}).code(),
            StatusCode::kOutOfRange);
}

TEST_F(Fig1Test, PaperScenarioOne) {
  // ΔV = (John, XML) on Q3. Deleting (John, TKDE) and (John, TODS) from T1
  // eliminates it with exactly one side-effect tuple: (John, CUBE).
  ASSERT_TRUE(instance().MarkForDeletionByValues(0, {"John", "XML"}).ok());
  DeletionSet deletion;
  deletion.Insert(Row("T1", 1));  // (John, TKDE)
  deletion.Insert(Row("T1", 3));  // (John, TODS)
  SideEffectReport report = EvaluateDeletion(instance(), deletion);
  EXPECT_TRUE(report.eliminates_all_deletions);
  // Q3 loses (John, CUBE); Q4 loses (John,TKDE,CUBE), (John,TKDE,XML),
  // (John,TODS,XML) — the Q4 losses count because Q4's tuples were not
  // marked for deletion.
  EXPECT_EQ(report.side_effect_count, 4u);
  std::vector<ViewTupleId> q3_losses;
  for (const ViewTupleId& id : report.killed_preserved) {
    if (id.view == 0) q3_losses.push_back(id);
  }
  ASSERT_EQ(q3_losses.size(), 1u);
  EXPECT_EQ(instance().RenderViewTuple(q3_losses[0]), "Q3(John, CUBE)");
}

TEST_F(Fig1Test, PaperScenarioOneAlternative) {
  // The other optimum: (John, TKDE) from T1 and (TODS, XML, 30) from T2.
  ASSERT_TRUE(instance().MarkForDeletionByValues(0, {"John", "XML"}).ok());
  DeletionSet deletion;
  deletion.Insert(Row("T1", 1));
  deletion.Insert(Row("T2", 2));
  SideEffectReport report = EvaluateDeletion(instance(), deletion);
  EXPECT_TRUE(report.eliminates_all_deletions);
  size_t q3_losses = 0;
  for (const ViewTupleId& id : report.killed_preserved) {
    if (id.view == 0) ++q3_losses;
  }
  EXPECT_EQ(q3_losses, 1u) << "(John, CUBE) again";
}

TEST_F(Fig1Test, PaperScenarioTwoKeyPreservingChoice) {
  // ΔV = (John, TKDE, XML) on Q4: deleting either witness tuple eliminates
  // it (the key-preserving property).
  ASSERT_TRUE(
      instance().MarkForDeletionByValues(1, {"John", "TKDE", "XML"}).ok());
  {
    DeletionSet deletion;
    deletion.Insert(Row("T1", 1));  // (John, TKDE)
    SideEffectReport report = EvaluateDeletion(instance(), deletion);
    EXPECT_TRUE(report.eliminates_all_deletions);
  }
  {
    DeletionSet deletion;
    deletion.Insert(Row("T2", 0));  // (TKDE, XML, 30)
    SideEffectReport report = EvaluateDeletion(instance(), deletion);
    EXPECT_TRUE(report.eliminates_all_deletions);
  }
}

TEST_F(Fig1Test, EmptyDeletionHasNoSideEffect) {
  SideEffectReport report = EvaluateDeletion(instance(), DeletionSet());
  EXPECT_TRUE(report.eliminates_all_deletions) << "ΔV empty";
  EXPECT_EQ(report.side_effect_count, 0u);
  EXPECT_DOUBLE_EQ(report.balanced_cost, 0.0);
}

TEST_F(Fig1Test, SurvivingDeletionsReported) {
  ASSERT_TRUE(instance().MarkForDeletionByValues(0, {"John", "XML"}).ok());
  DeletionSet deletion;
  deletion.Insert(Row("T1", 1));  // Only (John, TKDE): TODS path survives.
  SideEffectReport report = EvaluateDeletion(instance(), deletion);
  EXPECT_FALSE(report.eliminates_all_deletions);
  ASSERT_EQ(report.surviving_deletions.size(), 1u);
  EXPECT_EQ(instance().RenderViewTuple(report.surviving_deletions[0]),
            "Q3(John, XML)");
  EXPECT_GT(report.balanced_cost, 0.0);
}

TEST_F(Fig1Test, CandidateTuplesAreDeltaWitnessMembers) {
  ASSERT_TRUE(instance().MarkForDeletionByValues(0, {"John", "XML"}).ok());
  std::vector<TupleRef> candidates = instance().CandidateTuples();
  // (John,TKDE), (John,TODS), (TKDE,XML,30), (TODS,XML,30).
  EXPECT_EQ(candidates.size(), 4u);
  EXPECT_TRUE(std::count(candidates.begin(), candidates.end(), Row("T1", 1)));
  EXPECT_TRUE(std::count(candidates.begin(), candidates.end(), Row("T1", 3)));
  EXPECT_TRUE(std::count(candidates.begin(), candidates.end(), Row("T2", 0)));
  EXPECT_TRUE(std::count(candidates.begin(), candidates.end(), Row("T2", 2)));
}

TEST_F(Fig1Test, KilledByMapsBaseTuplesToViews) {
  // (TKDE, XML, 30) participates in Q3(Joe,XML), Q3(John,XML), Q3(Tom,XML)
  // and the three Q4 XML-at-TKDE tuples.
  std::vector<ViewTupleId> killed = instance().KilledBy(Row("T2", 0));
  EXPECT_EQ(killed.size(), 6u);
  EXPECT_TRUE(instance().KilledBy(TupleRef{0, 99}).empty());
}

TEST_F(Fig1Test, WeightsDefaultAndSet) {
  ViewTupleId id{0, 0};
  EXPECT_DOUBLE_EQ(instance().weight(id), 1.0);
  ASSERT_TRUE(instance().SetWeight(id, 2.5).ok());
  EXPECT_DOUBLE_EQ(instance().weight(id), 2.5);
  EXPECT_FALSE(instance().SetWeight(id, -1.0).ok());
  EXPECT_FALSE(instance().SetWeight(ViewTupleId{9, 0}, 1.0).ok());
}

TEST_F(Fig1Test, SetWeightRejectsNaNAndInfinityAndAcceptsSignedZero) {
  ViewTupleId id{0, 0};
  Status nan =
      instance().SetWeight(id, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(nan.code(), StatusCode::kInvalidArgument);
  // The message names the view tuple.
  EXPECT_NE(nan.message().find(instance().RenderViewTuple(id)),
            std::string::npos)
      << nan.message();
  EXPECT_DOUBLE_EQ(instance().weight(id), 1.0);

  ASSERT_TRUE(instance().SetWeight(id, -0.0).ok());
  EXPECT_EQ(instance().weight(id), 0.0);
  // +inf is rejected like NaN, naming the view tuple, and leaves the weight.
  Status inf =
      instance().SetWeight(id, std::numeric_limits<double>::infinity());
  EXPECT_EQ(inf.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(inf.message().find(instance().RenderViewTuple(id)),
            std::string::npos)
      << inf.message();
  EXPECT_EQ(instance().weight(id), 0.0);
  EXPECT_EQ(instance().SetWeight(id, -0.5).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(Fig1Test, WeightedSideEffect) {
  ASSERT_TRUE(instance().MarkForDeletionByValues(0, {"John", "XML"}).ok());
  // Make Q3(John, CUBE) expensive.
  std::optional<size_t> cube = instance().view(0).Find(
      {*db().dict().Find("John"), *db().dict().Find("CUBE")});
  ASSERT_TRUE(cube.has_value());
  ASSERT_TRUE(instance().SetWeight(ViewTupleId{0, *cube}, 10.0).ok());
  DeletionSet deletion;
  deletion.Insert(Row("T1", 1));
  deletion.Insert(Row("T1", 3));
  SideEffectReport report = EvaluateDeletion(instance(), deletion);
  EXPECT_EQ(report.side_effect_count, 4u);
  EXPECT_DOUBLE_EQ(report.side_effect_weight, 13.0);  // 10 + 3 Q4 tuples.
}

TEST_F(Fig1Test, PreservedTuplesPartition) {
  ASSERT_TRUE(instance().MarkForDeletionByValues(0, {"John", "XML"}).ok());
  // V \ ΔV: the complement of deletion_tuples(), in (view, tuple) order.
  std::vector<ViewTupleId> preserved;
  for (size_t v = 0; v < instance().view_count(); ++v) {
    for (size_t t = 0; t < instance().view(v).size(); ++t) {
      ViewTupleId id{v, t};
      if (!std::binary_search(instance().deletion_tuples().begin(),
                              instance().deletion_tuples().end(), id)) {
        preserved.push_back(id);
      }
    }
  }
  EXPECT_EQ(preserved.size(), instance().TotalViewTuples() - 1);
  for (const ViewTupleId& id : preserved) {
    EXPECT_FALSE(instance().IsMarkedForDeletion(id));
  }
}

// Negative paths of CreateFromMaterializedViews: externally supplied lineage
// must be rejected with a message naming the offending view and tuple, so a
// caller pasting in provenance from the wrong place can find the bad row.
class MaterializedViewsTest : public Fig1Test {
 protected:
  /// Fresh honestly-evaluated views for Q3 and Q4, ready to tamper with.
  std::vector<View> EvaluateViews() {
    std::vector<View> views;
    for (size_t v = 0; v < instance().view_count(); ++v) {
      Result<View> view = Evaluate(db(), instance().query(v));
      EXPECT_TRUE(view.ok()) << view.status().ToString();
      views.push_back(std::move(*view));
    }
    return views;
  }

  Result<VseInstance> Rebuild(std::vector<View> views) {
    return VseInstance::CreateFromMaterializedViews(
        db(), {&instance().query(0), &instance().query(1)}, std::move(views));
  }
};

TEST_F(MaterializedViewsTest, HonestViewsAccepted) {
  Result<VseInstance> rebuilt = Rebuild(EvaluateViews());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(rebuilt->TotalViewTuples(), instance().TotalViewTuples());
}

TEST_F(MaterializedViewsTest, RejectsTupleFromAnotherView) {
  std::vector<View> views = EvaluateViews();
  // Paste a Q4 tuple (arity 3) into the Q3 view (arity 2). It lands at
  // index 6 — the message must name exactly that tuple.
  const ViewTuple& alien = views[1].tuple(0);
  views[0].AddMatch(alien.values, alien.witnesses[0]);
  Result<VseInstance> rebuilt = Rebuild(std::move(views));
  ASSERT_FALSE(rebuilt.ok());
  EXPECT_EQ(rebuilt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rebuilt.status().message(),
            "view 0 tuple 6 has 3 head values but query 'Q3' has arity 2; "
            "it does not belong to this view");
}

TEST_F(MaterializedViewsTest, RejectsDanglingWitnessRow) {
  std::vector<View> views = EvaluateViews();
  // T1 has 4 rows; row 99 dangles.
  views[0].AddMatch(views[0].tuple(0).values, {Row("T1", 99), Row("T2", 0)});
  Result<VseInstance> rebuilt = Rebuild(std::move(views));
  ASSERT_FALSE(rebuilt.ok());
  EXPECT_EQ(rebuilt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rebuilt.status().message().find("view 0 tuple 0"),
            std::string::npos)
      << rebuilt.status().message();
  EXPECT_NE(rebuilt.status().message().find(
                "dangling witness: row 99 of relation 'T1' does not exist "
                "(4 row(s))"),
            std::string::npos)
      << rebuilt.status().message();
}

TEST_F(MaterializedViewsTest, RejectsDanglingWitnessRelation) {
  std::vector<View> views = EvaluateViews();
  views[0].AddMatch(views[0].tuple(0).values,
                    {TupleRef{99, 0}, Row("T2", 0)});
  Result<VseInstance> rebuilt = Rebuild(std::move(views));
  ASSERT_FALSE(rebuilt.ok());
  EXPECT_EQ(rebuilt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rebuilt.status().message().find(
                "dangling witness: relation id 99 does not exist"),
            std::string::npos)
      << rebuilt.status().message();
}

TEST_F(MaterializedViewsTest, RejectsWitnessOnWrongRelation) {
  std::vector<View> views = EvaluateViews();
  // Q3's first body atom is T1(x, y); a witness pointing it at T2 is lying
  // about the provenance even though the row exists.
  views[0].AddMatch(views[0].tuple(0).values, {Row("T2", 0), Row("T2", 0)});
  Result<VseInstance> rebuilt = Rebuild(std::move(views));
  ASSERT_FALSE(rebuilt.ok());
  EXPECT_EQ(rebuilt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rebuilt.status().message().find(
                "witness whose atom 0 references relation 'T2' where the "
                "query body has 'T1'"),
            std::string::npos)
      << rebuilt.status().message();
}

TEST_F(MaterializedViewsTest, RejectsWitnessOfWrongLength) {
  std::vector<View> views = EvaluateViews();
  views[0].AddMatch(views[0].tuple(0).values, {Row("T1", 0)});
  Result<VseInstance> rebuilt = Rebuild(std::move(views));
  ASSERT_FALSE(rebuilt.ok());
  EXPECT_EQ(rebuilt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rebuilt.status().message().find(
                "a witness of 1 base tuple(s) for a body of 2 atom(s)"),
            std::string::npos)
      << rebuilt.status().message();
}

TEST_F(MaterializedViewsTest, RejectsEmptyWitness) {
  std::vector<View> views = EvaluateViews();
  views[0].AddMatch(views[0].tuple(0).values, {});
  Result<VseInstance> rebuilt = Rebuild(std::move(views));
  ASSERT_FALSE(rebuilt.ok());
  EXPECT_EQ(rebuilt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rebuilt.status().message().find("view 0 tuple 0"),
            std::string::npos)
      << rebuilt.status().message();
  EXPECT_NE(rebuilt.status().message().find("empty witness"),
            std::string::npos)
      << rebuilt.status().message();
}

}  // namespace
}  // namespace delprop
