// MakeSolution builds each answer's SideEffectReport from the request: only
// ΔV and the kill rows of ΔD's bases are checked, put in ascending order by
// sorting or by a sweep over per-tuple marks. These tests pin that the
// result equals EvaluateDeletion's full scan in every field, doubles bit for
// bit (testing::ReportDifference), under either order, on the shapes the
// shortcut must get right: several witnesses per tuple, refs outside every
// witness, an empty ΔD, and self-join witnesses that list one base twice.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dp/side_effect.h"
#include "dp/solver.h"
#include "testing/oracles.h"
#include "tool/script.h"

namespace delprop {
namespace {

// Not key preserving, so QA(x) and QB(p) have two witnesses each. QE is a
// self-join: QE(u, u)'s one witness lists E(u, u) twice, and E(u, u) also
// sits in QE(v, u)'s witness. Z(z) occurs in no witness. The weights are
// chosen so that sums depend on the order of addition.
constexpr char kScript[] = R"(relation R(a*, b*)
relation E(a*, b)
relation Z(a*)
insert R(x, p)
insert R(x, q)
insert R(y, p)
insert E(u, u)
insert E(v, u)
insert Z(z)
query QA(a) :- R(a, b)
query QB(b) :- R(a, b)
query QE(a, c) :- E(a, b), E(b, c)
delete QB(q)
weight QA(x) 0.1
weight QA(y) 0.2
weight QB(p) 0.7
weight QB(q) 0.3
weight QE(u, u) 0.1
weight QE(v, u) 0.2
)";

class SolutionReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string out;
    ASSERT_TRUE(session_.Run(kScript, &out).ok()) << out;
    ASSERT_NE(session_.instance(), nullptr);
  }

  VseInstance& instance() { return *session_.mutable_instance(); }

  TupleRef Ref(const std::string& relation, uint32_t row) const {
    return TupleRef{*session_.database().schema().FindRelation(relation),
                    row};
  }

  ViewTupleId Id(size_t view, const std::vector<std::string>& values) {
    Tuple tuple;
    for (const std::string& text : values) {
      tuple.push_back(*session_.database().dict().Find(text));
    }
    return ViewTupleId{view, *instance().view(view).Find(tuple)};
  }

  // MakeSolution's report for `refs`, after checking it and the report
  // under each candidate order against the full scan.
  SideEffectReport Report(const std::vector<TupleRef>& refs) {
    DeletionSet deletion(refs);
    SideEffectReport full = EvaluateDeletion(instance(), deletion);
    for (internal::CandidateOrder order :
         {internal::CandidateOrder::kSort, internal::CandidateOrder::kSweep}) {
      EXPECT_EQ(testing::ReportDifference(
                    full, internal::RequestReport(instance(), deletion, order)),
                "");
    }
    VseSolution solution = MakeSolution(instance(), deletion, "test");
    EXPECT_EQ(testing::ReportDifference(full, solution.report), "");
    return solution.report;
  }

  ScriptSession session_;
};

TEST_F(SolutionReportTest, TwoWitnessesOneHitSurvives) {
  // R(x, q) eliminates ΔV QB(q) and hits one of QA(x)'s two witnesses.
  SideEffectReport report = Report({Ref("R", 1)});
  EXPECT_TRUE(report.eliminates_all_deletions);
  EXPECT_TRUE(report.killed_preserved.empty());
  EXPECT_EQ(report.side_effect_count, 0u);
  EXPECT_EQ(report.source_deletion_count, 1u);
}

TEST_F(SolutionReportTest, TwoWitnessesBothHitIsKilled) {
  // QA(x) loses both witnesses; QB(p) keeps R(y, p).
  SideEffectReport report = Report({Ref("R", 0), Ref("R", 1)});
  EXPECT_TRUE(report.eliminates_all_deletions);
  EXPECT_EQ(report.killed_preserved, std::vector<ViewTupleId>{Id(0, {"x"})});
  EXPECT_EQ(report.side_effect_weight, 0.1);
  EXPECT_EQ(report.per_view_side_effect, (std::vector<size_t>{1, 0, 0}));
}

TEST_F(SolutionReportTest, RefInNoWitnessCountsOnlyAsSourceDeletion) {
  SideEffectReport with_z = Report({Ref("R", 1), Ref("Z", 0)});
  SideEffectReport without_z = Report({Ref("R", 1)});
  EXPECT_EQ(with_z.source_deletion_count, 2u);
  without_z.source_deletion_count = 2;
  EXPECT_EQ(testing::ReportDifference(without_z, with_z), "");
}

TEST_F(SolutionReportTest, EmptyDeletionKeepsDeltaV) {
  SideEffectReport report = Report({});
  EXPECT_FALSE(report.eliminates_all_deletions);
  EXPECT_EQ(report.surviving_deletions,
            std::vector<ViewTupleId>{Id(1, {"q"})});
  EXPECT_EQ(report.balanced_cost, 0.3);
  EXPECT_TRUE(report.killed_preserved.empty());
  EXPECT_EQ(report.source_deletion_count, 0u);
}

TEST_F(SolutionReportTest, SelfJoinWitnessWithDuplicateMember) {
  // E(u, u) is listed twice in QE(u, u)'s witness and once in QE(v, u)'s.
  SideEffectReport report = Report({Ref("E", 0)});
  EXPECT_EQ(report.killed_preserved,
            (std::vector<ViewTupleId>{Id(2, {"u", "u"}), Id(2, {"v", "u"})}));
  EXPECT_EQ(report.per_view_side_effect, (std::vector<size_t>{0, 0, 2}));
  // Deleting the other member alone kills only the tuple it appears in.
  report = Report({Ref("E", 1)});
  EXPECT_EQ(report.killed_preserved,
            std::vector<ViewTupleId>{Id(2, {"v", "u"})});
}

// Every subset of the six base rows against several ΔVs, including ones
// where a tuple is both in ΔV and in a kill row.
TEST_F(SolutionReportTest, EveryDeletionSubsetMatchesFullScan) {
  const std::vector<TupleRef> bases = {Ref("R", 0), Ref("R", 1), Ref("R", 2),
                                       Ref("E", 0), Ref("E", 1), Ref("Z", 0)};
  const std::vector<std::vector<ViewTupleId>> delta_vs = {
      {},
      {Id(1, {"q"})},
      {Id(0, {"x"}), Id(2, {"v", "u"})},
      {Id(0, {"x"}), Id(0, {"y"}), Id(1, {"p"}), Id(1, {"q"}),
       Id(2, {"u", "u"}), Id(2, {"v", "u"})},
  };
  for (const std::vector<ViewTupleId>& delta_v : delta_vs) {
    ASSERT_TRUE(instance().ResetDeletions(delta_v).ok());
    for (uint32_t mask = 0; mask < (1u << bases.size()); ++mask) {
      SCOPED_TRACE(mask);
      std::vector<TupleRef> refs;
      for (size_t i = 0; i < bases.size(); ++i) {
        if ((mask >> i) & 1) refs.push_back(bases[i]);
      }
      (void)Report(refs);
    }
  }
}

}  // namespace
}  // namespace delprop
