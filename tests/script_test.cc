#include <gtest/gtest.h>

#include "tool/script.h"

namespace delprop {
namespace {

constexpr const char* kFig1Setup = R"(
# Fig. 1 of the paper
relation T1(AuName*, Journal*)
relation T2(Journal*, Topic*, NumPapers)
insert T1(Joe, TKDE)
insert T1(John, TKDE)
insert T1(Tom, TKDE)
insert T1(John, TODS)
insert T2(TKDE, XML, 30)
insert T2(TKDE, CUBE, 30)
insert T2(TODS, XML, 30)
query Q3(x, z) :- T1(x, y), T2(y, z, w)
query Q4(x, y, z) :- T1(x, y), T2(y, z, w)
)";

TEST(ScriptTest, Fig1EndToEnd) {
  ScriptSession session;
  std::string out;
  Status status = session.Run(kFig1Setup, &out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(session.Run("views", &out).ok());
  EXPECT_NE(out.find("Q3(John, XML)"), std::string::npos);
  EXPECT_NE(out.find("Q4(John, TODS, XML)"), std::string::npos);

  out.clear();
  ASSERT_TRUE(session.Run("delete Q3(John, XML)\nsolve exact", &out).ok())
      << out;
  EXPECT_NE(out.find("eliminates all of ΔV: yes"), std::string::npos);
  EXPECT_NE(out.find("view side-effect: 4"), std::string::npos);
}

TEST(ScriptTest, ExplainShowsWitnesses) {
  ScriptSession session;
  std::string out;
  ASSERT_TRUE(session.Run(kFig1Setup, &out).ok());
  out.clear();
  ASSERT_TRUE(session.Run("explain Q3(John, XML)", &out).ok()) << out;
  EXPECT_NE(out.find("2 witness(es)"), std::string::npos);
  EXPECT_NE(out.find("T1(John, TKDE)"), std::string::npos);
  EXPECT_NE(out.find("T2(TODS, XML, 30)"), std::string::npos);
}

TEST(ScriptTest, ClassifyReportsLandscape) {
  ScriptSession session;
  std::string out;
  ASSERT_TRUE(session.Run(kFig1Setup, &out).ok());
  out.clear();
  ASSERT_TRUE(session.Run("classify", &out).ok());
  EXPECT_NE(out.find("Q4: "), std::string::npos);
  EXPECT_NE(out.find("key-preserving"), std::string::npos);
  EXPECT_NE(out.find("recommended solver"), std::string::npos);
}

TEST(ScriptTest, WeightChangesOptimum) {
  ScriptSession session;
  std::string out;
  ASSERT_TRUE(session.Run(kFig1Setup, &out).ok());
  // Make the CUBE collateral expensive and re-solve: the optimum moves to a
  // solution avoiding (John, TKDE) if possible — cost must reflect weights.
  ASSERT_TRUE(session
                  .Run("delete Q3(John, XML)\n"
                       "weight Q3(John, CUBE) 100\n"
                       "solve exact",
                       &out)
                  .ok())
      << out;
  // Any feasible solution kills Q3(John, CUBE) (both of John's T1 rows or
  // (John,TKDE)+TODS-XML hit it), so weighted cost >= 100... unless the
  // solver uses TKDE-XML + TODS-XML (killing Joe/Tom XML instead).
  // "exact" is an alias of the ILP; the answer names the solver that ran.
  EXPECT_NE(out.find("solver ilp"), std::string::npos);
  // Extract the weighted side-effect number: must avoid the 100-weight tuple.
  size_t pos = out.find("view side-effect: ");
  ASSERT_NE(pos, std::string::npos);
  double cost = std::stod(out.substr(pos + 18));
  EXPECT_LT(cost, 100.0) << "optimum must route around the heavy tuple";
}

TEST(ScriptTest, NaNWeightRejected) {
  ScriptSession session;
  std::string out;
  ASSERT_TRUE(session.Run(kFig1Setup, &out).ok());
  Status status =
      session.Run("delete Q3(John, XML)\nweight Q3(Joe, XML) nan", &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("Q3(Joe, XML)"), std::string::npos)
      << status.message();
  // The rejected line left the weight alone: the optimum is still 4.
  out.clear();
  ASSERT_TRUE(session.Run("solve exact", &out).ok()) << out;
  EXPECT_NE(out.find("eliminates all of ΔV: yes"), std::string::npos) << out;
  EXPECT_NE(out.find("view side-effect: 4"), std::string::npos) << out;
}

TEST(ScriptTest, PhaseViolationsRejected) {
  ScriptSession session;
  std::string out;
  ASSERT_TRUE(session.Run(kFig1Setup, &out).ok());
  ASSERT_TRUE(session.Run("views", &out).ok());  // materializes
  EXPECT_EQ(session.Execute("insert T1(Zed, TODS)", &out).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Execute("relation T9(a*)", &out).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Execute("query Q9(x, y) :- T1(x, y)", &out).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ScriptTest, ErrorsCarryLineNumbers) {
  ScriptSession session;
  std::string out;
  Status status = session.Run("relation T1(a*, b)\nbogus command", &out);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 2"), std::string::npos);
}

TEST(ScriptTest, UnknownSolverListsKnownOnes) {
  ScriptSession session;
  std::string out;
  ASSERT_TRUE(session.Run(kFig1Setup, &out).ok());
  ASSERT_TRUE(session.Run("delete Q3(John, XML)", &out).ok());
  Status status = session.Execute("solve nope", &out);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("rbsc-lowdeg"), std::string::npos);
}

TEST(ScriptTest, RelationNeedsKey) {
  ScriptSession session;
  std::string out;
  EXPECT_EQ(session.Execute("relation NoKey(a, b)", &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(ScriptTest, CommentsAndBlankLinesIgnored) {
  ScriptSession session;
  std::string out;
  EXPECT_TRUE(session.Run("# just a comment\n\n   \n", &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(ScriptTest, ReportRepeatsLastSolve) {
  ScriptSession session;
  std::string out;
  ASSERT_TRUE(session.Run(kFig1Setup, &out).ok());
  EXPECT_EQ(session.Execute("report", &out).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(session.Run("delete Q3(John, XML)\nsolve greedy", &out).ok());
  out.clear();
  ASSERT_TRUE(session.Execute("report", &out).ok());
  EXPECT_NE(out.find("solver greedy"), std::string::npos);
}

TEST(ScriptTest, CertificatesCommand) {
  ScriptSession session;
  std::string out;
  ASSERT_TRUE(session.Run(kFig1Setup, &out).ok());
  out.clear();
  ASSERT_TRUE(session.Run("certificates Q3(John, XML)", &out).ok()) << out;
  EXPECT_NE(out.find("provenance: "), std::string::npos);
  EXPECT_NE(out.find(" + "), std::string::npos) << "two witnesses";
  EXPECT_NE(out.find("deletion certificates:"), std::string::npos);
  EXPECT_NE(out.find("{T1(John, TKDE), T1(John, TODS)}"), std::string::npos);
}

TEST(ScriptTest, PlanCommand) {
  ScriptSession session;
  std::string out;
  ASSERT_TRUE(session.Run(kFig1Setup, &out).ok());
  out.clear();
  ASSERT_TRUE(session.Run("plan Q3", &out).ok());
  EXPECT_NE(out.find("plan for Q3"), std::string::npos);
  EXPECT_EQ(session.Execute("plan Nope", &out).code(), StatusCode::kNotFound);
}

TEST(ScriptTest, DotCommands) {
  ScriptSession session;
  std::string out;
  ASSERT_TRUE(session.Run(kFig1Setup, &out).ok());
  out.clear();
  ASSERT_TRUE(session.Run("dot lineage", &out).ok());
  EXPECT_NE(out.find("digraph lineage"), std::string::npos);
  out.clear();
  ASSERT_TRUE(session.Run("dot dual", &out).ok());
  EXPECT_NE(out.find("graph dual_hypergraph"), std::string::npos);
  EXPECT_EQ(session.Execute("dot nonsense", &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(ScriptTest, SaveRoundTrips) {
  ScriptSession session;
  std::string out;
  ASSERT_TRUE(session.Run(kFig1Setup, &out).ok());
  ASSERT_TRUE(session.Run("delete Q3(John, XML)", &out).ok());
  std::string saved;
  ASSERT_TRUE(session.Execute("save", &saved).ok());
  // Replaying the saved script yields the same solve outcome.
  ScriptSession replay;
  std::string replay_out;
  ASSERT_TRUE(replay.Run(saved, &replay_out).ok()) << replay_out;
  ASSERT_TRUE(replay.Run("solve exact", &replay_out).ok());
  EXPECT_NE(replay_out.find("view side-effect: 4"), std::string::npos);
}

TEST(ScriptTest, DescribeCommand) {
  ScriptSession session;
  std::string out;
  ASSERT_TRUE(session.Run(kFig1Setup, &out).ok());
  out.clear();
  ASSERT_TRUE(session.Run("describe", &out).ok());
  EXPECT_NE(out.find("2 views"), std::string::npos);
  EXPECT_NE(out.find("key preserving: no"), std::string::npos);
  EXPECT_NE(out.find("recommended solver:"), std::string::npos);
}

TEST(ScriptTest, DuplicateQueryNameRejected) {
  ScriptSession session;
  std::string out;
  ASSERT_TRUE(session.Run("relation E(a*, b*)\ninsert E(x, y)", &out).ok());
  ASSERT_TRUE(session.Execute("query Q(a, b) :- E(a, b)", &out).ok());
  EXPECT_EQ(session.Execute("query Q(b, a) :- E(a, b)", &out).code(),
            StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace delprop
