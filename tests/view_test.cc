#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dp/side_effect.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "workload/author_journal.h"

namespace delprop {
namespace {

class ViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.AddRelation("E", 2, {0, 1}).ok());
    ASSERT_TRUE(db_.InsertText(0, {"a", "b"}).ok());
    Result<ConjunctiveQuery> q =
        ParseQuery("Q(x, y) :- E(x, y)", db_.schema(), db_.dict());
    ASSERT_TRUE(q.ok());
    query_ = std::make_unique<ConjunctiveQuery>(std::move(*q));
  }

  Database db_;
  std::unique_ptr<ConjunctiveQuery> query_;
};

TEST_F(ViewTest, AddMatchDeduplicatesWitnesses) {
  View view(query_.get(), &db_);
  Tuple values = {db_.dict().Intern("a"), db_.dict().Intern("b")};
  Witness witness = {{0, 0}};
  size_t first = view.AddMatch(values, witness);
  size_t second = view.AddMatch(values, witness);
  EXPECT_EQ(first, second);
  EXPECT_EQ(view.size(), 1u);
  EXPECT_EQ(view.tuple(first).witnesses.size(), 1u);
  // A different witness accumulates.
  view.AddMatch(values, Witness{{0, 1}});
  EXPECT_EQ(view.tuple(first).witnesses.size(), 2u);
}

TEST_F(ViewTest, FindMissingReturnsNullopt) {
  View view(query_.get(), &db_);
  Tuple missing = {db_.dict().Intern("zzz"), db_.dict().Intern("b")};
  EXPECT_FALSE(view.Find(missing).has_value());
}

TEST_F(ViewTest, SurvivesRequiresDisjointWitness) {
  View view(query_.get(), &db_);
  Tuple values = {db_.dict().Intern("a"), db_.dict().Intern("b")};
  view.AddMatch(values, Witness{{0, 0}});
  view.AddMatch(values, Witness{{0, 1}});
  DeletionSet one;
  one.Insert({0, 0});
  EXPECT_TRUE(view.Survives(0, one)) << "second witness intact";
  one.Insert({0, 1});
  EXPECT_FALSE(view.Survives(0, one));
}

TEST_F(ViewTest, RenderTupleUsesQueryName) {
  Result<View> view = Evaluate(db_, *query_);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->size(), 1u);
  EXPECT_EQ(view->RenderTuple(0), "Q(a, b)");
}

// The head-value index across RemoveTuples: a view with enough distinct heads
// that the table grows several times, compacted by scattered and by bulk
// removals.
class ViewIndexTest : public ViewTest {
 protected:
  Tuple Head(size_t i) {
    return {db_.dict().Intern("h" + std::to_string(i)),
            db_.dict().Intern("b")};
  }

  /// Adds a fresh head, which must land at the end of the view.
  void Append(size_t head) {
    ASSERT_EQ(view_->AddMatch(Head(head), Witness{{0, uint32_t(head)}}),
              heads_.size());
    heads_.push_back(head);
  }

  void Build(size_t n) {
    view_.emplace(query_.get(), &db_);
    for (size_t i = 0; i < n; ++i) Append(i);
  }

  /// Removes view positions `dead` (ascending), then checks survivor order
  /// and Find on the view and on a copy of it.
  void RemoveAndCheck(const std::vector<size_t>& dead) {
    std::vector<size_t> removed;
    std::vector<size_t> kept;
    for (size_t t = 0; t < heads_.size(); ++t) {
      bool is_dead = std::binary_search(dead.begin(), dead.end(), t);
      (is_dead ? removed : kept).push_back(heads_[t]);
    }
    view_->RemoveTuples(dead);
    heads_ = kept;
    removed_.insert(removed_.end(), removed.begin(), removed.end());

    const View copy = *view_;
    ASSERT_EQ(view_->size(), heads_.size());
    for (size_t t = 0; t < heads_.size(); ++t) {
      ASSERT_EQ(view_->tuple(t).values, Head(heads_[t])) << "order at " << t;
      EXPECT_EQ(view_->Find(Head(heads_[t])), std::optional<size_t>(t));
      EXPECT_EQ(copy.Find(Head(heads_[t])), std::optional<size_t>(t));
    }
    for (size_t head : removed_) {
      EXPECT_FALSE(view_->Find(Head(head)).has_value()) << "h" << head;
      EXPECT_FALSE(copy.Find(Head(head)).has_value()) << "h" << head;
    }
  }

  /// AddMatch of a removed head appends a new tuple; AddMatch of a
  /// survivor's head adds the witness to that survivor.
  void CheckAddMatch() {
    size_t size = view_->size();
    size_t removed = removed_.front();
    EXPECT_EQ(view_->AddMatch(Head(removed), Witness{{0, 0}}), size);
    EXPECT_EQ(view_->Find(Head(removed)), std::optional<size_t>(size));
    size_t survivor = size / 2;
    EXPECT_EQ(view_->AddMatch(Head(heads_[survivor]), Witness{{1, 0}}),
              survivor);
    EXPECT_EQ(view_->tuple(survivor).witnesses.size(), 2u);
    EXPECT_EQ(view_->size(), size + 1);
  }

  std::optional<View> view_;
  std::vector<size_t> heads_;    // head number at each view position
  std::vector<size_t> removed_;  // head numbers removed so far
};

TEST_F(ViewIndexTest, RemoveScatteredTuplesRepointsIndex) {
  Build(1200);
  RemoveAndCheck({0, 17, 500, 501, 1024, 1199});
  RemoveAndCheck({0, 3, 600, heads_.size() - 1});
  CheckAddMatch();
}

TEST_F(ViewIndexTest, RemoveMostTuplesRepointsIndex) {
  Build(1200);
  std::vector<size_t> dead;
  for (size_t t = 0; t < 1200; ++t) {
    if (t % 3 != 1) dead.push_back(t);
  }
  RemoveAndCheck(dead);
  ASSERT_EQ(view_->size(), 400u);
  CheckAddMatch();
}

// Removals of every size interleaved with appends, so RemoveTuples erases
// and re-points at varying table loads.
TEST_F(ViewIndexTest, RandomRemovalsAndAppendsKeepIndexValid) {
  Build(2000);
  Rng rng(16);
  size_t next_head = 2000;
  for (size_t round = 0; round < 12; ++round) {
    size_t max_removed = round % 3 == 0 ? view_->size() / 2 : 8;
    std::vector<size_t> dead =
        rng.SampleIndices(view_->size(), 1 + rng.NextBelow(max_removed));
    std::sort(dead.begin(), dead.end());
    RemoveAndCheck(dead);
    for (size_t i = 0; i < 100; ++i) Append(next_head++);
  }
  CheckAddMatch();
}

TEST(EvaluatorGuardTest, MaxMatchesTriggersOnCartesianBlowup) {
  Database db;
  ASSERT_TRUE(db.AddRelation("A", 1, {0}).ok());
  ASSERT_TRUE(db.AddRelation("B", 1, {0}).ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db.InsertText(0, {"a" + std::to_string(i)}).ok());
    ASSERT_TRUE(db.InsertText(1, {"b" + std::to_string(i)}).ok());
  }
  Result<ConjunctiveQuery> q =
      ParseQuery("Q(x, y) :- A(x), B(y)", db.schema(), db.dict());
  ASSERT_TRUE(q.ok());
  EvalOptions options;
  options.max_matches = 100;
  Result<View> view = Evaluate(db, *q, options);  // 900 matches > 100
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kOutOfRange);
  // Within the limit it succeeds.
  options.max_matches = 1000;
  EXPECT_TRUE(Evaluate(db, *q, options).ok());
  // Zero disables the guard.
  options.max_matches = 0;
  EXPECT_TRUE(Evaluate(db, *q, options).ok());
}

TEST(PerViewSideEffectTest, BreakdownMatchesDefinition) {
  Result<GeneratedVse> generated = BuildFig1Example();
  ASSERT_TRUE(generated.ok());
  VseInstance& instance = *generated->instance;
  ASSERT_TRUE(instance.MarkForDeletionByValues(0, {"John", "XML"}).ok());
  RelationId t1 = *generated->database->schema().FindRelation("T1");
  DeletionSet deletion;
  deletion.Insert({t1, 1});
  deletion.Insert({t1, 3});
  SideEffectReport report = EvaluateDeletion(instance, deletion);
  ASSERT_EQ(report.per_view_side_effect.size(), 2u);
  EXPECT_EQ(report.per_view_side_effect[0], 1u) << "Q3 loses (John, CUBE)";
  EXPECT_EQ(report.per_view_side_effect[1], 3u) << "Q4 loses John's 3 rows";
  EXPECT_EQ(report.per_view_side_effect[0] + report.per_view_side_effect[1],
            report.side_effect_count);
}

}  // namespace
}  // namespace delprop
