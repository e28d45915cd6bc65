#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "dp/base_delta.h"
#include "dp/vse_instance.h"
#include "plan/compiled_instance.h"
#include "query/parser.h"
#include "testing/fuzzer.h"
#include "testing/reference_eval.h"
#include "workload/author_journal.h"
#include "workload/path_schema.h"

namespace delprop {
namespace {

class PlanFig1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<GeneratedVse> generated = BuildFig1Example();
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    generated_ = std::move(*generated);
    ASSERT_TRUE(
        instance().MarkForDeletionByValues(0, {"John", "XML"}).ok());
  }

  VseInstance& instance() { return *generated_.instance; }

  GeneratedVse generated_;
};

TEST_F(PlanFig1Test, DenseIdRoundTrip) {
  std::shared_ptr<const CompiledInstance> plan = instance().compiled();
  ASSERT_EQ(plan->tuple_count(), instance().TotalViewTuples());
  uint32_t expected = 0;
  for (size_t v = 0; v < instance().view_count(); ++v) {
    for (size_t t = 0; t < instance().view(v).size(); ++t) {
      ViewTupleId id{v, t};
      uint32_t dense = plan->DenseOf(id);
      // Dense ids are assigned in ascending (view, tuple) order.
      EXPECT_EQ(dense, expected++);
      EXPECT_EQ(plan->IdOf(dense), id);
      EXPECT_DOUBLE_EQ(plan->weight(dense), instance().weight(id));
      EXPECT_EQ(plan->is_deletion(dense),
                instance().IsMarkedForDeletion(id));
    }
  }
}

TEST_F(PlanFig1Test, BaseInterningIsSortedBijection) {
  std::shared_ptr<const CompiledInstance> plan = instance().compiled();
  ASSERT_GT(plan->base_count(), 0u);
  for (uint32_t b = 0; b < plan->base_count(); ++b) {
    if (b + 1 < plan->base_count()) {
      EXPECT_TRUE(plan->base_ref(b) < plan->base_ref(b + 1));
    }
    EXPECT_EQ(plan->FindBase(plan->base_ref(b)), b);
  }
  EXPECT_EQ(plan->FindBase(TupleRef{RelationId{0}, 9999}),
            CompiledInstance::kNpos);
}

TEST_F(PlanFig1Test, WitnessRowsKeepRawMembers) {
  std::shared_ptr<const CompiledInstance> plan = instance().compiled();
  for (size_t v = 0; v < instance().view_count(); ++v) {
    const View& view = instance().view(v);
    for (size_t t = 0; t < view.size(); ++t) {
      uint32_t dense = plan->DenseOf(ViewTupleId{v, t});
      const std::vector<Witness>& witnesses = view.tuple(t).witnesses;
      ASSERT_EQ(plan->tuple_witness_count(dense), witnesses.size());
      for (size_t w = 0; w < witnesses.size(); ++w) {
        uint32_t wid =
            plan->tuple_witness_begin(dense) + static_cast<uint32_t>(w);
        EXPECT_EQ(plan->witness_owner(wid), dense);
        ASSERT_EQ(plan->member_end(wid) - plan->member_begin(wid),
                  witnesses[w].size());
        for (size_t m = 0; m < witnesses[w].size(); ++m) {
          uint32_t base = plan->member_base(plan->member_begin(wid) +
                                            static_cast<uint32_t>(m));
          EXPECT_EQ(plan->base_ref(base), witnesses[w][m]);
        }
      }
    }
  }
}

// Both the kill rows and KilledBy (which reads them) must reproduce the
// reference index built straight from the views.
TEST_F(PlanFig1Test, KillRowsMatchKilledBy) {
  std::shared_ptr<const CompiledInstance> plan = instance().compiled();
  testing::KillIndex reference = testing::ReferenceKillIndex(instance());
  ASSERT_EQ(reference.size(), plan->base_count());
  for (uint32_t b = 0; b < plan->base_count(); ++b) {
    const std::vector<ViewTupleId>& killed = reference.at(plan->base_ref(b));
    ASSERT_EQ(plan->kill_end(b) - plan->kill_begin(b), killed.size());
    for (size_t k = 0; k < killed.size(); ++k) {
      uint32_t dense =
          plan->kill_tuple(plan->kill_begin(b) + static_cast<uint32_t>(k));
      EXPECT_EQ(plan->IdOf(dense), killed[k]);
    }
    EXPECT_EQ(instance().KilledBy(plan->base_ref(b)), killed);
  }
}

TEST_F(PlanFig1Test, OccRowsSortedAndMirrorWitnessMembership) {
  std::shared_ptr<const CompiledInstance> plan = instance().compiled();
  size_t occ_total = 0;
  for (uint32_t b = 0; b < plan->base_count(); ++b) {
    for (uint32_t slot = plan->occ_begin(b); slot < plan->occ_end(b);
         ++slot) {
      ++occ_total;
      if (slot + 1 < plan->occ_end(b)) {
        // Sorted by (tuple, witness), one entry per witness.
        EXPECT_LE(plan->occ_tuple(slot), plan->occ_tuple(slot + 1));
        if (plan->occ_tuple(slot) == plan->occ_tuple(slot + 1)) {
          EXPECT_LT(plan->occ_witness(slot), plan->occ_witness(slot + 1));
        }
      }
      uint32_t wid = plan->occ_witness(slot);
      EXPECT_EQ(plan->witness_owner(wid), plan->occ_tuple(slot));
      // The witness really contains this base.
      bool found = false;
      for (uint32_t m = plan->member_begin(wid); m < plan->member_end(wid);
           ++m) {
        if (plan->member_base(m) == b) found = true;
      }
      EXPECT_TRUE(found);
    }
  }
  // Every witness membership appears exactly once per (base, witness) pair.
  size_t expected = 0;
  for (uint32_t w = 0; w < plan->witness_count(); ++w) {
    std::vector<uint32_t> members;
    for (uint32_t m = plan->member_begin(w); m < plan->member_end(w); ++m) {
      members.push_back(plan->member_base(m));
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    expected += members.size();
  }
  EXPECT_EQ(occ_total, expected);
}

TEST_F(PlanFig1Test, DeletionAndCandidateListsMirrorInstance) {
  std::shared_ptr<const CompiledInstance> plan = instance().compiled();
  const std::vector<ViewTupleId>& deletions = instance().deletion_tuples();
  ASSERT_EQ(plan->deletion_dense().size(), deletions.size());
  for (size_t i = 0; i < deletions.size(); ++i) {
    uint32_t dense = plan->deletion_dense()[i];
    EXPECT_EQ(plan->IdOf(dense), deletions[i]);
    EXPECT_EQ(plan->deletion_index(dense), i);
  }
  std::vector<TupleRef> candidates = instance().CandidateTuples();
  ASSERT_EQ(plan->candidate_bases().size(), candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(plan->base_ref(plan->candidate_bases()[i]), candidates[i]);
  }
}

TEST_F(PlanFig1Test, CompiledCacheSharedAndInvalidatedByMarks) {
  std::shared_ptr<const CompiledInstance> first = instance().compiled();
  // Cached: repeated calls hand out the same plan.
  EXPECT_EQ(first.get(), instance().compiled().get());

  ASSERT_TRUE(instance().MarkForDeletionByValues(0, {"Tom", "XML"}).ok());
  std::shared_ptr<const CompiledInstance> second = instance().compiled();
  EXPECT_NE(first.get(), second.get());
  // The old shared_ptr stays valid (readers in flight keep their snapshot)
  // while the new plan reflects the extra deletion.
  EXPECT_EQ(second->deletion_dense().size(),
            first->deletion_dense().size() + 1);

  ViewTupleId reweighted{0, 0};
  ASSERT_TRUE(instance().SetWeight(reweighted, 7.5).ok());
  std::shared_ptr<const CompiledInstance> third = instance().compiled();
  EXPECT_NE(second.get(), third.get());
  EXPECT_DOUBLE_EQ(third->weight(third->DenseOf(reweighted)), 7.5);
  EXPECT_DOUBLE_EQ(second->weight(second->DenseOf(reweighted)), 1.0);
}

// A larger key-preserving instance: the plan's aggregate shapes must line up
// with the instance on something beyond the hand-sized Fig. 1 example.
TEST(PlanPathSchemaTest, AggregateShapesMatch) {
  Rng rng(11);
  PathSchemaParams params;
  params.levels = 4;
  params.roots = 2;
  params.fanout = 2;
  params.deletion_fraction = 0.3;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  VseInstance& instance = *generated->instance;
  ASSERT_GT(instance.TotalDeletionTuples(), 0u);

  std::shared_ptr<const CompiledInstance> plan = instance.compiled();
  EXPECT_EQ(plan->tuple_count(), instance.TotalViewTuples());
  size_t witness_total = 0;
  for (size_t v = 0; v < instance.view_count(); ++v) {
    for (size_t t = 0; t < instance.view(v).size(); ++t) {
      witness_total += instance.view(v).tuple(t).witnesses.size();
    }
  }
  EXPECT_EQ(plan->witness_count(), witness_total);
  EXPECT_EQ(plan->candidate_bases().size(),
            instance.CandidateTuples().size());
}

// Round-trip over the fuzz families: a handful of seeds from each generator
// shape (random/path/star/hardness) through the full dense encoding.
TEST(PlanFuzzTest, DenseRoundTripOverFuzzSeeds) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Result<testing::FuzzCase> fuzz = testing::GenerateFuzzCase(seed);
    ASSERT_TRUE(fuzz.ok()) << fuzz.status().ToString();
    VseInstance& instance = *fuzz->generated.instance;
    std::shared_ptr<const CompiledInstance> plan = instance.compiled();
    ASSERT_EQ(plan->tuple_count(), instance.TotalViewTuples())
        << "seed " << seed;
    for (size_t v = 0; v < instance.view_count(); ++v) {
      for (size_t t = 0; t < instance.view(v).size(); ++t) {
        ViewTupleId id{v, t};
        uint32_t dense = plan->DenseOf(id);
        ASSERT_EQ(plan->IdOf(dense), id) << "seed " << seed;
        ASSERT_EQ(plan->is_deletion(dense),
                  instance.IsMarkedForDeletion(id))
            << "seed " << seed;
      }
    }
    for (uint32_t b = 0; b < plan->base_count(); ++b) {
      ASSERT_EQ(plan->FindBase(plan->base_ref(b)), b) << "seed " << seed;
    }
  }
}

// Base interning reads ids from a per-database-row table. This database has
// rows outside every witness in each queried relation, a relation no query
// reads (first, so the table's offsets skip it) and an empty relation
// (between the two queried ones).
class PlanRowTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    u_ = *db_.AddRelation("U", 1, {0});
    r_ = *db_.AddRelation("R", 2, {0});
    ASSERT_TRUE(db_.AddRelation("E", 1, {0}).ok());
    s_ = *db_.AddRelation("S", 2, {0});
    for (const char* u : {"u0", "u1", "u2"}) {
      ASSERT_TRUE(db_.InsertText(u_, {u}).ok());
    }
    // R rows 1 and 3 and S rows 0 and 2 join nothing.
    ASSERT_TRUE(db_.InsertText(r_, {"a0", "b0"}).ok());
    ASSERT_TRUE(db_.InsertText(r_, {"a1", "lonely"}).ok());
    ASSERT_TRUE(db_.InsertText(r_, {"a2", "b1"}).ok());
    ASSERT_TRUE(db_.InsertText(r_, {"a3", "nowhere"}).ok());
    ASSERT_TRUE(db_.InsertText(r_, {"a4", "b0"}).ok());
    ASSERT_TRUE(db_.InsertText(s_, {"unjoined", "c9"}).ok());
    ASSERT_TRUE(db_.InsertText(s_, {"b0", "c0"}).ok());
    ASSERT_TRUE(db_.InsertText(s_, {"stray", "c8"}).ok());
    ASSERT_TRUE(db_.InsertText(s_, {"b1", "c1"}).ok());
    Result<ConjunctiveQuery> query =
        ParseQuery("Q(a, c) :- R(a, b), S(b, c)", db_.schema(), db_.dict());
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    query_ = std::make_unique<ConjunctiveQuery>(std::move(*query));
    Result<VseInstance> instance = VseInstance::Create(db_, {query_.get()});
    ASSERT_TRUE(instance.ok()) << instance.status().ToString();
    instance_ = std::make_unique<VseInstance>(std::move(*instance));
  }

  /// The witness refs of every view tuple, sorted and deduplicated: what
  /// the base id space must be, computed without the plan.
  std::vector<TupleRef> SortedWitnessRefs() const {
    std::vector<TupleRef> refs;
    for (size_t v = 0; v < instance_->view_count(); ++v) {
      for (size_t t = 0; t < instance_->view(v).size(); ++t) {
        for (const Witness& w : instance_->view(v).tuple(t).witnesses) {
          refs.insert(refs.end(), w.begin(), w.end());
        }
      }
    }
    std::sort(refs.begin(), refs.end());
    refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
    return refs;
  }

  void ExpectBasesAreWitnessRefs() {
    std::shared_ptr<const CompiledInstance> plan = instance_->compiled();
    std::vector<TupleRef> expected = SortedWitnessRefs();
    const std::vector<TupleRef>& bases = plan->core()->base_refs;
    ASSERT_EQ(bases.size(), expected.size());
    for (size_t b = 0; b < expected.size(); ++b) {
      EXPECT_TRUE(bases[b] == expected[b]) << "base " << b;
      EXPECT_EQ(plan->FindBase(expected[b]), b);
    }
    // Reserved at the exact count, not at the number of witness members.
    EXPECT_EQ(bases.capacity(), bases.size());
    // Every other database row has no base id.
    for (RelationId r = 0; r < db_.relation_count(); ++r) {
      for (uint32_t row = 0; row < db_.relation(r).row_count(); ++row) {
        TupleRef ref{r, row};
        if (!std::binary_search(expected.begin(), expected.end(), ref)) {
          EXPECT_EQ(plan->FindBase(ref), CompiledInstance::kNpos)
              << "relation " << r << " row " << row;
        }
      }
    }
  }

  Database db_;
  RelationId u_ = 0;
  RelationId r_ = 0;
  RelationId s_ = 0;
  std::unique_ptr<ConjunctiveQuery> query_;
  std::unique_ptr<VseInstance> instance_;
};

TEST_F(PlanRowTableTest, BasesAreTheSortedWitnessRefs) {
  // Q = {(a0, c0), (a2, c1), (a4, c0)}: R rows 0, 2, 4 and S rows 1, 3.
  ASSERT_EQ(instance_->view(0).size(), 3u);
  ExpectBasesAreWitnessRefs();
  EXPECT_EQ(instance_->compiled()->base_count(), 5u);
}

TEST_F(PlanRowTableTest, FullRebuildAfterAppendingRows) {
  (void)instance_->compiled();
  BaseDelta delta;
  auto row = [&](RelationId relation, const char* a, const char* b) {
    return BaseInsert{relation, {db_.dict().Intern(a), db_.dict().Intern(b)}};
  };
  delta.inserts.push_back(row(r_, "a5", "b1"));     // joins S row 3
  delta.inserts.push_back(row(r_, "a6", "b2"));     // joins the new S row
  delta.inserts.push_back(row(r_, "a7", "void"));   // joins nothing
  delta.inserts.push_back(row(s_, "b2", "c2"));
  delta.inserts.push_back(row(s_, "ghost", "c7"));  // joins nothing
  delta.inserts.push_back(BaseInsert{u_, {db_.dict().Intern("u3")}});
  delta.deletes.push_back(TupleRef{r_, 0});
  ApplyDeltaOptions rebuild_always;
  rebuild_always.patch_threshold = 0.0;
  ApplyDeltaReport report;
  ASSERT_TRUE(
      instance_->ApplyDelta(db_, delta, rebuild_always, &report).ok());
  EXPECT_TRUE(report.core_rebuilt);
  size_t full_builds = instance_->plan_stats().full_builds;
  ExpectBasesAreWitnessRefs();
  EXPECT_EQ(instance_->plan_stats().full_builds, full_builds + 1);
  // (a2, c1), (a4, c0), (a5, c1), (a6, c2): R rows 2, 4, 5, 6 and S rows
  // 1, 3, 4.
  EXPECT_EQ(instance_->TotalViewTuples(), 4u);
  EXPECT_EQ(instance_->compiled()->base_count(), 7u);
}

}  // namespace
}  // namespace delprop
