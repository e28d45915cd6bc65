#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "dp/vse_instance.h"
#include "plan/compiled_instance.h"
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

}  // namespace
}  // namespace delprop
