#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dp/base_delta.h"
#include "dp/vse_instance.h"
#include "plan/compiled_instance.h"
#include "query/parser.h"
#include "runtime/thread_pool.h"
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

// --- Recorded cores ---------------------------------------------------------

// Size and FNV-1a hash of one core array's bytes, one line per array. Doubles
// are hashed by their bit pattern, so -0.0 and 0.0 differ.
template <typename T>
std::string ArrayLine(const char* name, const std::vector<T>& values) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const unsigned char* bytes =
      reinterpret_cast<const unsigned char*>(values.data());
  for (size_t i = 0; i < values.size() * sizeof(T); ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  char line[96];
  std::snprintf(line, sizeof(line), "%s %zu %016llx\n", name, values.size(),
                static_cast<unsigned long long>(hash));
  return line;
}

/// Every PlanCore field, as the lines the goldens below were recorded in.
std::string CoreDigest(const PlanCore& core) {
  return ArrayLine("view_first", core.view_first) +
         ArrayLine("tuple_view", core.tuple_view) +
         ArrayLine("weight", core.weight) +
         ArrayLine("tuple_witness_first", core.tuple_witness_first) +
         ArrayLine("witness_owner", core.witness_owner) +
         ArrayLine("witness_member_first", core.witness_member_first) +
         ArrayLine("witness_member_base", core.witness_member_base) +
         ArrayLine("base_refs", core.base_refs) +
         ArrayLine("base_occ_first", core.base_occ_first) +
         ArrayLine("occ_tuple", core.occ_tuple) +
         ArrayLine("occ_witness", core.occ_witness) +
         ArrayLine("base_kill_first", core.base_kill_first) +
         ArrayLine("kill_tuple", core.kill_tuple) + "min_witness_raw_members " +
         std::to_string(core.min_witness_raw_members) + "\n";
}

/// A database and its queries, evaluated into an instance.
struct ParsedInstance {
  Database db;
  std::vector<std::unique_ptr<ConjunctiveQuery>> queries;
  std::unique_ptr<VseInstance> instance;
};

/// Parses `query_texts` over `parsed->db` and evaluates them into
/// `parsed->instance`; false (with a test failure) on any error.
bool Evaluate(ParsedInstance* parsed,
              const std::vector<const char*>& query_texts) {
  std::vector<const ConjunctiveQuery*> queries;
  for (const char* text : query_texts) {
    Result<ConjunctiveQuery> query =
        ParseQuery(text, parsed->db.schema(), parsed->db.dict());
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    if (!query.ok()) return false;
    parsed->queries.push_back(
        std::make_unique<ConjunctiveQuery>(std::move(*query)));
    queries.push_back(parsed->queries.back().get());
  }
  Result<VseInstance> instance = VseInstance::Create(parsed->db, queries);
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  if (!instance.ok()) return false;
  parsed->instance = std::make_unique<VseInstance>(std::move(*instance));
  return true;
}

/// Every base's KilledBy lists each view tuple once, ascending.
void ExpectKilledByListsEachTupleOnce(const VseInstance& instance) {
  for (const TupleRef& ref : instance.compiled()->core()->base_refs) {
    std::vector<ViewTupleId> killed = instance.KilledBy(ref);
    ASSERT_FALSE(killed.empty());
    for (size_t k = 1; k < killed.size(); ++k) {
      EXPECT_TRUE(killed[k - 1] < killed[k])
          << "relation " << ref.relation << " row " << ref.row;
    }
  }
}

// A projection: Q(a1) and Q(a2) each have two witnesses through the same R
// row (two S rows share y = b1), so that row's occurrence row lists the
// tuple twice and its kill row once.
constexpr const char* kProjectionCore = R"(view_first 3 7337d825d9ad933e
tuple_view 8 031001be9253e9f4
weight 8 01254f26d3b0bba5
tuple_witness_first 9 e6f2988f1837057c
witness_owner 10 29666791376965c4
witness_member_first 11 d531d96c289de443
witness_member_base 20 8208da25b1e6a785
base_refs 6 64fcba9aef76d344
base_occ_first 7 180349e24a2b7b1b
occ_tuple 20 dc71f0aa9ca737c5
occ_witness 20 cf85e55b98630ce5
base_kill_first 7 e44b4b05943016b6
kill_tuple 18 48d16ce7f4ac8dd4
min_witness_raw_members 2
)";
// A self-join: E(a, a) fills both atoms of Q(a, a)'s witness, and the other
// witnesses list their members in descending row order.
constexpr const char* kSelfJoinCore = R"(view_first 3 f377c7c1cf28bc72
tuple_view 4 e82573b10ac9a7d4
weight 4 d137d9e6997fe665
tuple_witness_first 5 2b1ecd5c20779f13
witness_owner 6 c75e46e5581a2f95
witness_member_first 7 ea9872bf279d9edb
witness_member_base 12 bd6c5e9e79098a45
base_refs 3 cc84144751d96376
base_occ_first 4 f8913517331976ab
occ_tuple 10 64c1e999899a68a4
occ_witness 10 87986f745ffcff32
base_kill_first 4 d796a40f919d47aa
kill_tuple 8 abbe9d3dd7c0b9e4
min_witness_raw_members 2
)";
// Fig. 1 with explicit weights, one of them -0.0.
constexpr const char* kWeightedFig1Core = R"(view_first 3 f6378723bb80ea8e
tuple_view 13 22cb2e56d50bc574
weight 13 5e11391a420fe4d1
tuple_witness_first 14 717925514631cdb8
witness_owner 14 66947ac5734944b8
witness_member_first 15 800e4e9cd458e2cb
witness_member_base 28 67f60af6133e7765
base_refs 7 1c3dafa45bd259f7
base_occ_first 8 139a6821ed35fcb9
occ_tuple 28 cbed09f453b70835
occ_witness 28 26eb96fbd08b70e5
base_kill_first 8 139a6821ed35fcb9
kill_tuple 28 cbed09f453b70835
min_witness_raw_members 2
)";
// The 1x path forest (6 levels, 3 roots, fanout 3) after a leaf swap.
constexpr const char* kSwappedForestCore = R"(view_first 6 c7eff1f473885976
tuple_view 3645 3ebe117ab0262c71
weight 3645 65f15f1b12ee98f8
tuple_witness_first 3646 d71abe11fc8738a8
witness_owner 3645 77f3eee89501770f
witness_member_first 3646 799ac7a3c4247a01
witness_member_base 14580 dbe67816fd2d8281
base_refs 1092 73b655d9f536ee69
base_occ_first 1093 a0cd91ceb6c75006
occ_tuple 14580 e61c5de8ea0312f5
occ_witness 14580 e61c5de8ea0312f5
base_kill_first 1093 a0cd91ceb6c75006
kill_tuple 14580 e61c5de8ea0312f5
min_witness_raw_members 2
)";

// Every core array against digests recorded from an earlier builder (two
// witness walks, a flattened dedup copy in FinishCore): the builder must
// reproduce them byte for byte, including after a delta, when it rebuilds
// into the dropped core. The kill rows' per-tuple dedup shows only where
// one base lies in two witnesses of one view tuple (the projection and the
// self-join). Every core is also built through pools of 2, 3 and 4 threads,
// whose range splits must not show: three threads split the forest's views
// unevenly, and four give the small instances empty ranges.
TEST(PlanTest, CoreMatchesRecordedGoldens) {
  for (size_t threads : {0, 2, 3, 4}) {
    SCOPED_TRACE(threads);
    std::unique_ptr<ThreadPool> owned =
        threads == 0 ? nullptr : std::make_unique<ThreadPool>(threads);
    ThreadPool* pool = owned.get();

    ParsedInstance projection;
    {
      Database& db = projection.db;
      RelationId r = *db.AddRelation("R", 2, {0});
      RelationId s = *db.AddRelation("S", 2, {1});
      for (auto [x, y] :
           {std::pair{"a1", "b1"}, {"a2", "b1"}, {"a3", "b2"}}) {
        ASSERT_TRUE(db.InsertText(r, {x, y}).ok());
      }
      for (auto [y, z] :
           {std::pair{"b1", "c1"}, {"b1", "c2"}, {"b2", "c3"}}) {
        ASSERT_TRUE(db.InsertText(s, {y, z}).ok());
      }
    }
    ASSERT_TRUE(Evaluate(&projection, {"Q(x) :- R(x, y), S(y, z)",
                                       "P(x, z) :- R(x, y), S(y, z)"}));
    ASSERT_FALSE(projection.instance->all_unique_witness());
    EXPECT_EQ(CoreDigest(*projection.instance->compiled(pool)->core()),
              kProjectionCore);
    ExpectKilledByListsEachTupleOnce(*projection.instance);

    ParsedInstance self_join;
    {
      Database& db = self_join.db;
      RelationId e = *db.AddRelation("E", 2, {0, 1});
      for (auto [x, y] : {std::pair{"b", "c"}, {"a", "b"}, {"a", "a"}}) {
        ASSERT_TRUE(db.InsertText(e, {x, y}).ok());
      }
    }
    ASSERT_TRUE(Evaluate(&self_join, {"Q(x, z) :- E(x, y), E(y, z)",
                                      "S(x) :- E(x, y), E(y, z)"}));
    EXPECT_EQ(CoreDigest(*self_join.instance->compiled(pool)->core()),
              kSelfJoinCore);
    ExpectKilledByListsEachTupleOnce(*self_join.instance);

    Result<GeneratedVse> fig1 = BuildFig1Example();
    ASSERT_TRUE(fig1.ok()) << fig1.status().ToString();
    VseInstance& weighted = *fig1->instance;
    ASSERT_TRUE(weighted.SetWeight(ViewTupleId{0, 1}, 2.5).ok());
    ASSERT_TRUE(weighted.SetWeight(ViewTupleId{0, 2}, -0.0).ok());
    ASSERT_TRUE(weighted.SetWeight(ViewTupleId{1, 0}, 0.0).ok());
    ASSERT_TRUE(weighted.SetWeight(ViewTupleId{1, 3}, 0.125).ok());
    std::shared_ptr<const PlanCore> weighted_core =
        weighted.compiled(pool)->core();
    EXPECT_TRUE(std::signbit(weighted_core->weight[2]));
    EXPECT_EQ(CoreDigest(*weighted_core), kWeightedFig1Core);
    ExpectKilledByListsEachTupleOnce(weighted);

    Rng rng(7);
    PathSchemaParams params;
    params.levels = 6;
    params.roots = 3;
    params.fanout = 3;
    Result<GeneratedVse> forest = GeneratePathSchema(rng, params);
    ASSERT_TRUE(forest.ok()) << forest.status().ToString();
    Database& db = *forest->database;
    RelationId leaf = *db.schema().FindRelation("L5");
    const Tuple& swapped = db.relation(leaf).row(7);
    BaseDelta swap;
    swap.deletes.push_back(TupleRef{leaf, 7});
    swap.inserts.push_back(BaseInsert{
        leaf, {db.dict().Intern("swapped"), swapped[1], swapped[2]}});
    ASSERT_TRUE(forest->instance->ApplyDelta(db, swap, {}, nullptr, pool).ok());
    EXPECT_EQ(CoreDigest(*forest->instance->compiled(pool)->core()),
              kSwappedForestCore);
    EXPECT_EQ(forest->instance->plan_stats().core_reuses, 1u);
    ExpectKilledByListsEachTupleOnce(*forest->instance);
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
  ASSERT_TRUE(instance_->ApplyDelta(db_, delta).ok());
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
