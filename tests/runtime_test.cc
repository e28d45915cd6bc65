// Tests for the runtime substrate: ThreadPool / ParallelFor scheduling,
// deterministic per-task RNG seeding, and the shared evaluator IndexCache
// (hit/miss accounting, staleness after Database mutation, and concurrent
// Evaluate() calls sharing one cache). The concurrency tests are written to
// be clean under TSan: tasks write disjoint slots, shared counters are
// atomic, and every cross-thread handoff goes through ParallelFor's join.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/evaluator.h"
#include "runtime/index_cache.h"
#include "runtime/thread_pool.h"
#include "workload/author_journal.h"

namespace delprop {
namespace {

TEST(ThreadPoolTest, SubmitAndWaitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    // delprop-lint: shared-core-mutation-ok pool.Wait() below outlives capture
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
  // The pool is reusable after Wait().
  // delprop-lint: shared-core-mutation-ok pool.Wait() below outlives capture
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 101);
}

TEST(ThreadPoolTest, ZeroThreadRequestClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> counter{0};
  // delprop-lint: shared-core-mutation-ok pool.Wait() below outlives capture
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      // delprop-lint: shared-core-mutation-ok dtor drains before counter dies
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): the destructor must finish the queue before joining.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (ThreadPool* pool_ptr : {static_cast<ThreadPool*>(nullptr)}) {
    std::vector<int> visits(257, 0);
    ParallelFor(pool_ptr, visits.size(),
                [&visits](size_t i) { visits[i] += 1; });
    for (int v : visits) EXPECT_EQ(v, 1);
  }
  ThreadPool pool(4);
  std::vector<int> visits(257, 0);
  ParallelFor(&pool, visits.size(), [&visits](size_t i) { visits[i] += 1; });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(ParallelForTest, ZeroCountIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  ParallelFor(&pool, 0, [&ran](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, SlotWritesMatchSerialExecution) {
  // The determinism contract: tasks seeded via DeriveTaskSeed and writing
  // pre-assigned slots produce the same result at any thread count.
  auto run = [](ThreadPool* pool) {
    std::vector<uint64_t> out(64, 0);
    ParallelFor(pool, out.size(), [&out](size_t i) {
      Rng rng(DeriveTaskSeed(123, i));
      uint64_t acc = 0;
      for (int k = 0; k < 10; ++k) acc ^= rng.Next();
      out[i] = acc;
    });
    return out;
  };
  ThreadPool pool(4);
  EXPECT_EQ(run(nullptr), run(&pool));
}

// A body that calls ParallelFor on the pool running it. Blocking the worker
// on the inner runners deadlocks once every worker does so (2 outer bodies
// on 2 workers), which happened in about a third of the runs before nested
// calls ran inline; 100 repetitions make a regression hang. The loops run
// on a helper pool's worker so that a hang fails at the deadline instead of
// stalling the suite.
TEST(ParallelForTest, NestedCallOnTheSamePoolCompletes) {
  constexpr size_t kOuter = 2;
  constexpr size_t kInner = 4;
  auto finished = std::make_shared<std::promise<std::vector<int>>>();
  std::future<std::vector<int>> visits_future = finished->get_future();
  ThreadPool helper(1);
  helper.Submit([finished] {
    std::vector<int> visits(kOuter * kInner, 0);
    for (int rep = 0; rep < 100; ++rep) {
      ThreadPool pool(2);
      ParallelFor(&pool, kOuter, [&](size_t outer) {
        ParallelFor(&pool, kInner, [&](size_t inner) {
          visits[outer * kInner + inner] += 1;
        });
      });
    }
    finished->set_value(std::move(visits));
  });
  if (visits_future.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    // Neither the stuck pool nor the helper can be joined: end the process.
    std::fprintf(stderr, "nested ParallelFor on one pool deadlocked\n");
    std::_Exit(1);
  }
  for (int v : visits_future.get()) EXPECT_EQ(v, 100);
}

TEST(RngTest, DeriveTaskSeedIsStableAndCollisionFree) {
  EXPECT_EQ(DeriveTaskSeed(7, 42), DeriveTaskSeed(7, 42));
  std::set<uint64_t> seeds;
  for (uint64_t base : {0ull, 1ull, 55ull}) {
    for (uint64_t task = 0; task < 512; ++task) {
      seeds.insert(DeriveTaskSeed(base, task));
    }
  }
  EXPECT_EQ(seeds.size(), 3u * 512u) << "per-task seed streams collided";
}

class IndexCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<RelationId> rel = db_.AddRelation("R", 2, {0, 1});
    ASSERT_TRUE(rel.ok());
    rel_ = *rel;
    ASSERT_TRUE(db_.InsertText(rel_, {"a", "1"}).ok());
    ASSERT_TRUE(db_.InsertText(rel_, {"a", "2"}).ok());
    ASSERT_TRUE(db_.InsertText(rel_, {"b", "1"}).ok());
  }
  Database db_;
  RelationId rel_ = 0;
};

TEST_F(IndexCacheTest, MissThenHit) {
  IndexCache cache;
  bool was_hit = true;
  auto first = cache.Get(db_, rel_, 0, &was_hit);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(was_hit);
  auto second = cache.Get(db_, rel_, 0, &was_hit);
  EXPECT_TRUE(was_hit);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
  // Distinct positions are distinct entries.
  cache.Get(db_, rel_, 1);
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(IndexCacheTest, IndexContentMatchesDirectBuild) {
  IndexCache cache;
  auto cached = cache.Get(db_, rel_, 0);
  PositionIndex direct = BuildPositionIndex(db_.relation(rel_), 0);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(*cached, direct);
  // Row lists must be ascending (the evaluator's emission-order invariant).
  for (const auto& [value, rows] : *cached) {
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  }
}

TEST_F(IndexCacheTest, InsertInvalidatesEntry) {
  IndexCache cache;
  auto stale = cache.Get(db_, rel_, 0);
  ASSERT_TRUE(db_.InsertText(rel_, {"b", "2"}).ok());
  EXPECT_EQ(cache.Peek(db_, rel_, 0), nullptr) << "stale entry served";
  bool was_hit = true;
  auto fresh = cache.Get(db_, rel_, 0, &was_hit);
  EXPECT_FALSE(was_hit) << "stale entry must rebuild";
  // The old handle still describes the pre-insert snapshot; the new one sees
  // the inserted row.
  size_t stale_rows = 0, fresh_rows = 0;
  for (const auto& [value, rows] : *stale) stale_rows += rows.size();
  for (const auto& [value, rows] : *fresh) fresh_rows += rows.size();
  EXPECT_EQ(stale_rows, 3u);
  EXPECT_EQ(fresh_rows, 4u);
}

TEST_F(IndexCacheTest, ClearDropsEntriesButKeepsCounters) {
  IndexCache cache;
  cache.Get(db_, rel_, 0);
  cache.Get(db_, rel_, 0);
  ASSERT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  bool was_hit = true;
  cache.Get(db_, rel_, 0, &was_hit);
  EXPECT_FALSE(was_hit);
}

TEST_F(IndexCacheTest, PeekCountsHitsButNeverBuilds) {
  IndexCache cache;
  EXPECT_EQ(cache.Peek(db_, rel_, 0), nullptr);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u) << "Peek must not count a miss";
  cache.Get(db_, rel_, 0);
  EXPECT_NE(cache.Peek(db_, rel_, 0), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(IndexCacheTest, SecondDatabaseDropsEntries) {
  IndexCache cache;
  cache.Get(db_, rel_, 0);
  ASSERT_EQ(cache.size(), 1u);
  Database other;
  Result<RelationId> rel = other.AddRelation("S", 1, {0});
  ASSERT_TRUE(rel.ok());
  ASSERT_TRUE(other.InsertText(*rel, {"x"}).ok());
  cache.Get(other, *rel, 0);
  EXPECT_EQ(cache.size(), 1u) << "entries from the first database must drop";
  EXPECT_EQ(cache.Peek(db_, rel_, 0), nullptr);
}

TEST(IndexCacheEvaluateTest, ConcurrentEvaluateSharesOneCache) {
  Result<GeneratedVse> generated = BuildFig1Example();
  ASSERT_TRUE(generated.ok());
  const Database& db = *generated->database;

  // Serial reference views, evaluated without any cache.
  std::vector<View> reference;
  for (const auto& query : generated->queries) {
    Result<View> view = Evaluate(db, *query);
    ASSERT_TRUE(view.ok());
    reference.push_back(std::move(*view));
  }

  // Many concurrent evaluations of all queries against one shared cache.
  constexpr size_t kRounds = 16;
  IndexCache cache;
  ThreadPool pool(4);
  const size_t queries = generated->queries.size();
  std::vector<Result<View>> views;
  views.reserve(kRounds * queries);
  for (size_t i = 0; i < kRounds * queries; ++i) {
    views.push_back(Status::Internal("not evaluated"));
  }
  ParallelFor(&pool, views.size(), [&](size_t i) {
    EvalOptions options;
    options.index_cache = &cache;
    views[i] = Evaluate(db, *generated->queries[i % queries], options);
  });

  for (size_t i = 0; i < views.size(); ++i) {
    ASSERT_TRUE(views[i].ok()) << views[i].status().ToString();
    const View& expect = reference[i % queries];
    const View& got = *views[i];
    ASSERT_EQ(got.size(), expect.size());
    for (size_t t = 0; t < got.size(); ++t) {
      EXPECT_EQ(got.tuple(t).values, expect.tuple(t).values)
          << "view tuple " << t << " differs — emission order changed";
      EXPECT_EQ(got.tuple(t).witnesses, expect.tuple(t).witnesses);
    }
  }
  IndexCache::Stats stats = cache.stats();
  EXPECT_GT(stats.hits, 0u) << "repeated evaluations never reused an index";
  // Benign build races may duplicate a miss, but the cache can never miss
  // more than once per (relation, position) per racing evaluation.
  EXPECT_LT(stats.misses, stats.hits);
}

}  // namespace
}  // namespace delprop
