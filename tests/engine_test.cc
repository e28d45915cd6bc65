// BatchSolveEngine and ScratchPool: batched results must be byte-identical
// to direct per-request solves at any thread count and cache setting, and
// the steady-state hot path must run entirely on reused storage (asserted
// here through the engine/pool/plan counters; allocation_contract_test
// counts the allocations themselves through a global operator new hook).
#include <gtest/gtest.h>

#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/batch_engine.h"
#include "plan/compiled_instance.h"
#include "solvers/scratch_pool.h"
#include "solvers/solver_registry.h"
#include "workload/path_schema.h"

namespace delprop {
namespace {

// Small path-schema workload: every solver family applies, builds in
// milliseconds, and has enough view tuples (~100) for varied ΔV subsets.
GeneratedVse MakeWorkload() {
  Rng rng(1);
  PathSchemaParams params;
  params.levels = 4;
  params.roots = 2;
  params.fanout = 2;
  params.deletion_fraction = 0.25;
  Result<GeneratedVse> generated = GeneratePathSchema(rng, params);
  EXPECT_TRUE(generated.ok());
  return std::move(*generated);
}

std::vector<ViewTupleId> AllViewTupleIds(const VseInstance& instance) {
  std::vector<ViewTupleId> ids;
  for (size_t v = 0; v < instance.view_count(); ++v) {
    for (size_t t = 0; t < instance.view(v).size(); ++t) {
      ids.push_back(ViewTupleId{v, t});
    }
  }
  return ids;
}

// Deterministic ΔV subset of `size` tuples, varying with `salt`.
std::vector<ViewTupleId> MakeDeltaV(const std::vector<ViewTupleId>& all,
                                    uint64_t salt, size_t size) {
  Rng rng(DeriveTaskSeed(7, salt));
  std::vector<ViewTupleId> dv;
  for (size_t index : rng.SampleIndices(all.size(), size)) {
    dv.push_back(all[index]);
  }
  return dv;
}

// Renders everything the determinism contract covers (and nothing the
// scheduling-dependent RequestStats cover): the whole report, in order, and
// the optimality gap, doubles to the last bit.
std::string Render(const Result<VseSolution>& result) {
  std::ostringstream out;
  if (!result.ok()) {
    out << StatusCodeName(result.status().code()) << ": "
        << result.status().message();
    return out.str();
  }
  const SideEffectReport& report = result->report;
  out << std::setprecision(17) << result->solver_name
      << " feasible=" << result->Feasible() << " cost=" << result->Cost()
      << " balanced=" << report.balanced_cost
      << " count=" << report.side_effect_count
      << " sources=" << report.source_deletion_count << " killed=";
  for (const ViewTupleId& id : report.killed_preserved) {
    out << "(" << id.view << "," << id.tuple << ")";
  }
  out << " surviving=";
  for (const ViewTupleId& id : report.surviving_deletions) {
    out << "(" << id.view << "," << id.tuple << ")";
  }
  out << " per_view=";
  for (size_t count : report.per_view_side_effect) out << count << ",";
  const OptimalityGap& gap = result->gap;
  out << " gap=" << gap.has_bound << gap.optimal << gap.deadline_hit
      << gap.budget_hit << "/" << gap.lower_bound << "/" << gap.upper_bound
      << "/" << gap.nodes << " deletion=";
  for (const TupleRef& ref : result->deletion.Sorted()) {
    out << "(" << ref.relation << "," << ref.row << ")";
  }
  return out.str();
}

std::string RenderAll(const std::vector<RequestOutcome>& outcomes) {
  std::string out;
  for (const RequestOutcome& outcome : outcomes) {
    out += Render(outcome.result);
    out += "\n";
  }
  return out;
}

std::vector<SolveRequest> MakeRequests(const VseInstance& instance,
                                       size_t count,
                                       const std::string& solver) {
  std::vector<ViewTupleId> all = AllViewTupleIds(instance);
  std::vector<SolveRequest> requests;
  for (size_t i = 0; i < count; ++i) {
    SolveRequest request;
    request.solver = solver;
    request.delta_v = MakeDeltaV(all, i, 1 + i % 9);
    requests.push_back(std::move(request));
  }
  return requests;
}

// --- ScratchPool -----------------------------------------------------------

// Interleaves ΔV sets of very different sizes on ONE pooled tracker and
// checks every scratch-backed solve against a fresh-tracker solve of the
// same state: a stale counter or unswept epoch stamp from the previous,
// larger ΔV would surface as a different deletion set or cost.
TEST(ScratchPoolTest, InterleavedDeltaVReuseMatchesFreshTracker) {
  GeneratedVse generated = MakeWorkload();
  VseInstance& instance = *generated.instance;
  std::vector<ViewTupleId> all = AllViewTupleIds(instance);
  std::unique_ptr<VseSolver> pooled_solver = MakeSolver("greedy");
  ScratchPool pool;
  const size_t sizes[] = {1, 23, 4, 17, 2, 31, 9, 1, 28, 5};
  size_t rounds = 0;
  for (size_t size : sizes) {
    SCOPED_TRACE(rounds);
    pool.ReleasePlans();
    ASSERT_TRUE(instance.ResetDeletions(MakeDeltaV(all, rounds, size)).ok());
    Result<VseSolution> with_pool = pooled_solver->SolveWith(instance, &pool);
    Result<VseSolution> fresh = MakeSolver("greedy")->Solve(instance);
    EXPECT_EQ(Render(with_pool), Render(fresh));
    ++rounds;
  }
  const ScratchPool::Stats& stats = pool.stats();
  EXPECT_EQ(stats.tracker_acquires, rounds);
  EXPECT_EQ(stats.tracker_allocs, 1u);  // storage allocated exactly once
  EXPECT_EQ(stats.tracker_reuses, rounds - 1);
}

// --- BatchSolveEngine ------------------------------------------------------

// The engine (memo on) answers every request as a direct solve on the
// primary does, and as the naive per-request path does: copy the views,
// rebuild the instance, mark ΔV, run a fresh solver. The last request
// repeats an earlier one, so the memo answers it.
TEST(BatchEngineTest, MatchesDirectPerRequestSolve) {
  GeneratedVse generated = MakeWorkload();
  VseInstance& instance = *generated.instance;
  std::vector<SolveRequest> requests = MakeRequests(instance, 6, "greedy");
  requests[2].solver = "local-search";
  requests[4].solver = "exact";
  requests.push_back(requests[2]);

  std::vector<const ConjunctiveQuery*> queries;
  for (const auto& query : generated.queries) queries.push_back(query.get());
  auto naive_solve = [&](const SolveRequest& request) -> Result<VseSolution> {
    std::vector<View> views;
    for (size_t v = 0; v < instance.view_count(); ++v) {
      views.push_back(instance.view(v));
    }
    Result<VseInstance> fresh = VseInstance::CreateFromMaterializedViews(
        *generated.database, queries, std::move(views));
    if (!fresh.ok()) return fresh.status();
    for (const ViewTupleId& id : request.delta_v) {
      if (Status status = fresh->MarkForDeletion(id); !status.ok()) {
        return status;
      }
    }
    return MakeSolver(request.solver)->Solve(*fresh);
  };

  BatchSolveEngine engine(instance, {});
  std::vector<RequestOutcome> outcomes = engine.SolveBatch(requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    std::string engine_answer = Render(outcomes[i].result);
    EXPECT_EQ(engine_answer, Render(naive_solve(requests[i])));
    ASSERT_TRUE(instance.ResetDeletions(requests[i].delta_v).ok());
    Result<VseSolution> direct =
        MakeSolver(requests[i].solver)->Solve(instance);
    EXPECT_EQ(engine_answer, Render(direct));
  }
}

TEST(BatchEngineTest, OutcomesIdenticalAcrossThreadCounts) {
  GeneratedVse generated = MakeWorkload();
  std::vector<SolveRequest> requests =
      MakeRequests(*generated.instance, 24, "greedy");
  for (size_t i = 0; i < requests.size(); i += 3) {
    requests[i].solver = "local-search";
  }
  // Duplicates exercise the memo cache under concurrent claiming.
  requests.push_back(requests[1]);
  requests.push_back(requests[4]);

  BatchSolveEngine::Options t1;
  t1.threads = 1;
  BatchSolveEngine engine1(*generated.instance, t1);
  BatchSolveEngine::Options t4;
  t4.threads = 4;
  BatchSolveEngine engine4(*generated.instance, t4);
  EXPECT_EQ(engine4.worker_count(), 4u);

  std::string rendered1 = RenderAll(engine1.SolveBatch(requests));
  std::string rendered4 = RenderAll(engine4.SolveBatch(requests));
  EXPECT_EQ(rendered1, rendered4);
}

TEST(BatchEngineTest, MemoCacheChangesNothingButSkipsSolves) {
  GeneratedVse generated = MakeWorkload();
  std::vector<SolveRequest> requests =
      MakeRequests(*generated.instance, 10, "greedy");
  for (size_t i = 0; i < 6; ++i) requests.push_back(requests[i]);

  BatchSolveEngine::Options with_cache;
  BatchSolveEngine engine_cached(*generated.instance, with_cache);
  BatchSolveEngine::Options without_cache;
  without_cache.memo_cache = false;
  BatchSolveEngine engine_plain(*generated.instance, without_cache);

  std::string cached = RenderAll(engine_cached.SolveBatch(requests));
  std::string plain = RenderAll(engine_plain.SolveBatch(requests));
  EXPECT_EQ(cached, plain);

  EXPECT_EQ(engine_cached.stats().cache_hits, 6u);
  EXPECT_EQ(engine_cached.stats().solver_runs, 10u);
  EXPECT_EQ(engine_plain.stats().cache_hits, 0u);
  EXPECT_EQ(engine_plain.stats().solver_runs, 16u);
}

// The memo stores decisions and rebuilds every hit's report, so no budget
// may change an outcome: memo off, a budget that stores nothing, one small
// enough to evict, and the default all render identically (gaps included,
// through "exact"), at one worker and at four.
TEST(BatchEngineTest, MemoBudgetChangesNoOutcome) {
  GeneratedVse generated = MakeWorkload();
  std::vector<SolveRequest> requests =
      MakeRequests(*generated.instance, 24, "greedy");
  for (size_t i = 0; i < requests.size(); i += 4) {
    requests[i].solver = "exact";
  }
  for (size_t i = 2; i < requests.size(); i += 4) {
    requests[i].solver = "local-search";
  }
  for (size_t i = 0; i < 12; ++i) requests.push_back(requests[i]);

  BatchSolveEngine::Options off;
  off.threads = 1;
  off.memo_cache = false;
  BatchSolveEngine baseline_engine(*generated.instance, off);
  std::string baseline = RenderAll(baseline_engine.SolveBatch(requests));

  for (size_t threads : {1, 4}) {
    for (size_t bytes : {size_t{0}, size_t{2048}, size_t{64} << 20}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " bytes=" + std::to_string(bytes));
      BatchSolveEngine::Options options;
      options.threads = threads;
      options.memo_cache_bytes = bytes;
      BatchSolveEngine engine(*generated.instance, options);
      EXPECT_EQ(RenderAll(engine.SolveBatch(requests)), baseline);
      EngineStats stats = engine.stats();
      EXPECT_LE(stats.cache_bytes, bytes);
      if (bytes == 0) {
        EXPECT_EQ(stats.cache_hits, 0u);
        EXPECT_EQ(stats.cache_bytes, 0u);
      } else if (bytes == 2048) {
        EXPECT_GT(stats.cache_evictions, 0u);
      } else {
        EXPECT_EQ(stats.cache_evictions, 0u);
        EXPECT_GT(stats.cache_hits, 0u);
      }
    }
    BatchSolveEngine::Options plain;
    plain.threads = threads;
    plain.memo_cache = false;
    BatchSolveEngine engine(*generated.instance, plain);
    EXPECT_EQ(RenderAll(engine.SolveBatch(requests)), baseline);
  }
}

// At one worker eviction order is pinned: oldest first. Entry sizes are
// read off cache_bytes, and the budget holds the three newest of five.
TEST(BatchEngineTest, MemoEvictsInInsertionOrder) {
  GeneratedVse generated = MakeWorkload();
  std::vector<SolveRequest> requests =
      MakeRequests(*generated.instance, 5, "greedy");

  BatchSolveEngine::Options measure;
  measure.threads = 1;
  BatchSolveEngine sizing(*generated.instance, measure);
  std::vector<size_t> entry_bytes;
  for (const SolveRequest& request : requests) {
    size_t before = sizing.stats().cache_bytes;
    (void)sizing.SolveBatch({request});
    entry_bytes.push_back(sizing.stats().cache_bytes - before);
  }

  BatchSolveEngine::Options options;
  options.threads = 1;
  options.memo_cache_bytes = entry_bytes[2] + entry_bytes[3] + entry_bytes[4];
  BatchSolveEngine engine(*generated.instance, options);
  (void)engine.SolveBatch(requests);
  EXPECT_EQ(engine.stats().solver_runs, 5u);
  EXPECT_EQ(engine.stats().cache_evictions, 2u);
  EXPECT_EQ(engine.stats().cache_bytes, options.memo_cache_bytes);

  // The retained keys hit ...
  for (size_t i : {2, 3, 4}) {
    SCOPED_TRACE(i);
    std::vector<RequestOutcome> repeat = engine.SolveBatch({requests[i]});
    EXPECT_TRUE(repeat[0].stats.cache_hit);
    EXPECT_EQ(engine.stats().solver_runs, 5u);
  }
  // ... and the evicted ones are solved again.
  for (size_t i : {0, 1}) {
    SCOPED_TRACE(i);
    size_t runs = engine.stats().solver_runs;
    std::vector<RequestOutcome> repeat = engine.SolveBatch({requests[i]});
    EXPECT_FALSE(repeat[0].stats.cache_hit);
    EXPECT_EQ(engine.stats().solver_runs, runs + 1);
  }
}

// The "zero steady-state allocations" contract, expressed in counters: after
// the first request warms the worker, every further request reuses the
// pooled tracker storage (no tracker alloc), rebuilds only the ΔV overlay
// (no full plan build), and recycles the previous overlay's buffers.
TEST(BatchEngineTest, SteadyStateRunsOnReusedStorage) {
  GeneratedVse generated = MakeWorkload();
  std::vector<SolveRequest> requests =
      MakeRequests(*generated.instance, 20, "greedy");

  BatchSolveEngine::Options options;
  options.threads = 1;
  options.memo_cache = false;  // cache hits would skip solves and counters
  BatchSolveEngine engine(*generated.instance, options);
  std::vector<RequestOutcome> outcomes = engine.SolveBatch(requests);
  for (const RequestOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.result.ok());
  }

  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 20u);
  EXPECT_EQ(stats.solver_runs, 20u);
  EXPECT_EQ(stats.scratch_acquires, 20u);
  EXPECT_EQ(stats.scratch_allocs, 1u);
  EXPECT_EQ(stats.scratch_reuses, 19u);
  EXPECT_EQ(stats.plan_full_builds, 0u);  // core came from the primary
  EXPECT_EQ(stats.plan_core_rebinds, 20u);
  // Request 1's retired plan is still shared with the primary instance, so
  // only requests 2..20 can steal overlay buffers.
  EXPECT_EQ(stats.plan_overlay_recycles, 19u);

  // Per-request provenance tells the same story.
  EXPECT_FALSE(outcomes[0].stats.scratch_reused);
  for (size_t i = 1; i < outcomes.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(outcomes[i].stats.scratch_reused);
    EXPECT_TRUE(outcomes[i].stats.plan_core_reused);
    EXPECT_TRUE(outcomes[i].stats.plan_overlay_recycled);
  }
}

// Same contract with the memo cache ON: cache-hit requests skip the solver
// (no scratch acquire), but like every miss they swap ΔV and rebuild the
// overlay into recycled buffers, because the hit's report is rebuilt from
// the stored ΔD over that overlay. The heterogeneous cache probe means hits
// and misses alike build no owned key on the lookup path; the counters pin
// the visible half of that contract.
TEST(BatchEngineTest, SteadyStateRunsOnReusedStorageWithMemoCache) {
  GeneratedVse generated = MakeWorkload();
  std::vector<SolveRequest> requests =
      MakeRequests(*generated.instance, 12, "greedy");
  for (size_t i = 0; i < 8; ++i) requests.push_back(requests[i]);

  BatchSolveEngine::Options options;
  options.threads = 1;
  options.memo_cache = true;
  BatchSolveEngine engine(*generated.instance, options);
  std::vector<RequestOutcome> outcomes = engine.SolveBatch(requests);
  for (const RequestOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.result.ok());
  }

  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 20u);
  EXPECT_EQ(stats.cache_hits, 8u);
  EXPECT_EQ(stats.solver_runs, 12u);
  // Only the 12 misses acquire the one pooled tracker. All 20 requests
  // rebuild only the ΔV overlay over the shared core; the first cannot
  // recycle, since its retired plan is still shared with the primary.
  EXPECT_EQ(stats.scratch_acquires, 12u);
  EXPECT_EQ(stats.scratch_allocs, 1u);
  EXPECT_EQ(stats.scratch_reuses, 11u);
  EXPECT_EQ(stats.plan_full_builds, 0u);
  EXPECT_EQ(stats.plan_core_rebinds, 20u);
  EXPECT_EQ(stats.plan_overlay_recycles, 19u);
}

TEST(BatchEngineTest, InvalidRequestsFailAloneWithoutAbortingTheBatch) {
  GeneratedVse generated = MakeWorkload();
  std::vector<SolveRequest> requests =
      MakeRequests(*generated.instance, 2, "greedy");

  SolveRequest unknown = requests[0];
  unknown.solver = "no-such-solver";
  requests.push_back(unknown);

  SolveRequest mismatched = requests[0];
  mismatched.objective = Objective::kBalanced;  // greedy is kStandard
  requests.push_back(mismatched);

  SolveRequest out_of_range = requests[0];
  out_of_range.delta_v.push_back(ViewTupleId{9999, 0});
  requests.push_back(out_of_range);

  BatchSolveEngine engine(*generated.instance, {});
  std::vector<RequestOutcome> outcomes = engine.SolveBatch(requests);
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_TRUE(outcomes[0].result.ok());
  EXPECT_TRUE(outcomes[1].result.ok());
  EXPECT_EQ(outcomes[2].result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(outcomes[3].result.status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(outcomes[4].result.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(engine.stats().invalid_requests, 3u);
  EXPECT_EQ(engine.stats().solver_runs, 2u);
}

// --- Live base data through the engine -------------------------------------

// ApplyDelta's epoch handoff: replicas are dropped, the primary mutates in
// place (sole owner, no copy-on-write detach), and the re-replicated fleet
// serves results identical to direct solves over the mutated primary.
TEST(BatchEngineTest, ApplyDeltaAdvancesEpochAndServesNewData) {
  GeneratedVse generated = MakeWorkload();
  VseInstance& primary = *generated.instance;
  BatchSolveEngine::Options options;
  options.threads = 2;
  BatchSolveEngine engine(primary, options);
  EXPECT_EQ(engine.core_epoch(), 0u);

  std::vector<RequestOutcome> before =
      engine.SolveBatch(MakeRequests(primary, 4, "greedy"));
  for (const RequestOutcome& outcome : before) {
    ASSERT_TRUE(outcome.result.ok());
  }

  // Delete one base row that occurs in a witness — guaranteed to change the
  // view structure.
  BaseDelta delta;
  delta.deletes.push_back(primary.view_tuple(ViewTupleId{0, 0}).witnesses[0][0]);
  size_t full_builds_before = primary.plan_stats().full_builds;
  ApplyDeltaReport report;
  ASSERT_TRUE(
      engine.ApplyDelta(*generated.database, delta, {}, &report).ok());
  EXPECT_EQ(engine.core_epoch(), 1u);
  EXPECT_EQ(engine.stats().deltas_applied, 1u);
  EXPECT_EQ(primary.structure_epoch(), 1u);
  EXPECT_GT(report.view_tuples_removed, 0u);
  // The primary rebuilds the core once, and every replica shares it.
  EXPECT_EQ(primary.plan_stats().full_builds, full_builds_before + 1);

  // Post-delta batches must match direct solves on the mutated primary.
  std::vector<SolveRequest> requests = MakeRequests(primary, 6, "greedy");
  std::vector<RequestOutcome> after = engine.SolveBatch(requests);
  ASSERT_EQ(after.size(), requests.size());
  EXPECT_EQ(engine.stats().plan_full_builds, 0u);
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(primary.ResetDeletions(requests[i].delta_v).ok());
    EXPECT_EQ(Render(after[i].result),
              Render(MakeSolver("greedy")->Solve(primary)));
  }
}

// The general-case solvers keep per-tuple and per-base scratch in the
// solver object (the ILP's CoveringModel, the reductions' id arrays), and a
// worker keeps its solver objects across deltas. A delta that removes view
// tuples changes the tuple and base counts under those objects; every
// answer before and after it must equal a fresh solver's.
TEST(BatchEngineTest, ReusedGeneralSolversMatchFreshAcrossDelta) {
  GeneratedVse generated = MakeWorkload();
  VseInstance& primary = *generated.instance;
  BatchSolveEngine::Options options;
  options.threads = 2;
  options.memo_cache = false;  // every request reaches a worker's solver
  BatchSolveEngine engine(primary, options);

  auto make_requests = [&] {
    std::vector<SolveRequest> requests;
    for (const char* solver : {"ilp", "rbsc-greedy", "rbsc-lowdeg"}) {
      for (SolveRequest& request : MakeRequests(primary, 8, solver)) {
        requests.push_back(std::move(request));
      }
    }
    return requests;
  };
  auto expect_fresh_answers = [&](const std::vector<SolveRequest>& requests) {
    std::vector<RequestOutcome> outcomes = engine.SolveBatch(requests);
    ASSERT_EQ(outcomes.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      SCOPED_TRACE(requests[i].solver + " request " + std::to_string(i));
      ASSERT_TRUE(outcomes[i].result.ok())
          << outcomes[i].result.status().ToString();
      ASSERT_TRUE(primary.ResetDeletions(requests[i].delta_v).ok());
      EXPECT_EQ(Render(outcomes[i].result),
                Render(MakeSolver(requests[i].solver)->Solve(primary)));
    }
  };
  expect_fresh_answers(make_requests());

  const size_t tuples_before = primary.TotalViewTuples();
  const uint32_t bases_before = primary.compiled()->base_count();
  BaseDelta delta;
  delta.deletes.push_back(
      primary.view_tuple(ViewTupleId{0, 0}).witnesses[0][0]);
  ASSERT_TRUE(engine.ApplyDelta(*generated.database, delta).ok());
  EXPECT_LT(primary.TotalViewTuples(), tuples_before);
  EXPECT_LT(primary.compiled()->base_count(), bases_before);

  expect_fresh_answers(make_requests());
}

// Live-style leaf swaps through the engine. By the time the primary
// recompiles, the workers and the memo cache hold nothing of the old core,
// so every rebuild fills the core the delta dropped, on the engine's pool;
// the core must equal a pool-less build of a re-index of the same views,
// and the fleet must answer exactly as a fresh engine over that re-index.
TEST(BatchEngineTest, DeltaRebuildsIntoTheDroppedCoreAndMatchesAFreshEngine) {
  GeneratedVse generated = MakeWorkload();
  VseInstance& primary = *generated.instance;
  Database& db = *generated.database;
  std::vector<const ConjunctiveQuery*> queries;
  for (const auto& query : generated.queries) queries.push_back(query.get());
  BatchSolveEngine::Options options;
  options.threads = 4;
  BatchSolveEngine engine(primary, options);
  RelationId leaf = *db.schema().FindRelation("L3");

  for (uint32_t step = 0; step < 3; ++step) {
    SCOPED_TRACE(step);
    (void)engine.SolveBatch(MakeRequests(primary, 8, "greedy"));
    // Even leaf rows share their parent with the next row, so the swap
    // keeps the instance's shape.
    const Tuple& old_leaf = db.relation(leaf).row(2 * step);
    BaseDelta swap;
    swap.deletes.push_back(TupleRef{leaf, 2 * step});
    swap.inserts.push_back(BaseInsert{
        leaf,
        {db.dict().Intern("swapped" + std::to_string(step)), old_leaf[1],
         old_leaf[2]}});
    ASSERT_TRUE(engine.ApplyDelta(db, swap).ok());
    EXPECT_EQ(primary.plan_stats().core_reuses, step + 1);

    std::vector<View> views;
    for (size_t v = 0; v < primary.view_count(); ++v) {
      views.push_back(primary.view(v));
    }
    Result<VseInstance> reindexed =
        VseInstance::CreateFromMaterializedViews(db, queries, std::move(views));
    ASSERT_TRUE(reindexed.ok()) << reindexed.status().ToString();
    // The engine rebuilt the primary's core on its 4 workers; a pool-less
    // build must give the same core. (Checked before `fresh` exists: its
    // constructor compiles through its own pool.)
    EXPECT_TRUE(*primary.compiled()->core() == *reindexed->compiled()->core());
    BatchSolveEngine fresh(*reindexed, options);
    for (const char* solver : {"greedy", "ilp", "local-search"}) {
      std::vector<SolveRequest> requests = MakeRequests(primary, 8, solver);
      EXPECT_EQ(RenderAll(engine.SolveBatch(requests)),
                RenderAll(fresh.SolveBatch(requests)))
          << solver;
    }
  }
}

// Memoized results were computed against the old base data; a delta must
// evict them, and a repeated request must re-solve instead of replaying the
// stale cached outcome.
TEST(BatchEngineTest, ApplyDeltaInvalidatesTheMemoCache) {
  GeneratedVse generated = MakeWorkload();
  VseInstance& primary = *generated.instance;
  BatchSolveEngine engine(primary, {});

  std::vector<SolveRequest> request = MakeRequests(primary, 1, "greedy");
  (void)engine.SolveBatch(request);
  (void)engine.SolveBatch(request);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(engine.stats().solver_runs, 1u);

  BaseDelta delta;
  delta.deletes.push_back(primary.view_tuple(ViewTupleId{0, 0}).witnesses[0][0]);
  ASSERT_TRUE(engine.ApplyDelta(*generated.database, delta).ok());

  // ΔV ids may have shifted; re-derive a valid request and repeat it twice:
  // the first run must be a real solve (cache was cleared), the second a hit.
  std::vector<SolveRequest> fresh = MakeRequests(primary, 1, "greedy");
  std::vector<RequestOutcome> first = engine.SolveBatch(fresh);
  ASSERT_TRUE(first[0].result.ok());
  EXPECT_FALSE(first[0].stats.cache_hit);
  std::vector<RequestOutcome> second = engine.SolveBatch(fresh);
  EXPECT_TRUE(second[0].stats.cache_hit);
  ASSERT_TRUE(primary.ResetDeletions(fresh[0].delta_v).ok());
  EXPECT_EQ(Render(first[0].result),
            Render(MakeSolver("greedy")->Solve(primary)));
}

// A rejected delta must leave the primary untouched but still restore the
// worker fleet, and the epoch must not advance.
TEST(BatchEngineTest, RejectedDeltaKeepsEpochAndKeepsServing) {
  GeneratedVse generated = MakeWorkload();
  VseInstance& primary = *generated.instance;
  BatchSolveEngine engine(primary, {});

  BaseDelta dangling;
  dangling.deletes.push_back(TupleRef{0, 1u << 30});
  EXPECT_EQ(engine.ApplyDelta(*generated.database, dangling).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.core_epoch(), 0u);
  EXPECT_EQ(engine.stats().deltas_applied, 0u);
  EXPECT_EQ(primary.structure_epoch(), 0u);

  std::vector<SolveRequest> requests = MakeRequests(primary, 3, "greedy");
  for (const RequestOutcome& outcome : engine.SolveBatch(requests)) {
    EXPECT_TRUE(outcome.result.ok());
  }
}

// --- VseInstance batched-serving primitives --------------------------------

TEST(ResetDeletionsTest, EquivalentToMarkingAndKeepsCore) {
  GeneratedVse generated = MakeWorkload();
  VseInstance& instance = *generated.instance;
  std::vector<ViewTupleId> all = AllViewTupleIds(instance);
  std::vector<ViewTupleId> dv = MakeDeltaV(all, 3, 12);

  GeneratedVse reference = MakeWorkload();
  ASSERT_TRUE(reference.instance->ResetDeletions({}).ok());
  for (const ViewTupleId& id : dv) {
    ASSERT_TRUE(reference.instance->MarkForDeletion(id).ok());
  }

  (void)instance.compiled();  // warm the core
  std::vector<ViewTupleId> doubled = dv;
  doubled.insert(doubled.end(), dv.begin(), dv.end());  // duplicates collapse
  ASSERT_TRUE(instance.ResetDeletions(doubled).ok());
  EXPECT_EQ(instance.deletion_tuples(),
            reference.instance->deletion_tuples());
  EXPECT_EQ(Render(MakeSolver("greedy")->Solve(instance)),
            Render(MakeSolver("greedy")->Solve(*reference.instance)));
  (void)instance.compiled();
  PlanBuildStats stats = instance.plan_stats();
  EXPECT_EQ(stats.full_builds, 1u);
  EXPECT_GE(stats.core_rebinds, 1u);
}

TEST(ResetDeletionsTest, OutOfRangeLeavesInstanceUnchanged) {
  GeneratedVse generated = MakeWorkload();
  VseInstance& instance = *generated.instance;
  std::vector<ViewTupleId> before = instance.deletion_tuples();
  Status status = instance.ResetDeletions({ViewTupleId{0, 1u << 20}});
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(instance.deletion_tuples(), before);
}

TEST(ReplicateTest, ReplicaIsIndependentButEquivalent) {
  GeneratedVse generated = MakeWorkload();
  VseInstance& primary = *generated.instance;
  std::vector<ViewTupleId> primary_dv = primary.deletion_tuples();
  (void)primary.compiled();

  VseInstance replica = primary.Replicate();
  EXPECT_EQ(replica.deletion_tuples(), primary_dv);
  EXPECT_EQ(Render(MakeSolver("greedy")->Solve(replica)),
            Render(MakeSolver("greedy")->Solve(primary)));

  // Swapping the replica's ΔV must not leak into the primary, and the
  // replica must not pay a full structural rebuild for it.
  std::vector<ViewTupleId> all = AllViewTupleIds(primary);
  ASSERT_TRUE(replica.ResetDeletions(MakeDeltaV(all, 11, 5)).ok());
  (void)replica.compiled();
  EXPECT_EQ(primary.deletion_tuples(), primary_dv);
  EXPECT_EQ(replica.plan_stats().full_builds, 0u);
  EXPECT_GE(replica.plan_stats().core_rebinds, 1u);
}

}  // namespace
}  // namespace delprop
