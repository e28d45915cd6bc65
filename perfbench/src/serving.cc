// The serve and live workloads: a BatchSolveEngine over a path-schema
// forest, driven by a closed-loop client.
//
//   serve  100x forest (levels 6, roots 300, fanout 3; ‖V‖ = 364,500),
//          4 workers, memo cache on, batches of 128 requests: 90% point ΔV
//          (1-32 view tuples), 10% bulk (256-1,024); 25% of each class
//          repeat a request of an earlier batch. After the serving loop, a
//          refresh lane applies one-row base deltas through the engine.
//   live   10x forest (roots 30; ‖V‖ = 36,450), 1 worker; every step
//          applies one base delta (delete a live leaf, insert a fresh leaf
//          under a live parent, so ‖V‖ is constant) and then serves one
//          point request. 5% of requests use dp-tree (Algorithm 4).
//
// The untraced run measures the engine. The traced run first repeats a
// shorter untraced run, then replays its operations twice on one replica
// through the functions the engine calls (Replicate, ResetDeletions,
// compiled(), SolveWith; ApplyDelta, compiled(), Replicate for deltas),
// with a span around each call. Both replays must reproduce the untraced
// fingerprint and the same deterministic counts.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dp/base_delta.h"
#include "dp/solver.h"
#include "engine/batch_engine.h"
#include "hypergraph/data_forest.h"
#include "instance_text.h"
#include "plan/compiled_instance.h"
#include "runtime/thread_pool.h"
#include "solvers/scratch_pool.h"
#include "solvers/solver_registry.h"
#include "workload/path_schema.h"
#include "workloads.h"

namespace perfbench {
namespace {

using delprop::ApplyDeltaReport;
using delprop::BaseDelta;
using delprop::BatchSolveEngine;
using delprop::Result;
using delprop::Rng;
using delprop::SolveRequest;
using delprop::Status;
using delprop::ViewTupleId;
using delprop::VseInstance;
using delprop::VseSolution;

// Point-request solver cycle: greedy 35%, ilp 5%, local-search / rbsc-greedy
// / rbsc-lowdeg 20% each. Bulk requests use a 40/20/20/20 mix without
// ilp.
const char* const kPointCycle[20] = {
    "greedy",      "local-search", "rbsc-greedy", "rbsc-lowdeg", "greedy",
    "greedy",      "local-search", "rbsc-greedy", "rbsc-lowdeg", "greedy",
    "greedy",      "local-search", "rbsc-greedy", "rbsc-lowdeg", "greedy",
    "ilp",         "local-search", "rbsc-greedy", "rbsc-lowdeg", "greedy"};
const char* const kBulkCycle[5] = {"greedy", "local-search", "rbsc-greedy",
                                   "rbsc-lowdeg", "greedy"};

struct ServingParams {
  size_t levels = 6;
  size_t roots = 300;
  size_t fanout = 3;
  size_t workers = 4;
  size_t batch = 128;
  bool live = false;
  size_t setups = 3;
  /// Refresh deltas after the serving loop (serve only).
  size_t refreshes = 0;
  /// side_effect sums the costs of this many answered requests.
  size_t side_effect_prefix = 0;
  /// The serving loop runs past `seconds` until this many batches ran, so
  /// that latency_p99 and delta_p99 have ten samples beyond them.
  size_t min_batches = 0;
  /// Serving-loop budget; the traced run shortens it.
  double seconds = 10.0;
  /// Smoke runs stop after this many batches (0: time only).
  size_t max_batches = 0;
};

// One base delta: each row swap deletes a live leaf and inserts a fresh row
// under a live parent at `insert_level`. Text only, so each replay interns
// it into its own database.
struct RowSwap {
  uint32_t delete_row = 0;
  size_t insert_level = 0;
  std::string id;
  std::string parent;
  std::string payload;
};
struct DeltaSpec {
  std::vector<RowSwap> swaps;
};

// Live swaps leaves (the fresh row is a leaf, so every view keeps its size);
// every 25th live delta is a batch of four swaps, which gives the delta
// latency a tail made of real work instead of host noise. Serve's refresh
// lane inserts the fresh row at level 1, because a leaf insert at 100x costs
// seconds (the delta join walks the whole forest above the new leaf).
class LeafSwapStream {
 public:
  LeafSwapStream(uint64_t seed, size_t levels, size_t fanout, size_t leaves,
                 bool leaf_inserts)
      : rng_(seed), levels_(levels), fanout_(fanout), leaves_(leaves),
        leaf_inserts_(leaf_inserts),
        next_row_(static_cast<uint32_t>(leaves)) {
    live_.reserve(leaves);
    for (uint32_t row = 0; row < leaves; ++row) live_.push_back(row);
  }

  DeltaSpec Next() {
    DeltaSpec spec;
    size_t swaps = leaf_inserts_ && deltas_++ % 25 == 24 ? 4 : 1;
    for (size_t k = 0; k < swaps; ++k) spec.swaps.push_back(NextSwap());
    // Fresh leaves become deletable from the next delta on: a delta's
    // deletes are validated against the database before it.
    for (size_t k = 0; k < swaps && leaf_inserts_; ++k) {
      live_.push_back(next_row_++);
    }
    return spec;
  }

 private:
  RowSwap NextSwap() {
    RowSwap swap;
    size_t pick = rng_.NextBelow(live_.size());
    swap.delete_row = live_[pick];
    live_[pick] = live_.back();
    live_.pop_back();
    swap.insert_level = leaf_inserts_ ? levels_ - 1 : 1;
    // Rows above the leaves all stay live; level i holds leaves / fanout^
    // (levels - 1 - i) of them.
    size_t parents = leaves_;
    for (size_t level = swap.insert_level; level < levels_; ++level) {
      parents /= fanout_;
    }
    swap.id = "n" + std::to_string(swap.insert_level) + "_x" +
              std::to_string(fresh_++);
    swap.parent = "n" + std::to_string(swap.insert_level - 1) + "_" +
                  std::to_string(rng_.NextBelow(parents));
    swap.payload = "p" + std::to_string(rng_.NextBelow(1000));
    return swap;
  }

  Rng rng_;
  size_t levels_;
  size_t fanout_;
  size_t leaves_;
  bool leaf_inserts_;
  uint32_t next_row_;
  uint64_t fresh_ = 0;
  uint64_t deltas_ = 0;
  std::vector<uint32_t> live_;
};

BaseDelta MakeDelta(delprop::Database& db, size_t levels,
                    const DeltaSpec& spec) {
  delprop::RelationId leaf =
      *db.schema().FindRelation("L" + std::to_string(levels - 1));
  BaseDelta delta;
  for (const RowSwap& swap : spec.swaps) {
    delta.deletes.push_back(delprop::TupleRef{leaf, swap.delete_row});
    delprop::BaseInsert insert;
    insert.relation =
        *db.schema().FindRelation("L" + std::to_string(swap.insert_level));
    insert.tuple = {db.dict().Intern(swap.id), db.dict().Intern(swap.parent),
                    db.dict().Intern(swap.payload)};
    delta.inserts.push_back(std::move(insert));
  }
  return delta;
}

struct Op {
  bool is_delta = false;
  SolveRequest request;
  bool bulk = false;
  DeltaSpec delta;
};

// Deterministic request generator. Classes, solvers, ΔV sizes and repeats
// are stratified (exact shares per class, golden-ratio sizes), so only the
// chosen view tuples depend on the seed.
class RequestStream {
 public:
  RequestStream(uint64_t seed, std::vector<size_t> view_sizes, bool live)
      : rng_(seed), view_sizes_(std::move(view_sizes)), live_(live) {
    point_offset_ = rng_.NextDouble();
    bulk_offset_ = rng_.NextDouble();
  }

  Op Next(size_t earlier_batches_end) {
    Op op;
    uint64_t i = issued_++;
    if (live_) {
      op.request.solver =
          (i % 20 == 19) ? "dp-tree" : kPointCycle[point_fresh_++ % 20];
      FillDeltaV(&op.request,
                 Stratified(point_sizes_++, point_offset_, 1, 32));
      return op;
    }
    op.bulk = (i % 10 == 9);
    uint64_t k = op.bulk ? bulk_k_++ : point_k_++;
    std::vector<size_t>& pool = op.bulk ? bulk_ops_ : point_ops_;
    // Repeat an earlier batch's request of the same class (a memo hit).
    size_t eligible = static_cast<size_t>(
        std::lower_bound(pool.begin(), pool.end(), earlier_batches_end) -
        pool.begin());
    pool.push_back(i);
    if (k % 4 == 3 && eligible > 0) {
      op.request = history_[pool[rng_.NextBelow(eligible)]];
    } else if (op.bulk) {
      op.request.solver = kBulkCycle[bulk_fresh_++ % 5];
      FillDeltaV(&op.request,
                 Stratified(bulk_fresh_, bulk_offset_, 256, 1024));
    } else {
      op.request.solver = kPointCycle[point_fresh_++ % 20];
      FillDeltaV(&op.request,
                 Stratified(point_fresh_, point_offset_, 1, 32));
    }
    history_.push_back(op.request);
    return op;
  }

 private:
  void FillDeltaV(SolveRequest* request, size_t size) {
    request->delta_v.reserve(size);
    for (size_t k = 0; k < size; ++k) {
      size_t view = rng_.NextBelow(view_sizes_.size());
      request->delta_v.push_back(
          ViewTupleId{view, rng_.NextBelow(view_sizes_[view])});
    }
  }

  Rng rng_;
  std::vector<size_t> view_sizes_;
  bool live_;
  double point_offset_ = 0.0;
  double bulk_offset_ = 0.0;
  uint64_t issued_ = 0;
  uint64_t point_k_ = 0, bulk_k_ = 0;
  uint64_t point_fresh_ = 0, bulk_fresh_ = 0, point_sizes_ = 0;
  std::vector<size_t> point_ops_, bulk_ops_;
  std::vector<SolveRequest> history_;
};

std::vector<ViewTupleId> Normalized(std::vector<ViewTupleId> delta_v) {
  std::sort(delta_v.begin(), delta_v.end());
  delta_v.erase(std::unique(delta_v.begin(), delta_v.end()), delta_v.end());
  return delta_v;
}

bool IsCertifying(const std::string& solver) { return solver == "ilp"; }

// What the untraced engine run produced, operation by operation.
struct EngineRun {
  std::vector<Op> ops;
  std::vector<Result<VseSolution>> results;  // per request op, else unused
  std::vector<double> request_wall_ms;       // RequestStats::wall_ms
  std::vector<double> call_wall_ms;          // SolveBatch wall (live)
  std::vector<double> batch_wall_ms;
  std::vector<double> delta_wall_ms;  // timed deltas
  double delta_total_ms = 0.0;        // every delta, warm-up included
  std::vector<double> setup_s;
  delprop::EngineStats stats;
  uint64_t fingerprint = 0;
};

void MixOp(Fingerprint* fp, const Op& op, const Result<VseSolution>& result,
           const Status& delta_status) {
  if (op.is_delta) {
    fp->Mix(std::string("delta"));
    fp->Mix(delta_status);
  } else {
    fp->Mix(result);
  }
}

// A loaded instance plus the engine serving it.
struct Served {
  LoadedInstance loaded;
  std::unique_ptr<BatchSolveEngine> engine;
};

// Text → engine ready to serve. With `rotation`, the single-threaded load
// runs on the next CPU and the engine's workers start on all of them.
Result<Served> SetUp(const InstanceText& text, const ServingParams& params,
                     Tracer* tracer, LoadCounts* counts, double* seconds,
                     CpuRotation* rotation = nullptr) {
  if (rotation != nullptr) rotation->Next();
  Clock::time_point start = Clock::now();
  Result<LoadedInstance> loaded = LoadInstance(text, tracer, counts);
  if (rotation != nullptr) rotation->Restore();
  if (!loaded.ok()) return loaded.status();
  Served served;
  served.loaded = std::move(*loaded);
  BatchSolveEngine::Options options;
  options.threads = params.workers;
  options.memo_cache = true;
  served.engine = Traced(tracer, "engine.start", [&] {
    return std::make_unique<BatchSolveEngine>(*served.loaded.instance,
                                              options);
  });
  if (seconds != nullptr) *seconds = MsSince(start) / 1000.0;
  return served;
}

std::vector<size_t> ViewSizes(const VseInstance& instance) {
  std::vector<size_t> sizes;
  for (size_t v = 0; v < instance.view_count(); ++v) {
    sizes.push_back(instance.view(v).size());
  }
  return sizes;
}

// Verifies serve answers after the loop: each distinct (solver, ΔV) key is
// recomputed once on a replica (in parallel), and every repeat must return
// the identical outcome.
void VerifyServeAnswers(const VseInstance& primary, size_t threads,
                        EngineRun& run, Report* report) {
  std::map<std::pair<std::string, std::vector<ViewTupleId>>, size_t> first;
  std::vector<size_t> to_check;
  std::vector<std::string> problems(run.ops.size());
  for (size_t i = 0; i < run.ops.size(); ++i) {
    if (run.ops[i].is_delta) continue;
    auto key = std::make_pair(run.ops[i].request.solver,
                              Normalized(run.ops[i].request.delta_v));
    auto [it, fresh] = first.emplace(std::move(key), i);
    if (fresh) {
      if (run.results[i].ok()) to_check.push_back(i);
      continue;
    }
    Fingerprint a, b;
    a.Mix(run.results[i]);
    b.Mix(run.results[it->second]);
    if (a.value() != b.value()) problems[i] = "repeat differs from original";
  }
  delprop::ThreadPool pool(threads);
  std::vector<std::optional<VseInstance>> replicas(threads);
  delprop::ParallelFor(&pool, threads, [&](size_t w) {
    replicas[w].emplace(primary.Replicate());
    for (size_t k = w; k < to_check.size(); k += threads) {
      size_t i = to_check[k];
      Status reset = replicas[w]->ResetDeletions(run.ops[i].request.delta_v);
      problems[i] = reset.ok() ? VerifyAnswer(*replicas[w], *run.results[i])
                               : reset.ToString();
    }
    replicas[w].reset();
  });
  for (size_t i = 0; i < run.ops.size(); ++i) {
    if (run.ops[i].is_delta) continue;
    CountAnswer(run.results[i], problems[i], run.ops[i].request.solver,
                report);
  }
}

// Runs the engine workload untraced: serving loop (batches or live steps),
// then the serve refresh lane. `served` is consumed step by step.
void RunEngine(Served& served, const ServingParams& params, uint64_t seed,
               EngineRun* run, Report* report) {
  VseInstance& primary = *served.loaded.instance;
  delprop::Database& db = *served.loaded.database;
  BatchSolveEngine& engine = *served.engine;
  RequestStream requests(delprop::DeriveTaskSeed(seed, 1), ViewSizes(primary),
                         params.live);
  size_t leaves = primary.database()
                      .relation(*db.schema().FindRelation(
                          "L" + std::to_string(params.levels - 1)))
                      .row_count();
  LeafSwapStream deltas(delprop::DeriveTaskSeed(seed, 2), params.levels,
                        params.fanout, leaves, params.live);
  Fingerprint fp;

  auto apply_delta = [&](Op op, bool timed) {
    BaseDelta delta = MakeDelta(db, params.levels, op.delta);
    Clock::time_point start = Clock::now();
    Status status = engine.ApplyDelta(db, delta);
    double wall = MsSince(start);
    run->delta_total_ms += wall;
    if (timed) run->delta_wall_ms.push_back(wall);
    MixOp(&fp, op, Status::Ok(), status);
    report->CountOp(status.ok(), "delta rejected: " + status.ToString());
    run->ops.push_back(std::move(op));
    run->results.emplace_back(Status::Internal("delta"));
  };

  Clock::time_point loop_start = Clock::now();
  size_t answered = 0;
  std::optional<VseInstance> verifier;
  // The live client (and its one engine worker) runs on this thread.
  CpuRotation rotation;
  for (size_t batch = 0;; ++batch) {
    if (params.live && batch % 64 == 0) rotation.Next();
    bool time_left = MsSince(loop_start) < params.seconds * 1000.0;
    if (params.max_batches > 0
            ? batch >= params.max_batches
            : (!time_left && answered >= params.side_effect_prefix &&
               batch >= params.min_batches)) {
      break;
    }
    if (params.live) {
      Op delta_op;
      delta_op.is_delta = true;
      delta_op.delta = deltas.Next();
      verifier.reset();  // sole ownership: ApplyDelta mutates in place
      apply_delta(std::move(delta_op), true);
      verifier.emplace(primary.Replicate());
    }
    size_t batch_size = params.live ? 1 : params.batch;
    size_t earlier_end = run->ops.size();
    std::vector<SolveRequest> batch_requests;
    std::vector<Op> batch_ops;
    for (size_t k = 0; k < batch_size; ++k) {
      batch_ops.push_back(requests.Next(earlier_end));
      batch_requests.push_back(batch_ops.back().request);
    }
    Clock::time_point start = Clock::now();
    std::vector<delprop::RequestOutcome> outcomes =
        engine.SolveBatch(batch_requests);
    double wall = MsSince(start);
    run->batch_wall_ms.push_back(wall);
    if (params.live) run->call_wall_ms.push_back(wall);
    for (size_t k = 0; k < outcomes.size(); ++k) {
      run->request_wall_ms.push_back(outcomes[k].stats.wall_ms);
      MixOp(&fp, batch_ops[k], outcomes[k].result, Status::Ok());
      if (outcomes[k].result.ok()) ++answered;
      if (params.live) {
        // Live answers are checked against the state they were served from.
        const Result<VseSolution>& result = outcomes[k].result;
        std::string problem;
        if (result.ok()) {
          Status reset = verifier->ResetDeletions(batch_requests[k].delta_v);
          problem = reset.ok() ? VerifyAnswer(*verifier, *result)
                               : reset.ToString();
        }
        CountAnswer(result, problem, batch_requests[k].solver, report);
      }
      run->ops.push_back(std::move(batch_ops[k]));
      run->results.push_back(std::move(outcomes[k].result));
    }
  }
  verifier.reset();
  run->stats = engine.stats();

  // Serve: the answers are checked against the unchanged instance before
  // the refresh lane mutates it.
  if (!params.live) VerifyServeAnswers(primary, params.workers, *run, report);

  // The first refresh also frees the memo cache, whose size depends on how
  // many requests the run served: it is a warm-up, counted but not timed.
  for (size_t r = 0; r <= params.refreshes && params.refreshes > 0; ++r) {
    Op delta_op;
    delta_op.is_delta = true;
    delta_op.delta = deltas.Next();
    apply_delta(std::move(delta_op), r > 0);
  }
  run->fingerprint = fp.value();
}

// Deterministic counters of one replay, compared across the two traced
// replays of a run.
struct ReplayCounts {
  LoadCounts load;
  std::map<std::string, double> values;  // per-layer metric name → count
  bool operator==(const ReplayCounts& other) const = default;
};

struct ReplayResult {
  uint64_t fingerprint = 0;
  ReplayCounts counts;
  double request_op_ms = 0.0;
  double delta_op_ms = 0.0;
  double request_layer_ms = 0.0;  // dp/plan/solvers/ilp spans of requests
  double delta_layer_ms = 0.0;    // dp/plan/engine spans of deltas
};

void AddPlanStats(const delprop::PlanBuildStats& stats,
                  std::map<std::string, double>* values) {
  (*values)["plan.full_builds"] += static_cast<double>(stats.full_builds);
  (*values)["plan.core_rebinds"] += static_cast<double>(stats.core_rebinds);
  (*values)["plan.overlay_recycles"] +=
      static_cast<double>(stats.overlay_recycles);
  (*values)["plan.core_patches"] += static_cast<double>(stats.core_patches);
  (*values)["plan.core_patch_fallbacks"] +=
      static_cast<double>(stats.core_patch_fallbacks);
}

// Replays `run.ops` on one replica of a freshly set-up instance, with a
// span around every library call (tracer may be null for an untimed check).
Result<ReplayResult> Replay(const InstanceText& text,
                            const ServingParams& params, const EngineRun& run,
                            Tracer* tracer) {
  ReplayResult out;
  std::map<std::string, double>& values = out.counts.values;
  Result<Served> served = Status::Internal("no set-up");
  {
    Tracer::Scope setup(tracer, "setup");
    served = SetUp(text, params, tracer, &out.counts.load, nullptr);
  }
  if (!served.ok()) return served.status();
  // The replay serves from one replica of its own: drop the engine (and its
  // replicas) so deltas mutate the primary in place, as in the engine.
  served->engine.reset();
  VseInstance& primary = *served->loaded.instance;
  delprop::Database& db = *served->loaded.database;

  std::optional<VseInstance> replica;
  delprop::ScratchPool scratch;
  std::map<std::string, std::unique_ptr<delprop::VseSolver>> solvers;
  std::map<std::pair<std::string, std::vector<ViewTupleId>>,
           Result<VseSolution>>
      memo;
  std::map<std::string, std::string> span_names;
  Fingerprint fp;
  {
    Tracer::Scope scope(tracer, "setup");
    replica.emplace(Traced(tracer, "engine.replicate",
                           [&] { return primary.Replicate(); }));
  }

  for (size_t i = 0; i < run.ops.size(); ++i) {
    const Op& op = run.ops[i];
    Clock::time_point op_start = Clock::now();
    if (op.is_delta) {
      Tracer::Scope scope(tracer, "op.delta");
      scratch.ReleasePlans();
      AddPlanStats(replica->plan_stats(), &values);
      replica.reset();
      BaseDelta delta = MakeDelta(db, params.levels, op.delta);
      ApplyDeltaReport delta_report;
      Status status = Traced(tracer, "dp.apply_delta", [&] {
        return primary.ApplyDelta(db, delta, {}, &delta_report);
      });
      Traced(tracer, "plan.patch", [&] { return primary.compiled(); });
      replica.emplace(Traced(tracer, "engine.replicate",
                             [&] { return primary.Replicate(); }));
      memo.clear();
      values["dp.view_tuples_added"] +=
          static_cast<double>(delta_report.view_tuples_added);
      values["dp.view_tuples_removed"] +=
          static_cast<double>(delta_report.view_tuples_removed);
      values["dp.witnesses_added"] +=
          static_cast<double>(delta_report.witnesses_added);
      values["dp.witnesses_removed"] +=
          static_cast<double>(delta_report.witnesses_removed);
      MixOp(&fp, op, Status::Ok(), status);
      out.delta_op_ms += MsSince(op_start);
      continue;
    }

    Tracer::Scope scope(tracer, "op.request");
    auto key = std::make_pair(op.request.solver,
                              Normalized(op.request.delta_v));
    auto hit = memo.find(key);
    if (hit != memo.end()) {
      values["engine.cache_hits"] += 1;
      MixOp(&fp, op, hit->second, Status::Ok());
      out.request_op_ms += MsSince(op_start);
      continue;
    }
    auto& solver = solvers[op.request.solver];
    if (solver == nullptr) solver = delprop::MakeSolver(op.request.solver);
    std::string& span = span_names[op.request.solver];
    if (span.empty()) {
      span = IsCertifying(op.request.solver)
                 ? "ilp.solve"
                 : "solvers." + op.request.solver;
    }
    Traced(tracer, "solvers.release_plans", [&] { scratch.ReleasePlans(); });
    Status reset = Traced(tracer, "dp.reset_deletions", [&] {
      return replica->ResetDeletions(key.second);
    });
    Result<VseSolution> result = reset;
    if (reset.ok()) {
      Traced(tracer, "plan.overlay", [&] { return replica->compiled(); });
      result = Traced(tracer, span + (op.bulk ? ".bulk" : ".point"), [&] {
        return solver->SolveWith(*replica, &scratch);
      });
    }
    values["engine.solver_runs"] += 1;
    if (result.ok() && IsCertifying(op.request.solver)) {
      values["ilp.nodes"] += static_cast<double>(result->gap.nodes);
      values["ilp.certified"] += result->gap.optimal ? 1.0 : 0.0;
      values["ilp.deadline_hits"] += result->gap.deadline_hit ? 1.0 : 0.0;
    }
    MixOp(&fp, op, result, Status::Ok());
    memo.emplace(std::move(key), std::move(result));
    out.request_op_ms += MsSince(op_start);
  }
  AddPlanStats(replica->plan_stats(), &values);
  AddPlanStats(primary.plan_stats(), &values);
  values["solvers.tracker_allocs"] =
      static_cast<double>(scratch.stats().tracker_allocs);
  values["solvers.tracker_reuses"] =
      static_cast<double>(scratch.stats().tracker_reuses);
  out.fingerprint = fp.value();
  if (tracer != nullptr) {
    for (const Tracer::Span& span : tracer->spans()) {
      if (span.parent < 0) continue;
      const Tracer::Span& parent = tracer->spans()[span.parent];
      double ms = (span.end_us - span.start_us) / 1000.0;
      if (parent.name == "op.request") out.request_layer_ms += ms;
      if (parent.name == "op.delta") out.delta_layer_ms += ms;
    }
  }
  return out;
}

std::string Describe(const ReplayCounts& a, const ReplayCounts& b) {
  std::string diff;
  if (!(a.load == b.load)) diff += " EvalStats/rows";
  for (const auto& [name, value] : a.values) {
    auto it = b.values.find(name);
    if (it == b.values.end() || it->second != value) diff += " " + name;
  }
  return diff;
}

void ReportEndToEnd(const EngineRun& run, const ServingParams& params,
                    Report* report) {
  size_t answered = 0, certifying = 0, certified = 0;
  double side_effect = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < run.ops.size(); ++i) {
    if (run.ops[i].is_delta || !run.results[i].ok()) continue;
    ++answered;
    if (counted < params.side_effect_prefix) {
      side_effect += run.results[i]->Cost();
      ++counted;
    }
    if (IsCertifying(run.ops[i].request.solver)) {
      ++certifying;
      if (run.results[i]->gap.optimal) ++certified;
    }
  }
  double busy_s = Sum(run.batch_wall_ms) / 1000.0;
  const std::vector<double>& latency =
      params.live ? run.call_wall_ms : run.request_wall_ms;
  report->Set("setup_s", Median(run.setup_s), "s");
  report->Set("throughput_rps",
              busy_s > 0.0 ? static_cast<double>(answered) / busy_s : 0.0,
              "requests/s");
  report->Set("latency_p50_ms", Percentile(latency, 0.50), "ms");
  report->Set("latency_p99_ms", Percentile(latency, 0.99), "ms");
  report->Set("delta_p50_ms", Percentile(run.delta_wall_ms, 0.50), "ms");
  report->Set("delta_p99_ms", Percentile(run.delta_wall_ms, 0.99), "ms");
  report->Set("side_effect", side_effect, "weight");
  report->Set("certified_frac",
              certifying > 0 ? static_cast<double>(certified) /
                                   static_cast<double>(certifying)
                             : 0.0,
              "ratio");
  report->Set("ok_frac",
              report->attempted() > 0
                  ? static_cast<double>(report->attempted() -
                                        report->failed()) /
                        static_cast<double>(report->attempted())
                  : 0.0,
              "ratio");
  std::printf(
      "samples: %zu requests (latency p99 has %zu beyond), %zu deltas "
      "(delta p99 has %zu beyond), %zu batches; side_effect over the first "
      "%zu answers; certified %zu/%zu ilp requests; failed %llu/%llu\n",
      latency.size(), CountBeyond(latency, 0.99), run.delta_wall_ms.size(),
      CountBeyond(run.delta_wall_ms, 0.99), run.batch_wall_ms.size(), counted,
      certified, certifying,
      static_cast<unsigned long long>(report->failed()),
      static_cast<unsigned long long>(report->attempted()));
}

int RunServing(const RunConfig& config, ServingParams params,
               Report* report) {
  Rng rng(config.seed);
  delprop::PathSchemaParams forest;
  forest.levels = params.levels;
  forest.roots = params.roots;
  forest.fanout = params.fanout;
  forest.deletion_fraction = 0.0;
  InstanceText text;
  size_t view_tuples = 0;
  {
    Result<delprop::GeneratedVse> generated =
        delprop::GeneratePathSchema(rng, forest);
    if (!generated.ok()) {
      std::fprintf(stderr, "generator: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    text = RenderInstance(*generated->instance);
    view_tuples = generated->instance->TotalViewTuples();
  }
  report->Param("view_tuples", static_cast<double>(view_tuples));
  report->Param("forest", "levels " + std::to_string(params.levels) +
                              ", roots " + std::to_string(params.roots) +
                              ", fanout " + std::to_string(params.fanout));
  report->Param("workers", static_cast<double>(params.workers));
  report->Param("batch", static_cast<double>(params.live ? 1 : params.batch));
  report->Param("text_bytes", static_cast<double>(text.bytes()));
  report->Param("delta_v_classes",
                params.live
                    ? "point 1-32 (95% serve point mix, 5% dp-tree)"
                    : "point 1-32 (90%), bulk 256-1024 (10%); 25% repeats");

  // Set up several times; the last engine serves.
  EngineRun run;
  Result<Served> served = Status::Internal("no set-up");
  size_t setups = config.trace ? 1 : params.setups;
  CpuRotation rotation;
  for (size_t s = 0; s < setups; ++s) {
    served = Status::Internal("released");  // one instance in memory at a time
    double seconds = 0.0;
    served = SetUp(text, params, nullptr, nullptr, &seconds, &rotation);
    if (!served.ok()) {
      std::fprintf(stderr, "set-up: %s\n", served.status().ToString().c_str());
      return 1;
    }
    run.setup_s.push_back(seconds);
  }
  RunEngine(*served, params, config.seed, &run, report);
  served = Status::Internal("released");

  if (!config.trace) {
    ReportEndToEnd(run, params, report);
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("fingerprint: %s\n", Hex(run.fingerprint).c_str());
    return 0;
  }

  // Traced run: two traced replays of the same operations.
  Tracer tracer;
  Clock::time_point replay_start = Clock::now();
  Result<ReplayResult> first = Replay(text, params, run, &tracer);
  double traced_wall_ms = MsSince(replay_start);
  if (!first.ok()) {
    std::fprintf(stderr, "replay: %s\n", first.status().ToString().c_str());
    return 1;
  }
  {
    Tracer::Scope probe(&tracer, "probe");
    Result<Served> probe_served =
        SetUp(text, params, nullptr, nullptr, nullptr);
    if (probe_served.ok()) {
      probe_served->engine.reset();
      Traced(&tracer, "hypergraph.forest_build", [&] {
        return delprop::DataForest::Build(
                   probe_served->loaded.instance->ViewPointers())
            .node_count();
      });
    }
  }
  Tracer second_tracer;
  Result<ReplayResult> second = Replay(text, params, run, &second_tracer);
  if (!second.ok()) {
    std::fprintf(stderr, "replay: %s\n", second.status().ToString().c_str());
    return 1;
  }
  std::printf("fingerprints: engine %s, replay %s, replay %s\n",
              Hex(run.fingerprint).c_str(), Hex(first->fingerprint).c_str(),
              Hex(second->fingerprint).c_str());
  if (first->fingerprint != run.fingerprint ||
      second->fingerprint != run.fingerprint) {
    std::fprintf(stderr,
                 "determinism self-check failed: the one-replica replay does "
                 "not reproduce the engine's outcomes\n");
    return 3;
  }
  if (!(first->counts == second->counts)) {
    std::fprintf(stderr,
                 "determinism self-check failed: deterministic counts differ "
                 "between two traced replays:%s\n",
                 Describe(first->counts, second->counts).c_str());
    return 3;
  }

  std::map<std::string, double> values = first->counts.values;
  values["tool.rows"] = static_cast<double>(first->counts.load.rows);
  values["query.rows_scanned"] =
      static_cast<double>(first->counts.load.rows_scanned);
  values["query.matches"] = static_cast<double>(first->counts.load.matches);
  values["query.indexes_built"] =
      static_cast<double>(first->counts.load.indexes_built);
  double busy_ms = Sum(run.request_wall_ms);
  double batch_ms = Sum(run.batch_wall_ms);
  values["engine.busy_ms"] = busy_ms;
  values["engine.worker_idle_frac"] =
      batch_ms > 0.0 ? 1.0 - busy_ms / (static_cast<double>(params.workers) *
                                        batch_ms)
                     : 0.0;
  values["engine.self_ms"] = busy_ms - first->request_layer_ms;
  values["engine.handoff_ms"] = run.delta_total_ms - first->delta_layer_ms;
  values["engine.cache_hits"] = static_cast<double>(run.stats.cache_hits);
  values["engine.requests"] = static_cast<double>(run.stats.requests);
  values["engine.cache_hit_ratio"] =
      run.stats.requests > 0 ? static_cast<double>(run.stats.cache_hits) /
                                   static_cast<double>(run.stats.requests)
                             : 0.0;
  values["engine.solver_runs"] = static_cast<double>(run.stats.solver_runs);
  values["engine.invalid_requests"] =
      static_cast<double>(run.stats.invalid_requests);
  double untraced_op_ms = busy_ms + run.delta_total_ms;
  double traced_op_ms = first->request_op_ms + first->delta_op_ms;
  values["trace.span_coverage"] = tracer.OperationCoverage();
  values["trace.overhead_ms"] = traced_op_ms - untraced_op_ms;
  values["trace.overhead_frac"] =
      untraced_op_ms > 0.0 ? traced_op_ms / untraced_op_ms - 1.0 : 0.0;
  values["trace.replay_ops"] = static_cast<double>(run.ops.size());
  ReportPerLayer(tracer, values, report);
  std::printf(
      "span coverage: %.4f of %.1f ms operation wall (probes excluded); "
      "tracing overhead %.1f ms (traced replay %.1f ms on 1 replica vs "
      "untraced %.1f ms on %zu workers); replay wall %.1f ms\n",
      tracer.OperationCoverage(), traced_op_ms, traced_op_ms - untraced_op_ms,
      traced_op_ms, untraced_op_ms, params.workers, traced_wall_ms);
  std::string path = config.out_dir + "/trace-" + config.workload + "-seed" +
                     std::to_string(config.seed) + ".json";
  if (!config.out_dir.empty() && tracer.WriteChromeJson(path)) {
    std::printf("trace: %s (%zu spans)\n", path.c_str(),
                tracer.spans().size());
  }
  return 0;
}

}  // namespace

int RunServe(const RunConfig& config, Report* report) {
  ServingParams params;
  params.side_effect_prefix = 1024;
  params.refreshes = 24;
  params.seconds = config.trace ? config.seconds * 0.1 : config.seconds;
  if (config.smoke) {
    params.roots = 3;  // 1x
    params.max_batches = 3;
    params.refreshes = 3;
    params.setups = 2;
    params.side_effect_prefix = 64;
  }
  return RunServing(config, params, report);
}

int RunLive(const RunConfig& config, Report* report) {
  ServingParams params;
  params.roots = 6;
  params.workers = 1;
  params.live = true;
  params.side_effect_prefix = 512;
  params.setups = 15;  // ~25 ms each: the median needs many
  params.min_batches = config.trace ? 0 : 1000;
  params.seconds = config.trace ? config.seconds * 0.25 : config.seconds;
  if (config.smoke) {
    params.roots = 3;
    params.max_batches = 40;
    params.setups = 2;
    params.side_effect_prefix = 20;
  }
  return RunServing(config, params, report);
}

}  // namespace perfbench
