#include "engine/batch_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <utility>

#include "common/hash.h"
#include "solvers/solver_registry.h"

namespace delprop {

/// Everything one worker owns privately: a replica of the engine's instance
/// (mutable ΔV over the shared plan core), pooled solver scratch, the
/// solvers it has constructed so far (std::map: deterministic iteration is
/// irrelevant here, but lookups are off the hot path and the key set is
/// tiny), a ΔV normalization buffer, the decision a memo hit copied out,
/// and its share of the engine counters.
struct BatchSolveEngine::Worker {
  explicit Worker(VseInstance replica_in) { replica.emplace(std::move(replica_in)); }

  /// Engaged except transiently inside BatchSolveEngine::ApplyDelta, which
  /// drops every replica before mutating the primary (sole-owner in-place
  /// mutation) and re-emplaces them from the updated primary afterwards.
  std::optional<VseInstance> replica;
  ScratchPool scratch;
  std::map<std::string, std::unique_ptr<VseSolver>> solvers;
  std::vector<ViewTupleId> dv_buffer;
  /// A hit's decision, copied out under the cache lock: another worker may
  /// evict the entry as soon as the lock is released.
  Decision hit;

  size_t requests = 0;
  size_t cache_hits = 0;
  size_t solver_runs = 0;
  size_t invalid_requests = 0;
};

size_t BatchSolveEngine::CacheKeyHash::operator()(const CacheKey& key) const {
  return (*this)(CacheKeyView{key.solver, key.delta_v});
}

size_t BatchSolveEngine::CacheKeyHash::operator()(
    const CacheKeyView& key) const {
  size_t seed = std::hash<std::string>()(key.solver);
  for (const ViewTupleId& id : key.delta_v) {
    HashCombine(seed, ViewTupleIdHash()(id));
  }
  return seed;
}

BatchSolveEngine::BatchSolveEngine(VseInstance& instance, Options options)
    : options_(options), primary_(&instance) {
  if (options_.threads == 0) options_.threads = 1;
  if (options_.threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.threads);
  }
  // Compile the primary's plan before replicating so every replica starts
  // from the one shared core (and the current plan) instead of building its
  // own. A core built here is built on the workers.
  (void)instance.compiled(pool_.get());
  workers_.reserve(options_.threads);
  for (size_t w = 0; w < options_.threads; ++w) {
    workers_.push_back(std::make_unique<Worker>(instance.Replicate()));
  }
}

BatchSolveEngine::~BatchSolveEngine() = default;

void BatchSolveEngine::Process(Worker& worker, const SolveRequest& request,
                               RequestOutcome* outcome) {
  auto start = std::chrono::steady_clock::now();
  ++worker.requests;
  do {
    // Resolve the solver first: worker-cached, constructed once per name.
    VseSolver* solver = nullptr;
    auto it = worker.solvers.find(request.solver);
    if (it != worker.solvers.end()) {
      solver = it->second.get();
    } else {
      std::unique_ptr<VseSolver> made = MakeSolver(request.solver);
      if (made == nullptr) {
        ++worker.invalid_requests;
        outcome->result =
            Status::NotFound("unknown solver '" + request.solver + "'");
        break;
      }
      solver = made.get();
      worker.solvers.emplace(request.solver, std::move(made));
    }
    if (solver->objective() != request.objective) {
      ++worker.invalid_requests;
      outcome->result = Status::InvalidArgument(
          "solver '" + request.solver + "' optimizes a different objective");
      break;
    }

    // Normalize ΔV into the worker buffer (capacity reused across requests).
    worker.dv_buffer.assign(request.delta_v.begin(), request.delta_v.end());
    std::sort(worker.dv_buffer.begin(), worker.dv_buffer.end());
    worker.dv_buffer.erase(
        std::unique(worker.dv_buffer.begin(), worker.dv_buffer.end()),
        worker.dv_buffer.end());

    bool hit = false;
    if (options_.memo_cache) {
      // Heterogeneous probe: no CacheKey (string + vector copies) is
      // constructed on the hit path — or on the miss path; the owned key is
      // built once, at insertion after the solve. A hit copies the decision
      // into worker-owned buffers (capacity reused across requests).
      std::lock_guard<std::mutex> lock(cache_mu_);
      auto found = cache_.find(CacheKeyView{request.solver, worker.dv_buffer});
      if (found != cache_.end()) {
        hit = true;
        worker.hit.status = found->second.status;
        worker.hit.deletion.assign(found->second.deletion.begin(),
                                   found->second.deletion.end());
        worker.hit.solver_name = found->second.solver_name;
        worker.hit.gap = found->second.gap;
      }
    }

    // Release the pooled tracker's plan reference BEFORE swapping ΔV: the
    // retired plan then has no outside owner, so the rebuild below recycles
    // its overlay buffers instead of allocating.
    worker.scratch.ReleasePlans();
    if (Status s = worker.replica->ResetDeletions(worker.dv_buffer);
        !s.ok()) {
      ++worker.invalid_requests;
      outcome->result = std::move(s);
      break;
    }

    PlanBuildStats plan_before = worker.replica->plan_stats();
    ScratchPool::Stats scratch_before = worker.scratch.stats();
    if (hit) {
      // Rebuild the answer exactly as the solver's final step built it.
      ++worker.cache_hits;
      outcome->stats.cache_hit = true;
      if (!worker.hit.status.ok()) {
        outcome->result = worker.hit.status;
      } else {
        VseSolution solution =
            MakeSolution(*worker.replica, DeletionSet(worker.hit.deletion),
                         worker.hit.solver_name);
        solution.gap = worker.hit.gap;
        outcome->result = std::move(solution);
      }
    } else {
      outcome->result = solver->SolveWith(*worker.replica, &worker.scratch);
      ++worker.solver_runs;
    }
    PlanBuildStats plan_after = worker.replica->plan_stats();
    ScratchPool::Stats scratch_after = worker.scratch.stats();
    outcome->stats.plan_core_reused =
        plan_after.full_builds == plan_before.full_builds;
    outcome->stats.plan_overlay_recycled =
        plan_after.overlay_recycles > plan_before.overlay_recycles;
    outcome->stats.scratch_reused =
        scratch_after.tracker_reuses > scratch_before.tracker_reuses &&
        scratch_after.tracker_allocs == scratch_before.tracker_allocs;

    if (options_.memo_cache && !hit) {
      Memoize(request.solver, worker.dv_buffer, outcome->result);
    }
  } while (false);
  outcome->stats.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
}

// Memo insertion: builds the owned key and the stored decision, once per
// solve and after it; the allocations are the entry's own storage.
// delprop-hot-stop
void BatchSolveEngine::Memoize(const std::string& solver,
                               const std::vector<ViewTupleId>& delta_v,
                               const Result<VseSolution>& result) {
  Decision decision;
  if (result.ok()) {
    decision.deletion = result->deletion.Sorted();
    decision.solver_name = result->solver_name;
    decision.gap = result->gap;
  } else {
    decision.status = result.status();
  }
  size_t bytes = kEntryOverheadBytes + sizeof(ViewTupleId) * delta_v.size() +
                 sizeof(TupleRef) * decision.deletion.size();
  if (bytes > options_.memo_cache_bytes) return;
  decision.bytes = bytes;
  CacheKey key{solver, delta_v};
  std::lock_guard<std::mutex> lock(cache_mu_);
  // Two workers may race on the same fresh key; both computed the same
  // deterministic decision, so first-in wins and the duplicate is dropped.
  auto [it, inserted] = cache_.emplace(std::move(key), std::move(decision));
  if (!inserted) return;
  cache_fifo_.push_back(&it->first);
  cache_bytes_ += bytes;
  while (cache_bytes_ > options_.memo_cache_bytes) {
    auto oldest = cache_.find(*cache_fifo_.front());
    cache_fifo_.pop_front();
    cache_bytes_ -= oldest->second.bytes;
    cache_.erase(oldest);
    ++cache_evictions_;
  }
}

std::vector<RequestOutcome> BatchSolveEngine::SolveBatch(
    const std::vector<SolveRequest>& requests) {
  std::vector<RequestOutcome> outcomes(requests.size());
  if (workers_.size() == 1 || pool_ == nullptr || requests.size() <= 1) {
    for (size_t i = 0; i < requests.size(); ++i) {
      Process(*workers_[0], requests[i], &outcomes[i]);
    }
    return outcomes;
  }
  // Dynamic claiming: each worker body owns one replica and pulls the next
  // unclaimed request. Outcome slots are pre-assigned by request index, so
  // the output does not depend on the claim order.
  std::atomic<size_t> next{0};
  ParallelFor(pool_.get(), workers_.size(), [&](size_t w) {
    for (size_t i = next.fetch_add(1); i < requests.size();
         i = next.fetch_add(1)) {
      Process(*workers_[w], requests[i], &outcomes[i]);
    }
  });
  return outcomes;
}

EngineStats BatchSolveEngine::stats() const {
  EngineStats total;
  for (const std::unique_ptr<Worker>& worker : workers_) {
    total.requests += worker->requests;
    total.cache_hits += worker->cache_hits;
    total.solver_runs += worker->solver_runs;
    total.invalid_requests += worker->invalid_requests;
    const ScratchPool::Stats& scratch = worker->scratch.stats();
    total.scratch_acquires += scratch.tracker_acquires;
    total.scratch_allocs += scratch.tracker_allocs;
    total.scratch_reuses += scratch.tracker_reuses;
    PlanBuildStats plan = worker->replica->plan_stats();
    total.plan_full_builds += plan.full_builds;
    total.plan_core_rebinds += plan.core_rebinds;
    total.plan_overlay_recycles += plan.overlay_recycles;
  }
  total.deltas_applied = deltas_applied_;
  std::lock_guard<std::mutex> lock(cache_mu_);
  total.cache_evictions = cache_evictions_;
  total.cache_bytes = cache_bytes_;
  return total;
}

Status BatchSolveEngine::ApplyDelta(Database& database, const BaseDelta& delta,
                                    const ApplyDeltaOptions& delta_options,
                                    ApplyDeltaReport* report) {
  // Drop every replica (and its scratch's plan references) first: the
  // primary becomes the sole owner of the shared view structure and plan
  // core, so VseInstance::ApplyDelta mutates in place instead of detaching a
  // copy-on-write duplicate for data no one will ever read again.
  for (std::unique_ptr<Worker>& worker : workers_) {
    worker->scratch.ReleasePlans();
    worker->replica.reset();
  }
  // No batch runs during a delta, so its O(‖V‖) passes (the views'
  // compaction, the core rebuild) run on the idle workers.
  Status applied = primary_->ApplyDelta(database, delta, delta_options,
                                        report, pool_.get());
  // Recompile once on the primary (a rebuilt core if the delta changed a
  // witness, and a fresh overlay), then hand the result to every worker —
  // on validation failure the primary is unchanged and this simply
  // restores the fleet.
  (void)primary_->compiled(pool_.get());
  for (std::unique_ptr<Worker>& worker : workers_) {
    worker->replica.emplace(primary_->Replicate());
  }
  if (applied.ok()) {
    ++core_epoch_;
    ++deltas_applied_;
    // Memoized decisions were made against the old base data.
    std::lock_guard<std::mutex> lock(cache_mu_);
    cache_fifo_.clear();
    cache_.clear();
    cache_bytes_ = 0;
  }
  return applied;
}

}  // namespace delprop
