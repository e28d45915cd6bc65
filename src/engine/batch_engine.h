#ifndef DELPROP_ENGINE_BATCH_ENGINE_H_
#define DELPROP_ENGINE_BATCH_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "dp/base_delta.h"
#include "dp/solution.h"
#include "dp/solver.h"
#include "dp/vse_instance.h"
#include "runtime/thread_pool.h"
#include "solvers/scratch_pool.h"

namespace delprop {

/// One deletion-propagation request against the engine's instance: a ΔV
/// subset (any order, duplicates allowed), a registry solver name, and the
/// objective the caller expects — requests whose objective does not match
/// the named solver's fail with InvalidArgument instead of silently
/// optimizing the wrong thing.
struct SolveRequest {
  std::vector<ViewTupleId> delta_v;
  std::string solver = "greedy";
  Objective objective = Objective::kStandard;
};

/// Per-request provenance counters. `wall_ms` and `cache_hit` depend on
/// scheduling (which worker saw the duplicate first), so they — unlike the
/// results — may differ between runs at different thread counts.
struct RequestStats {
  double wall_ms = 0.0;
  bool cache_hit = false;
  /// The solver drew tracker storage from the worker pool without
  /// allocating (steady state after the worker's first request).
  bool scratch_reused = false;
  /// The request's plan was an overlay-only rebuild over the shared core.
  bool plan_core_reused = false;
  /// The overlay itself was built into recycled buffers (no allocation).
  bool plan_overlay_recycled = false;
};

struct RequestOutcome {
  Result<VseSolution> result;
  RequestStats stats;

  RequestOutcome() : result(Status::Internal("request did not run")) {}
};

/// Cumulative engine counters, aggregated across workers after each batch.
struct EngineStats {
  size_t requests = 0;
  size_t cache_hits = 0;
  size_t solver_runs = 0;
  size_t invalid_requests = 0;
  size_t scratch_acquires = 0;
  size_t scratch_allocs = 0;
  size_t scratch_reuses = 0;
  size_t plan_full_builds = 0;
  size_t plan_core_rebinds = 0;
  size_t plan_overlay_recycles = 0;
  /// Base-data deltas applied through BatchSolveEngine::ApplyDelta.
  size_t deltas_applied = 0;
  /// Memo entries dropped to stay within Options::memo_cache_bytes.
  size_t cache_evictions = 0;
  /// Bytes the memo's live entries are charged (see memo_cache_bytes).
  size_t cache_bytes = 0;
};

/// Executes batches of SolveRequests against ONE instance, amortizing
/// everything ΔV-independent across the whole batch:
///   * the CompiledInstance core is built once (on the primary instance,
///     before replication) and shared read-only by every worker replica;
///   * each worker owns a `VseInstance::Replicate()` replica whose ΔV is
///     swapped per request via ResetDeletions — an overlay-only plan rebuild
///     into recycled buffers, no re-interning;
///   * each worker owns a ScratchPool whose single DamageTracker is rebound
///     (epoch-stamped reset) instead of reallocated per request;
///   * solvers are constructed once per (worker, name) and reused;
///   * an optional memo cache stores the decision for each (solver,
///     normalized ΔV) pair: the status, ΔD, solver name and optimality gap.
///     A hit skips the solver but swaps ΔV like a miss (the overlay rebuild
///     into recycled buffers) and rebuilds the answer's report with
///     MakeSolution, so hits and misses build reports the same way. The
///     memo is capped in bytes and evicts in insertion order.
/// After each worker's first request (warmup), the greedy hot path performs
/// no steady-state allocations — asserted by tests via the counters above.
///
/// Results are deterministic: outcome i is solved against the same replica
/// state regardless of which worker claims it, so the outcome vector is
/// byte-identical at any `threads` setting, with the cache on or off, and
/// at any memo budget (RequestStats, which record scheduling provenance,
/// are exempt; so are which entries are evicted and which requests hit).
///
/// Live base data: ApplyDelta (below) mutates the primary instance between
/// batches and atomically re-replicates every worker from the updated
/// structure and plan core — the core-epoch counts these handoffs.
///
/// The instance, its database, and its queries must outlive the engine.
class BatchSolveEngine {
 public:
  struct Options {
    /// Worker replicas; > 1 also spins up an internal ThreadPool.
    size_t threads = 1;
    /// Memoize (solver, ΔV) → decision (status, ΔD, solver name, gap)
    /// until the next successful ApplyDelta; hits rebuild the report.
    bool memo_cache = true;
    /// Memory budget of the memo. Each entry is charged a fixed overhead
    /// plus 16 B per ΔV tuple in its key and 8 B per ΔD tuple; past the
    /// budget the oldest entries are evicted first. An entry larger than
    /// the whole budget is not stored, so 0 caches nothing.
    size_t memo_cache_bytes = size_t{64} << 20;
  };

  /// The engine keeps a pointer to `instance` (the primary): SolveBatch only
  /// reads it, ApplyDelta mutates it on the caller's behalf.
  BatchSolveEngine(VseInstance& instance, Options options);
  ~BatchSolveEngine();

  BatchSolveEngine(const BatchSolveEngine&) = delete;
  BatchSolveEngine& operator=(const BatchSolveEngine&) = delete;

  /// Executes `requests`, returning one outcome per request (same order).
  /// Invalid requests (unknown solver, objective mismatch, out-of-range ΔV)
  /// yield error outcomes; they never abort the batch.
  std::vector<RequestOutcome> SolveBatch(
      const std::vector<SolveRequest>& requests);

  /// Applies a base-data delta to the primary instance and re-replicates
  /// every worker from the result, so the next batch serves the new data.
  /// Call between batches — not concurrently with SolveBatch.
  ///
  /// The handoff drops every worker replica FIRST (making the primary the
  /// sole owner of the shared view structure, so VseInstance::ApplyDelta
  /// mutates in place instead of detaching a copy), then applies the delta,
  /// recompiles the primary's plan once, and re-replicates. On success the
  /// core-epoch advances and the memo cache is cleared (cached decisions
  /// were made against the old base data). On validation failure the primary
  /// is untouched and the epoch keeps its value, but replicas are rebuilt
  /// either way.
  Status ApplyDelta(Database& database, const BaseDelta& delta,
                    const ApplyDeltaOptions& delta_options = {},
                    ApplyDeltaReport* report = nullptr);

  /// Number of successful ApplyDelta handoffs; every worker replica always
  /// serves the structure this epoch refers to.
  uint64_t core_epoch() const { return core_epoch_; }

  /// Cumulative counters over every batch so far. Call between batches —
  /// not concurrently with SolveBatch.
  EngineStats stats() const;

  size_t worker_count() const { return workers_.size(); }

 private:
  struct Worker;

  struct CacheKey {
    std::string solver;
    std::vector<ViewTupleId> delta_v;  // normalized: sorted, deduplicated
  };
  /// Borrowed-reference mirror of CacheKey: probing the memo cache with one
  /// of these (heterogeneous lookup) costs zero allocations; an owned
  /// CacheKey is only materialized on a miss, when the entry is inserted.
  struct CacheKeyView {
    const std::string& solver;
    const std::vector<ViewTupleId>& delta_v;
  };
  struct CacheKeyHash {
    using is_transparent = void;
    size_t operator()(const CacheKey& key) const;
    size_t operator()(const CacheKeyView& key) const;
  };
  struct CacheKeyEq {
    using is_transparent = void;
    bool operator()(const CacheKey& a, const CacheKey& b) const {
      return a.solver == b.solver && a.delta_v == b.delta_v;
    }
    bool operator()(const CacheKey& a, const CacheKeyView& b) const {
      return a.solver == b.solver && a.delta_v == b.delta_v;
    }
    bool operator()(const CacheKeyView& a, const CacheKey& b) const {
      return a.solver == b.solver && a.delta_v == b.delta_v;
    }
  };
  /// What a solve decided; the report is rebuilt from it on every hit.
  struct Decision {
    Status status;                   // not ok: the solve's error
    std::vector<TupleRef> deletion;  // ΔD, sorted
    std::string solver_name;
    OptimalityGap gap;
    size_t bytes = 0;  // charged against memo_cache_bytes
  };
  /// What a memo entry costs besides its two id lists: the key and the
  /// decision, the hash node's link and cached hash, its bucket slot, its
  /// FIFO slot, and allocator headers for the node and both lists.
  static constexpr size_t kEntryOverheadBytes =
      sizeof(CacheKey) + sizeof(Decision) + 4 * sizeof(void*) + 3 * 16;

  void Process(Worker& worker, const SolveRequest& request,
               RequestOutcome* outcome);
  /// Stores the decision behind `result` under (solver, delta_v), then
  /// evicts the oldest entries until the memo fits its byte budget.
  void Memoize(const std::string& solver,
               const std::vector<ViewTupleId>& delta_v,
               const Result<VseSolution>& result);

  Options options_;
  VseInstance* primary_ = nullptr;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<ThreadPool> pool_;
  uint64_t core_epoch_ = 0;
  size_t deltas_applied_ = 0;

  mutable std::mutex cache_mu_;
  std::unordered_map<CacheKey, Decision, CacheKeyHash, CacheKeyEq> cache_;
  /// Keys of cache_ in insertion order, oldest first. unordered_map keeps
  /// element addresses across rehashing, so the pointers stay valid until
  /// their entry is erased.
  std::deque<const CacheKey*> cache_fifo_;
  size_t cache_bytes_ = 0;
  size_t cache_evictions_ = 0;
};

}  // namespace delprop

#endif  // DELPROP_ENGINE_BATCH_ENGINE_H_
