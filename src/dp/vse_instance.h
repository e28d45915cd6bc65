#ifndef DELPROP_DP_VSE_INSTANCE_H_
#define DELPROP_DP_VSE_INSTANCE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "dp/base_delta.h"
#include "query/evaluator.h"
#include "query/view.h"
#include "relational/database.h"

namespace delprop {

class CompiledInstance;
struct PlanCore;
class ThreadPool;

/// Identifies one view tuple across the multi-view input: (view index, tuple
/// index within that view).
struct ViewTupleId {
  size_t view = 0;
  size_t tuple = 0;

  friend bool operator==(const ViewTupleId& a, const ViewTupleId& b) {
    return a.view == b.view && a.tuple == b.tuple;
  }
  friend bool operator<(const ViewTupleId& a, const ViewTupleId& b) {
    return a.view != b.view ? a.view < b.view : a.tuple < b.tuple;
  }
};

struct ViewTupleIdHash {
  size_t operator()(const ViewTupleId& id) const {
    size_t seed = std::hash<size_t>()(id.view);
    HashCombine(seed, std::hash<size_t>()(id.tuple));
    return seed;
  }
};

/// Counters for how the instance's compiled plans were produced — exposed
/// so batched serving (engine/batch_engine.h) and tests can assert that
/// steady-state requests rebuild only the ΔV overlay (core_rebinds) on
/// recycled buffers (overlay_recycles) and never re-intern the structure
/// (full_builds).
struct PlanBuildStats {
  size_t full_builds = 0;       // core + overlay built from scratch
  size_t core_rebinds = 0;      // overlay rebuilt over a kept core
  size_t overlay_recycles = 0;  // of those, overlay buffers recycled
  // Always 0: nothing patches a core any more. Kept because the
  // benchmark's per-layer report reads it.
  size_t core_patches = 0;
  size_t core_patch_fallbacks = 0;  // ApplyDelta calls that dropped the core
  size_t core_reuses = 0;  // full builds into a dropped core's storage
};

namespace internal {

/// The base-data-derived half of a VseInstance: materialized views with
/// lineage, the multi-witness tally behind all_unique_witness(), and the
/// instance's logical base-row mask. Shared (via shared_ptr, copy-on-write)
/// between an instance and its replicas — replicas only ever diverge in ΔV
/// and weights, so sharing makes Replicate O(1) in the view size and lets
/// ApplyDelta refresh a whole worker fleet by mutating one structure.
/// `epoch` counts ApplyDelta generations, letting serving layers assert
/// replicas follow the primary.
struct ViewStructure {
  std::vector<View> views;
  /// Number of view tuples with more than one witness; 0 ⇔
  /// all_unique_witness(). Maintained incrementally by ApplyDelta.
  size_t multi_witness_tuples = 0;
  /// Rows logically deleted from the base database (rows are append-only;
  /// see relational/relation.h). Views are always Q(D \ base_mask).
  DeletionSet base_mask;
  /// Bumped once per ApplyDelta on this structure.
  uint64_t epoch = 0;
};

/// Lazily-built artifacts derived from a VseInstance, shared read-only by
/// concurrent solvers (SolverRegistry::RunAll hands one instance to many
/// threads). Guarded by `mu`; invalidated whenever the instance mutates
/// (MarkForDeletion, ApplyDelta). Held behind a shared_ptr so VseInstance
/// stays movable.
///
/// ΔV-only mutations keep `plan_core` (the ΔV-independent half of the plan)
/// and park the dropped plan in `retired`, whose overlay buffers the next
/// compiled() recycles when nothing else still references them. A base
/// delta that changes a witness, and every SetWeight, drop all three and
/// park the core in `retired_core`, so the next compiled() rebuilds the
/// core from scratch: into `retired_core`'s arrays when this cache holds
/// its only reference (checked under `mu`), else into a new core. That
/// build releases `retired_core` either way.
struct VseInstanceCaches {
  std::mutex mu;
  std::shared_ptr<const CompiledInstance> compiled;
  std::shared_ptr<const PlanCore> plan_core;
  std::shared_ptr<const CompiledInstance> retired;
  std::shared_ptr<const PlanCore> retired_core;
  PlanBuildStats plan_stats;
};

}  // namespace internal

/// A full deletion-propagation problem input (Section II.C): source database
/// D, queries Q, materialized views V = Q(D), intended deletions ΔV, and
/// per-view-tuple preservation weights (Section IV's weighted extension).
///
/// The instance is built once (views are materialized with lineage at
/// creation) and then deletions are marked on it; solvers treat it as
/// read-only. Live base data is supported through ApplyDelta, which
/// delta-updates the views instead of re-evaluating the queries.
class VseInstance {
 public:
  /// Materializes Qi(D) for every query. The database and the queries must
  /// outlive the instance. Fails if a query does not validate.
  ///
  /// If `mask` is non-null, views are materialized over D \ mask — used by
  /// iterative applications (CleaningSession) that apply earlier rounds'
  /// deletions without physically rewriting the database. The mask is copied
  /// into the instance's base mask, so later ApplyDelta calls keep honoring
  /// it.
  ///
  /// If `index_cache` is non-null, the per-(relation, position) join indexes
  /// built while materializing views are taken from / published to it, so
  /// repeated instance creation over one database (feedback loops, sweeps)
  /// stops rebuilding the same indexes (see runtime/index_cache.h).
  static Result<VseInstance> Create(
      const Database& database, std::vector<const ConjunctiveQuery*> queries,
      const DeletionSet* mask = nullptr, IndexCache* index_cache = nullptr);

  /// Load-time construction from views that were materialized elsewhere
  /// (deserialization, external view maintenance) instead of by evaluating
  /// the queries here. Validates witness structure: every view tuple must
  /// carry at least one witness and no witness may be empty — a ΔV mark on a
  /// witness-less tuple can never be honored and would otherwise surface
  /// only as an Internal error deep inside the solvers. Returns
  /// InvalidArgument naming the offending view/tuple on violation. The base
  /// mask starts empty: ApplyDelta treats every stored row as live.
  static Result<VseInstance> CreateFromMaterializedViews(
      const Database& database, std::vector<const ConjunctiveQuery*> queries,
      std::vector<View> views);

  /// Incremental maintenance under deletions: derives the instance for
  /// D \ (previous's masked rows ∪ newly_deleted) from `previous` WITHOUT
  /// re-running the queries — monotonicity means surviving answers are
  /// exactly the previous answers with a witness disjoint from the deletion.
  /// ΔV marks and weights are NOT carried over (a fresh feedback round).
  /// Equivalent to a full Create over the combined mask; property-tested.
  static Result<VseInstance> CreateByFiltering(
      const VseInstance& previous, const DeletionSet& newly_deleted);

  /// Applies a batch of live base-data changes atomically: rows in
  /// `delta.inserts` are appended to `database` (which must be the
  /// instance's own database — it is taken non-const here precisely because
  /// creation only borrowed it read-only), rows in `delta.deletes` join the
  /// instance's base mask, and the materialized views, all_unique_witness
  /// tally, ΔV marks and weights are all delta-updated in place. The result
  /// is byte-identical to re-indexing the live views
  /// (CreateFromMaterializedViews); a fresh Create over the mutated
  /// database agrees only as sets, since tuples an insert creates are
  /// appended to their view. The mutate-vs-rebuild oracle in
  /// testing/mutation.h checks both.
  ///
  /// Cost: a delete touches only the view tuples in its rows' kill rows,
  /// but compacting a view that lost a tuple is linear in ‖V‖ (the tuple
  /// moves plus one branch-free pass over its head index), and so is the
  /// core rebuild the next compiled() pays: one walk over the views'
  /// witnesses and a few sequential passes over the core's arrays, built
  /// into the dropped core's storage when nothing else holds it. Inserts
  /// are joined by internal::CollectDeltaMatches, which scans every
  /// non-pivot atom's relation per partial match (no index).
  ///
  /// With a non-null `pool`, the views that lost tuples are compacted on its
  /// workers, one view per task, and a pre-delta core that has to be built
  /// first is built through compiled(pool). The inserts' join stays on the
  /// calling thread. The result is the same for every pool, and `pool` must
  /// not be the pool whose worker runs the caller.
  ///
  /// The whole delta is validated first and rejected without side effects:
  /// inserts must match arity and respect keys (masked rows keep their keys
  /// occupied — re-inserting a logically deleted row's key is an error),
  /// deletes must name existing, not-yet-deleted rows of the pre-delta
  /// database. Errors are InvalidArgument naming the offending relation/row.
  ///
  /// The view tuples a delete touches are read from the pre-delta plan
  /// core's kill rows; an instance without a cached core (never compiled,
  /// or dropped by an earlier delta or SetWeight) first pays the lazy full
  /// build of compiled(), counted in plan_stats().full_builds.
  ///
  /// Plan maintenance: a delta that adds or removes any witness drops the
  /// compiled plan, the retired plan and the core (counted in
  /// plan_stats().core_patch_fallbacks), and the next compiled() rebuilds
  /// the core once (counted in plan_stats().core_reuses when it reused the
  /// dropped core's storage). A delta that changes no witness keeps the
  /// core and rebuilds only the ΔV overlay.
  ///
  /// ΔV marks on view tuples that lose their last witness are dropped (the
  /// deletion became a fact of the base data); marks on surviving tuples are
  /// re-indexed and kept. Weights follow the same rule.
  ///
  /// If the instance's structure is shared (replicas), the delta detaches a
  /// private copy first — existing replicas keep serving the old snapshot
  /// until re-replicated. BatchSolveEngine::ApplyDelta wraps this with the
  /// drop-replicas / re-replicate epoch handoff.
  Status ApplyDelta(Database& database, const BaseDelta& delta,
                    const ApplyDeltaOptions& options = {},
                    ApplyDeltaReport* report = nullptr,
                    ThreadPool* pool = nullptr);

  /// Marks the view tuple as a member of ΔV (idempotent).
  Status MarkForDeletion(const ViewTupleId& id);

  /// Replaces ΔV wholesale with `delta_v` (any order, duplicates allowed).
  /// Fails with OutOfRange — leaving the instance unchanged — if any id is
  /// invalid. The compiled plan's ΔV-independent core survives the swap, so
  /// batched serving pays only an overlay rebuild per request; the internal
  /// buffers reuse their capacity, allocating nothing in steady state.
  Status ResetDeletions(const std::vector<ViewTupleId>& delta_v);

  /// Looks up the view tuple of `view_index` with the given head values
  /// (interned from text) and marks it. Fails with NotFound if absent.
  Status MarkForDeletionByValues(size_t view_index,
                                 const std::vector<std::string>& values);

  /// Sets the preservation weight of a view tuple (default 1). Weights matter
  /// only for preserved tuples in the standard objective; the balanced
  /// objective also uses weights of ΔV tuples. Weights live in the plan
  /// core, so this drops the compiled plan and its core; the next
  /// compiled() pays one full build, however many weights changed since.
  /// Replicas and plans already handed out keep the old weights. A
  /// negative, NaN or infinite weight fails with InvalidArgument naming the
  /// view tuple; -0.0 is accepted.
  Status SetWeight(const ViewTupleId& id, double weight);

  const Database& database() const { return *database_; }
  const ConjunctiveQuery& query(size_t i) const { return *queries_[i]; }
  const View& view(size_t i) const { return structure_->views[i]; }
  size_t view_count() const { return structure_->views.size(); }

  /// Rows logically deleted from the base database by earlier rounds
  /// (Create's mask) and by ApplyDelta. Views are always Q(D \ base_mask).
  const DeletionSet& base_mask() const { return structure_->base_mask; }

  /// Number of ApplyDelta generations this instance's structure has gone
  /// through. Replicas share the primary's structure, so equal epochs mean
  /// byte-identical views and mask.
  uint64_t structure_epoch() const { return structure_->epoch; }

  /// Pointers to all views (for DataForest::Build and diagnostics).
  std::vector<const View*> ViewPointers() const;

  bool IsMarkedForDeletion(const ViewTupleId& id) const;
  double weight(const ViewTupleId& id) const;

  /// ΔV as a flat list, in (view, tuple) order.
  const std::vector<ViewTupleId>& deletion_tuples() const {
    return deletion_tuples_;
  }

  /// The dense compiled plan of this instance (see plan/compiled_instance.h):
  /// integer-interned ids plus CSR incidence arrays for every solver hot
  /// path. Built lazily on first use, cached, and shared read-only across
  /// threads; invalidated by MarkForDeletion / ApplyDelta / SetWeight.
  ///
  /// A full core build runs its passes on `pool`'s workers when `pool` is
  /// non-null; a cache hit or an overlay rebuild over a kept core ignores
  /// it. The plan is the same for every pool (`PlanCore ==` to a pool-less
  /// build). The calling thread holds the cache lock while the workers
  /// build, and `pool` must not be the pool whose worker runs the caller.
  std::shared_ptr<const CompiledInstance> compiled(
      ThreadPool* pool = nullptr) const;

  /// How this instance's compiled plans were produced so far (full builds
  /// vs overlay-only rebinds vs buffer recycles vs dropped cores). Snapshot
  /// under the cache lock; counters only ever grow.
  PlanBuildStats plan_stats() const;

  /// An independent instance over the same database/queries with its own
  /// ΔV marks and weights, sharing this instance's view structure
  /// (copy-on-write) and compiled plan core. Replicas give each engine
  /// worker private mutable ΔV state without recompiling — or even copying —
  /// the structure; the database and queries must outlive the replica just
  /// as they must outlive the original.
  VseInstance Replicate() const;

  /// True if every query is key preserving w.r.t. the schema — the paper's
  /// standing assumption; every view tuple then has exactly one witness.
  bool all_key_preserving() const { return all_key_preserving_; }

  /// True if every view tuple has exactly one witness (always true for
  /// key-preserving and project-free queries). The set-cover reductions are
  /// exact only under this property.
  bool all_unique_witness() const {
    return structure_->multi_witness_tuples == 0;
  }

  /// The paper's l = max arity(Q) over the query set.
  size_t max_arity() const { return max_arity_; }

  /// ‖V‖: total number of view tuples across views.
  size_t TotalViewTuples() const;

  /// ‖ΔV‖: total number of marked deletions.
  size_t TotalDeletionTuples() const { return deletion_tuples_.size(); }

  /// Base tuples occurring in some witness of some ΔV tuple — the only
  /// useful deletion candidates (deleting anything else adds pure damage).
  std::vector<TupleRef> CandidateTuples() const;

  /// View tuples having `ref` in at least one witness (the "kill set" of the
  /// base tuple), ascending: the ref's kill row in the compiled plan core,
  /// which is built on first use. Empty if the tuple occurs in no witness.
  std::vector<ViewTupleId> KilledBy(const TupleRef& ref) const;

  const ViewTuple& view_tuple(const ViewTupleId& id) const {
    return structure_->views[id.view].tuple(id.tuple);
  }

  /// Renders a view tuple as "Qi(a, b)".
  std::string RenderViewTuple(const ViewTupleId& id) const {
    return structure_->views[id.view].RenderTuple(id.tuple);
  }

  // Move-only: copying would either share or silently drop the derived
  // caches (compiled plan); replication is an explicit operation (Replicate)
  // with defined cache-sharing semantics, so forbid implicit copies outright.
  VseInstance(const VseInstance&) = delete;
  VseInstance& operator=(const VseInstance&) = delete;
  VseInstance(VseInstance&&) = default;
  VseInstance& operator=(VseInstance&&) = default;

 private:
  VseInstance() = default;

  /// Validates witness structure (every tuple has ≥ 1 witness, no witness is
  /// empty or dangling) and counts the multi-witness tally. Shared tail of
  /// all three factories.
  Status ValidateWitnesses();

  /// The cached plan core, or — when none is cached — the core of a lazy
  /// full build through compiled(pool). Its kill rows are the instance's
  /// only base → view-tuple index.
  std::shared_ptr<const PlanCore> CurrentCore(ThreadPool* pool = nullptr) const;

  /// Copy-on-write access to the view structure: detaches a private copy
  /// when replicas still share it, so their snapshot stays frozen.
  internal::ViewStructure& MutableStructure();

  /// Validates a whole delta against the pre-delta state (no side effects);
  /// `core` is the pre-delta CurrentCore().
  Status ValidateDelta(const Database& database, const BaseDelta& delta,
                       const ApplyDeltaOptions& options,
                       const PlanCore& core) const;

  /// Drops the lazily-built ΔV overlay (the compiled plan), keeping the
  /// ΔV-independent plan core; the dropped plan is retired for overlay
  /// recycling.
  void InvalidateOverlayCaches();

  const Database* database_ = nullptr;
  std::vector<const ConjunctiveQuery*> queries_;
  std::shared_ptr<internal::ViewStructure> structure_ =
      std::make_shared<internal::ViewStructure>();
  bool all_key_preserving_ = false;
  size_t max_arity_ = 0;

  // ΔV, kept sorted ascending; membership tests binary-search it, so no
  // shadow hash set needs rebuilding on the per-request ResetDeletions path.
  std::vector<ViewTupleId> deletion_tuples_;
  std::unordered_map<ViewTupleId, double, ViewTupleIdHash> weights_;

  // Derived-artifact cache (see internal::VseInstanceCaches). Mutable: the
  // artifacts are logically part of the const instance, built on demand.
  mutable std::shared_ptr<internal::VseInstanceCaches> caches_ =
      std::make_shared<internal::VseInstanceCaches>();
};

}  // namespace delprop

#endif  // DELPROP_DP_VSE_INSTANCE_H_
