#ifndef DELPROP_PLAN_COMPILED_INSTANCE_H_
#define DELPROP_PLAN_COMPILED_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "dp/vse_instance.h"
#include "relational/tuple_ref.h"

namespace delprop {

/// The ΔV-independent part of a compiled plan: interned id spaces and CSR
/// incidence for one (database, queries, views, weights) input. Everything
/// here is a function of the views and weights only — marking or clearing
/// deletions never changes it — so one PlanCore is built per instance shape
/// and shared (immutably, via shared_ptr) across every ΔV overlay compiled
/// from it, across replicas (`VseInstance::Replicate`), and across threads.
struct PlanCore {
  std::vector<uint32_t> view_first;  // per view: first dense tuple id
  std::vector<uint32_t> tuple_view;  // per tuple: owning view
  std::vector<double> weight;        // per tuple

  std::vector<uint32_t> tuple_witness_first;  // size tuple_count + 1
  std::vector<uint32_t> witness_owner;        // per witness

  std::vector<uint32_t> witness_member_first;  // size witness_count + 1
  std::vector<uint32_t> witness_member_base;   // raw, atom order

  std::vector<TupleRef> base_refs;  // ascending

  std::vector<uint32_t> base_occ_first;  // size base_count + 1
  std::vector<uint32_t> occ_tuple;
  std::vector<uint32_t> occ_witness;

  std::vector<uint32_t> base_kill_first;  // size base_count + 1
  std::vector<uint32_t> kill_tuple;

  // Narrowest raw member row: the exact search's branch short-circuit.
  uint32_t min_witness_raw_members = 0;

  uint32_t tuple_count() const { return static_cast<uint32_t>(weight.size()); }
  uint32_t witness_count() const {
    return static_cast<uint32_t>(witness_owner.size());
  }
  uint32_t base_count() const {
    return static_cast<uint32_t>(base_refs.size());
  }

  /// Field-for-field equality over every array and statistic: the
  /// mutate-vs-rebuild oracle demands a patched core equal a from-scratch
  /// build of the same views.
  bool operator==(const PlanCore&) const = default;
};

/// A view-level delta phrased in an existing core's dense ids: which old
/// view tuples disappeared and which old witnesses were removed (a removed
/// tuple has all of its witnesses marked). Appended tuples and witnesses are
/// not listed — `CompiledInstance::PatchCore` reads them straight from the
/// already-mutated views, which hold survivors first (in their old relative
/// order) and appended tuples/witnesses last.
struct CoreDelta {
  std::vector<uint8_t> tuple_removed;    // by old dense tuple id
  std::vector<uint8_t> witness_removed;  // by old witness id
  size_t removed_tuple_count = 0;
  size_t removed_witness_count = 0;
};

/// The dense, immutable execution plan of a VseInstance: every view tuple
/// and every base tuple occurring in a witness is interned into a dense
/// `uint32_t` id, and all incidence structure is materialized as CSR
/// (compressed sparse row) arrays. Built once per instance (lazily, see
/// `VseInstance::compiled()`), then shared read-only across threads — every
/// solver hot path becomes an array walk instead of an `unordered_map`
/// lookup chain.
///
/// Internally the plan is split in two: a shared `PlanCore` (everything that
/// does not depend on ΔV) and this object's overlay (`is_deletion`,
/// `deletion_index`, `deletion_dense`, `candidate_bases`). Re-marking ΔV on
/// an instance keeps the core and only rebuilds the overlay — O(‖V‖) instead
/// of re-interning every witness — and `BuildFromCore` can additionally
/// recycle the overlay buffers of a retired plan so batched serving
/// (engine/batch_engine.h) allocates nothing in steady state.
///
/// Id spaces and their orderings are chosen so dense-id iteration reproduces
/// the legacy tuple orderings byte for byte:
///   * view tuples: dense id = prefix-sum over views + tuple index, i.e.
///     ascending (view, tuple) — the order of `deletion_tuples()` and of
///     every per-view scan;
///   * witnesses: per view tuple, in `ViewTuple::witnesses` order;
///   * base tuples: ascending TupleRef — the order of `CandidateTuples()`
///     and of `DeletionSet::Sorted()`. A from-scratch build hands them out
///     in one pass over a table with a slot per database row, so it costs
///     O(witness members + database rows) and sorts nothing.
///
/// Witness member rows keep the RAW atom-order member list including
/// duplicate refs from self-joins: the greedy/exact/local-search tie-break
/// and rng-consumption behavior (and the exact solver's node counts) depend
/// on seeing exactly the legacy sequence. The per-base occurrence rows are
/// deduplicated per witness, matching the legacy DamageTracker.
class CompiledInstance {
 public:
  /// Sentinel for "no dense id" (absent base tuple, non-ΔV tuple).
  static constexpr uint32_t kNpos = 0xFFFFFFFFu;

  /// Compiles `instance` from scratch (core + overlay). The instance must
  /// outlive nothing — the plan copies everything it needs and holds no
  /// pointer back.
  static std::shared_ptr<const CompiledInstance> Build(
      const VseInstance& instance);

  /// Compiles only the ΔV overlay over an existing `core`. `deletions` must
  /// be sorted ascending with every id in range (the VseInstance mark/reset
  /// paths guarantee both). If `recycle` is non-null, has the same tuple and
  /// base dimensions as `core` (same core, or a weight-patched clone of it),
  /// and is the sole remaining owner of its plan, that plan's overlay
  /// buffers are stolen instead of allocated — the recycled plan must no
  /// longer be referenced by any tracker or solver (callers pass a retired
  /// plan the instance alone still holds).
  static std::shared_ptr<const CompiledInstance> BuildFromCore(
      std::shared_ptr<const PlanCore> core,
      const std::vector<ViewTupleId>& deletions,
      std::shared_ptr<const CompiledInstance> recycle);

  /// Splices a new core out of `old_core` after a base-data delta: the
  /// removed tuples/witnesses in `delta` are dropped, appended ones are read
  /// from `instance`'s (already mutated) views, and every derived array
  /// (remapped ids, merged base refs, occurrence and kill rows) is rebuilt
  /// in linear passes over the old core and the delta, with no pass over
  /// the database. The result is byte-identical to BuildCore over the
  /// mutated instance (property-tested by the mutate-vs-rebuild oracle).
  static std::shared_ptr<const PlanCore> PatchCore(const PlanCore& old_core,
                                                   const VseInstance& instance,
                                                   const CoreDelta& delta);

  /// The shared ΔV-independent core this plan was compiled from.
  const std::shared_ptr<const PlanCore>& core() const { return core_; }

  /// True when this plan's overlay buffers were recycled from a retired
  /// plan (no allocation); false for a fresh overlay. Feeds EngineStats.
  bool overlay_recycled() const { return overlay_recycled_; }

  // --- view tuples -------------------------------------------------------
  uint32_t tuple_count() const { return core_->tuple_count(); }
  uint32_t DenseOf(const ViewTupleId& id) const {
    return core_->view_first[id.view] + static_cast<uint32_t>(id.tuple);
  }
  ViewTupleId IdOf(uint32_t dense) const {
    size_t view = core_->tuple_view[dense];
    return ViewTupleId{view, dense - core_->view_first[view]};
  }
  double weight(uint32_t dense) const { return core_->weight[dense]; }
  bool is_deletion(uint32_t dense) const { return is_deletion_[dense] != 0; }
  /// Position of `dense` in the ΔV list, or kNpos if not marked.
  uint32_t deletion_index(uint32_t dense) const {
    return deletion_index_[dense];
  }
  /// ΔV as dense ids, ascending — mirrors `deletion_tuples()`.
  const std::vector<uint32_t>& deletion_dense() const {
    return deletion_dense_;
  }
  /// Number of ΔV tuples in `base`'s kill row. The set-cover reductions use
  /// this for their exact-size count pass before splitting a kill row into
  /// deletion / preserved element lists.
  uint32_t KillRowDeletionCount(uint32_t base) const {
    uint32_t count = 0;
    uint32_t end = kill_end(base);
    for (uint32_t slot = kill_begin(base); slot < end; ++slot) {
      count += is_deletion_[kill_tuple(slot)];
    }
    return count;
  }

  // --- witnesses (CSR: view tuple -> witnesses) --------------------------
  uint32_t witness_count() const { return core_->witness_count(); }
  uint32_t tuple_witness_begin(uint32_t dense) const {
    return core_->tuple_witness_first[dense];
  }
  uint32_t tuple_witness_end(uint32_t dense) const {
    return core_->tuple_witness_first[dense + 1];
  }
  uint32_t tuple_witness_count(uint32_t dense) const {
    return tuple_witness_end(dense) - tuple_witness_begin(dense);
  }
  uint32_t witness_owner(uint32_t wid) const { return core_->witness_owner[wid]; }

  // --- witness members (CSR: witness -> raw base-id list, atom order) ----
  uint32_t member_begin(uint32_t wid) const {
    return core_->witness_member_first[wid];
  }
  uint32_t member_end(uint32_t wid) const {
    return core_->witness_member_first[wid + 1];
  }
  /// Raw member list entry (duplicates preserved).
  uint32_t member_base(uint32_t slot) const {
    return core_->witness_member_base[slot];
  }

  // --- base tuples (interned refs, ascending TupleRef order) -------------
  uint32_t base_count() const { return core_->base_count(); }
  const TupleRef& base_ref(uint32_t base) const {
    return core_->base_refs[base];
  }
  /// Dense id of `ref`, or kNpos when it occurs in no witness.
  uint32_t FindBase(const TupleRef& ref) const;

  // --- occurrences (CSR: base -> (view tuple, witness) pairs) ------------
  /// Rows are sorted by (tuple, witness) and deduplicated per witness.
  uint32_t occ_begin(uint32_t base) const {
    return core_->base_occ_first[base];
  }
  uint32_t occ_end(uint32_t base) const {
    return core_->base_occ_first[base + 1];
  }
  uint32_t occ_tuple(uint32_t slot) const { return core_->occ_tuple[slot]; }
  uint32_t occ_witness(uint32_t slot) const {
    return core_->occ_witness[slot];
  }

  // --- kills (CSR: base -> killed view tuples, ascending) ----------------
  /// Unique view tuples having the base in some witness, ascending (view,
  /// tuple) — the instance's only base → view-tuple index, which
  /// `VseInstance::KilledBy` and `ApplyDelta` read.
  uint32_t kill_begin(uint32_t base) const {
    return core_->base_kill_first[base];
  }
  uint32_t kill_end(uint32_t base) const {
    return core_->base_kill_first[base + 1];
  }
  uint32_t kill_tuple(uint32_t slot) const { return core_->kill_tuple[slot]; }

  /// Narrowest raw member row over all witnesses — a static lower bound on
  /// any branch witness's member count (exact solver short-circuit).
  uint32_t min_witness_raw_members() const {
    return core_->min_witness_raw_members;
  }

  // --- deletion candidates -----------------------------------------------
  /// Base ids occurring in some witness of some ΔV tuple, ascending —
  /// mirrors `CandidateTuples()`.
  const std::vector<uint32_t>& candidate_bases() const {
    return candidate_bases_;
  }

 private:
  CompiledInstance() = default;

  std::shared_ptr<const PlanCore> core_;
  bool overlay_recycled_ = false;

  // ΔV overlay — the only arrays that change between plans sharing a core.
  std::vector<uint8_t> is_deletion_;      // per tuple
  std::vector<uint32_t> deletion_index_;  // per tuple: ΔV position or kNpos
  std::vector<uint32_t> deletion_dense_;
  std::vector<uint32_t> candidate_bases_;
  // Per-base mark scratch for the candidate sweep. Invariant between builds:
  // all zero (BuildFromCore clears exactly the previous candidate set), so a
  // recycled overlay rebuild touches O(ΔV incidence), not O(bases).
  std::vector<uint8_t> touched_;
};

}  // namespace delprop

#endif  // DELPROP_PLAN_COMPILED_INSTANCE_H_
