#ifndef DELPROP_SOLVERS_DAMAGE_TRACKER_H_
#define DELPROP_SOLVERS_DAMAGE_TRACKER_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "dp/vse_instance.h"
#include "plan/compiled_instance.h"
#include "relational/deletion_set.h"

namespace delprop {

/// Records which witnesses died and which tuples gained a dead witness since
/// the last reset, so Reset/Rebind can roll the counters back sparsely
/// instead of zeroing whole arrays. Past the caps the log overflows and the
/// owner falls back to a full clear — the caps are a fraction of the array
/// sizes, so a sparse rollback is only attempted when it is actually
/// cheaper.
struct TouchLog {
  std::vector<uint32_t> witnesses;
  std::vector<uint32_t> tuples;
  size_t witness_cap = 0;
  size_t tuple_cap = 0;
  bool overflow = false;

  void Bind(size_t witness_count, size_t tuple_count) {
    witness_cap = witness_count / 8 + 8;
    tuple_cap = tuple_count / 8 + 8;
    witnesses.clear();
    tuples.clear();
    witnesses.reserve(witness_cap);
    tuples.reserve(tuple_cap);
    overflow = false;
  }
  void NoteWitness(uint32_t wid) {
    if (overflow) return;
    if (witnesses.size() >= witness_cap) {
      overflow = true;
      return;
    }
    witnesses.push_back(wid);
  }
  void NoteTuple(uint32_t dense) {
    if (overflow) return;
    if (tuples.size() >= tuple_cap) {
      overflow = true;
      return;
    }
    tuples.push_back(dense);
  }
  void Clear() {
    witnesses.clear();
    tuples.clear();
    overflow = false;
  }
};

/// Incremental accounting of which view tuples die as base tuples are
/// deleted, with exact multi-witness semantics: a witness is dead when it
/// loses any member; a view tuple is killed when all of its witnesses are
/// dead. Supports O(occurrences) delete/undelete and marginal-damage queries,
/// shared by the greedy, exact, local-search, and ILP solvers.
///
/// Runs entirely on the instance's CompiledInstance plan: per-witness hit
/// counters (deleted unique members) and per-tuple dead-witness counters,
/// updated by walking the deleted base's occurrence row. The
/// `tracker-reference` fuzz oracle checks every query against a
/// from-scratch recomputation over the plan's CSR.
///
/// The TupleRef overloads stay for callers holding refs; the *Base overloads
/// take dense base ids straight from the plan. Refs that occur in no witness
/// ("foreign" refs, possible through the public API) are tracked on a small
/// sorted side list (binary-searched, never scanned on the solver hot path)
/// and are harmless no-ops for damage.
class DamageTracker {
 public:
  explicit DamageTracker(const VseInstance& instance);

  /// Rebinds the tracker to `instance`'s current compiled plan in the
  /// freshly-constructed state, reusing the existing counter/stamp arrays
  /// when the new plan's dimensions match (same shared core, different ΔV —
  /// the batched-serving steady state). Drops the old plan reference BEFORE
  /// acquiring the new one so the instance can recycle a retired plan's
  /// overlay buffers. Returns true when array storage was reused (no
  /// allocation happened).
  bool Rebind(const VseInstance& instance);

  /// Releases the tracker's plan reference without rebinding; the tracker
  /// is unusable until the next Rebind. Engine workers call this before
  /// mutating their replica's ΔV so the retired plan becomes recyclable.
  void ReleasePlan() { plan_.reset(); }

  /// Deletes `ref` (must not be deleted already). Returns the preserved
  /// weight newly killed by this deletion.
  double Delete(const TupleRef& ref);

  /// Reverts a prior Delete of `ref` (order-independent).
  void Undelete(const TupleRef& ref);

  bool IsDeleted(const TupleRef& ref) const;

  /// Preserved weight that deleting `ref` would newly kill right now.
  double MarginalDamage(const TupleRef& ref) const;

  /// Dense-id variants (ids from plan(); never foreign). Inline — the
  /// searches' delete/undelete pair runs once per node.
  double DeleteBase(uint32_t base) {
    assert(!IsDeletedBase(base));
    deleted_pos_[base] = static_cast<uint32_t>(deleted_.size());
    deleted_.push_back(base);
    deleted_stamp_[base] = epoch_;
    double newly_killed = 0.0;
    uint32_t end = plan_->occ_end(base);
    for (uint32_t slot = plan_->occ_begin(base); slot < end; ++slot) {
      uint32_t wid = plan_->occ_witness(slot);
      if (witness_hits_[wid]++ != 0) continue;  // witness was already dead
      touch_.NoteWitness(wid);
      uint32_t dense = plan_->occ_tuple(slot);
      uint32_t dead = ++dead_witnesses_[dense];
      if (dead == 1) touch_.NoteTuple(dense);
      if (dead != plan_->tuple_witness_count(dense)) continue;
      if (plan_->is_deletion(dense)) {
        --unkilled_deletions_;
        surviving_deletion_weight_ -= plan_->weight(dense);
      } else {
        killed_preserved_weight_ += plan_->weight(dense);
        newly_killed += plan_->weight(dense);
      }
    }
    return newly_killed;
  }
  /// Reverse of DeleteBase. No touch logging: an undelete restores the
  /// pristine value, and a later re-kill logs the tuple again.
  void UndeleteBase(uint32_t base) {
    assert(IsDeletedBase(base));
    uint32_t hole = deleted_pos_[base];
    if (hole + 1 != deleted_.size()) {
      deleted_[hole] = deleted_.back();
      deleted_pos_[deleted_[hole]] = hole;
    }
    deleted_.pop_back();
    deleted_stamp_[base] = 0;
    uint32_t end = plan_->occ_end(base);
    for (uint32_t slot = plan_->occ_begin(base); slot < end; ++slot) {
      if (--witness_hits_[plan_->occ_witness(slot)] != 0) continue;
      uint32_t dense = plan_->occ_tuple(slot);
      if (dead_witnesses_[dense]-- != plan_->tuple_witness_count(dense)) {
        continue;  // the tuple was not killed
      }
      if (plan_->is_deletion(dense)) {
        ++unkilled_deletions_;
        surviving_deletion_weight_ += plan_->weight(dense);
      } else {
        killed_preserved_weight_ -= plan_->weight(dense);
      }
    }
  }
  bool IsDeletedBase(uint32_t base) const {
    return deleted_stamp_[base] == epoch_;
  }
  double MarginalDamageBase(uint32_t base) const;

  /// Batch marginal damage: out[i] = MarginalDamageBase(bases[i]). `out` is
  /// resized to match.
  void MarginalDamageAll(const std::vector<uint32_t>& bases,
                         std::vector<double>* out) const;

  /// True iff undeleting `base` (currently deleted) would not revive any
  /// currently-killed ΔV tuple — i.e. the drop keeps feasibility. Read-only
  /// twin of the Undelete → check → re-Delete dance.
  bool CanDropBase(uint32_t base) const;

  /// Collects the currently-unkilled ΔV tuples in `base`'s kill row
  /// (ascending) into `out` (cleared first). After undeleting one member of
  /// a feasible solution these are exactly the revived tuples.
  void CollectUnkilledDeletions(uint32_t base, std::vector<uint32_t>* out) const;

  /// Exchange probe: would deleting `base` kill every tuple in `revived`
  /// (currently-unkilled ΔV tuples, ascending) and leave the killed
  /// preserved weight strictly below `budget`? The cost accumulates from
  /// killed_preserved_weight() in DeleteBase's addition order, so the
  /// comparison is bit-identical to a real Delete → compare → Undelete.
  bool SwapWouldImprove(uint32_t base, const std::vector<uint32_t>& revived,
                        double budget) const;

  /// The killed_preserved_weight() this tracker would report after
  /// DeleteBase(base) (`base` not deleted), accumulated from the current
  /// value in DeleteBase's own addition order (ascending newly-killed
  /// tuple) — bit-identical to a real Delete → read → Undelete, so
  /// branch-and-bound entry prunes can run without mutating state. Inline:
  /// one call per exact-search node.
  double KpwAfterDeleteBase(uint32_t base) const {
    double acc = killed_preserved_weight_;
    ForEachNewlyKilledPreserved(
        base, [&](uint32_t dense) { acc += plan_->weight(dense); });
    return acc;
  }

  /// Calls fn(dense) for every preserved tuple that deleting `base` would
  /// newly kill, in ascending dense id — DeleteBase's own order, so callers
  /// that add weights in fn reproduce its floating-point sums bit for bit.
  /// A tuple is newly killed when it is still alive and each of its unhit
  /// witnesses contains `base`. Visits nothing for a deleted `base`.
  template <typename Fn>
  void ForEachNewlyKilledPreserved(uint32_t base, Fn&& fn) const {
    uint32_t slot = plan_->occ_begin(base);
    uint32_t end = plan_->occ_end(base);
    // Occurrence rows are sorted by view tuple; walk one run per tuple.
    while (slot < end) {
      uint32_t dense = plan_->occ_tuple(slot);
      uint32_t fresh_dead = 0;
      do {
        if (witness_hits_[plan_->occ_witness(slot)] == 0) ++fresh_dead;
        ++slot;
      } while (slot < end && plan_->occ_tuple(slot) == dense);
      if (plan_->is_deletion(dense)) continue;
      uint32_t dead = dead_witnesses_[dense];
      uint32_t total = plan_->tuple_witness_count(dense);
      if (dead + fresh_dead == total && dead < total) fn(dense);
    }
  }

  /// Number of ΔV tuples not yet killed.
  size_t unkilled_deletion_count() const { return unkilled_deletions_; }

  /// Weight of preserved tuples killed so far.
  double killed_preserved_weight() const { return killed_preserved_weight_; }

  /// Weight of ΔV tuples not yet killed (for the balanced objective).
  double surviving_deletion_weight() const {
    return surviving_deletion_weight_;
  }

  bool IsKilled(const ViewTupleId& id) const {
    return IsKilledDense(plan_->DenseOf(id));
  }
  bool IsKilledDense(uint32_t dense) const {
    return dead_witnesses_[dense] == plan_->tuple_witness_count(dense);
  }

  /// Deleted-member count of witness `wid` (0 = the witness is alive).
  uint32_t witness_hits(uint32_t wid) const { return witness_hits_[wid]; }

  /// Dead-witness count of view tuple `dense` (== its witness count exactly
  /// when the tuple is killed).
  uint32_t dead_witness_count(uint32_t dense) const {
    return dead_witnesses_[dense];
  }

  /// First still-unhit witness of `dense` in witness-id order, or
  /// CompiledInstance::kNpos when every witness is dead.
  uint32_t FirstUnhitWitness(uint32_t dense) const {
    uint32_t end = plan_->tuple_witness_end(dense);
    for (uint32_t w = plan_->tuple_witness_begin(dense); w < end; ++w) {
      if (witness_hits_[w] == 0) return w;
    }
    return CompiledInstance::kNpos;
  }

  /// Calls fn(wid) for every still-unhit witness of `dense`, ascending.
  /// fn returns false to stop early.
  template <typename Fn>
  void ForEachUnhitWitness(uint32_t dense, Fn&& fn) const {
    uint32_t end = plan_->tuple_witness_end(dense);
    for (uint32_t w = plan_->tuple_witness_begin(dense); w < end; ++w) {
      if (witness_hits_[w] != 0) continue;
      if (!fn(w)) return;
    }
  }

  /// Snapshot of the current deletion as a DeletionSet.
  DeletionSet CurrentDeletion() const;

  /// Deleted interned bases, in deletion order (excludes foreign refs).
  const std::vector<uint32_t>& DeletedBases() const { return deleted_; }

  /// Number of deleted base tuples (interned + foreign). O(1) — two vector
  /// sizes; never scans the foreign side list.
  size_t deleted_count() const { return deleted_.size() + foreign_.size(); }

  /// Reverts to the freshly-constructed state: restores the aggregate
  /// weights to their exact initial values (no floating-point drift from
  /// incremental rollback) and bumps the epoch so the deleted-stamp array
  /// clears in O(1). The per-witness/per-tuple counters roll back sparsely —
  /// O(touched) — when the touch log stayed under its caps, and fall back
  /// to the O(‖V‖ + witnesses) full zeroing otherwise. Lets restart-style
  /// callers (local search) reuse one tracker cheaply.
  void Reset();

  const CompiledInstance& plan() const { return *plan_; }

 private:
  /// Sizes the counter arrays for the bound plan; returns true when their
  /// storage was reused.
  bool PrepareState();
  /// Rolls the counters back to pristine (sparse when the touch log
  /// allows), clears the log, and restamps `state_core_`.
  void ClearState();

  std::shared_ptr<const CompiledInstance> plan_;

  // Per witness: number of deleted (unique) members.
  std::vector<uint32_t> witness_hits_;
  // Per view tuple: number of dead witnesses. A tuple without witnesses is
  // killed from the start (0 == 0).
  std::vector<uint32_t> dead_witnesses_;
  // Transition log driving the sparse Reset/Rebind rollback.
  TouchLog touch_;
  // Core whose layout the dirty state (and touch log) was produced under;
  // a sparse rollback is only sound against the same core.
  const void* state_core_ = nullptr;

  // Per base: stamp == epoch_ iff deleted; epoch bump clears all in O(1).
  std::vector<uint32_t> deleted_stamp_;
  // Per base: position in deleted_ (valid only while stamped).
  std::vector<uint32_t> deleted_pos_;
  std::vector<uint32_t> deleted_;
  // Refs not interned in the plan (occur in no witness); rare, test-only in
  // practice. Kept sorted so IsDeleted/Undelete are binary searches —
  // bounded even if a script piles up foreign refs.
  std::vector<TupleRef> foreign_;

  uint32_t epoch_ = 1;
  size_t unkilled_deletions_ = 0;
  double killed_preserved_weight_ = 0.0;
  double surviving_deletion_weight_ = 0.0;
  // Exact initial aggregates, restored by Reset().
  size_t initial_unkilled_deletions_ = 0;
  double initial_surviving_deletion_weight_ = 0.0;
};

}  // namespace delprop

#endif  // DELPROP_SOLVERS_DAMAGE_TRACKER_H_
