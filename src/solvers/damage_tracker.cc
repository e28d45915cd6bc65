#include "solvers/damage_tracker.h"

#include <algorithm>
#include <cassert>

namespace delprop {

DamageTracker::DamageTracker(const VseInstance& instance) {
  (void)Rebind(instance);
}

bool DamageTracker::Rebind(const VseInstance& instance) {
  // Release the previous plan before acquiring the new one: if this tracker
  // held the last outside reference to a retired plan, the acquire below can
  // now recycle its overlay buffers instead of allocating.
  plan_.reset();
  plan_ = instance.compiled();
  bool reused = PrepareState();
  deleted_.clear();
  foreign_.clear();
  initial_unkilled_deletions_ = 0;
  initial_surviving_deletion_weight_ = 0.0;
  for (uint32_t d : plan_->deletion_dense()) {
    ++initial_unkilled_deletions_;
    initial_surviving_deletion_weight_ += plan_->weight(d);
  }
  unkilled_deletions_ = initial_unkilled_deletions_;
  killed_preserved_weight_ = 0.0;
  surviving_deletion_weight_ = initial_surviving_deletion_weight_;
  return reused;
}

bool DamageTracker::PrepareState() {
  uint32_t witness_count = plan_->witness_count();
  uint32_t tuple_count = plan_->tuple_count();
  uint32_t base_count = plan_->base_count();
  if (witness_hits_.size() == witness_count &&
      dead_witnesses_.size() == tuple_count &&
      deleted_stamp_.size() == base_count && epoch_ != 0xFFFFFFFFu) {
    ClearState();
    ++epoch_;
    return true;
  }
  witness_hits_.assign(witness_count, 0);
  dead_witnesses_.assign(tuple_count, 0);
  deleted_stamp_.assign(base_count, 0);
  deleted_pos_.resize(base_count);
  // At most every candidate base can be deleted; reserving here keeps
  // DeleteBase (the per-pick hot path) allocation-free.
  deleted_.reserve(base_count);
  epoch_ = 1;
  touch_.Bind(witness_count, tuple_count);
  state_core_ = plan_->core().get();  // freshly zeroed arrays are pristine
  return false;
}

void DamageTracker::ClearState() {
  // A sparse rollback replays the touch log against the layout it was
  // recorded under, so it requires the same core and a log that never
  // overflowed its caps.
  if (!touch_.overflow && state_core_ == plan_->core().get()) {
    for (uint32_t wid : touch_.witnesses) witness_hits_[wid] = 0;
    for (uint32_t dense : touch_.tuples) dead_witnesses_[dense] = 0;
  } else {
    std::fill(witness_hits_.begin(), witness_hits_.end(), 0);
    std::fill(dead_witnesses_.begin(), dead_witnesses_.end(), 0);
  }
  touch_.Clear();
  state_core_ = plan_->core().get();
}

void DamageTracker::Reset() {
  ClearState();
  deleted_.clear();
  foreign_.clear();
  ++epoch_;
  unkilled_deletions_ = initial_unkilled_deletions_;
  killed_preserved_weight_ = 0.0;
  surviving_deletion_weight_ = initial_surviving_deletion_weight_;
}

bool DamageTracker::IsDeleted(const TupleRef& ref) const {
  uint32_t base = plan_->FindBase(ref);
  if (base != CompiledInstance::kNpos) return IsDeletedBase(base);
  return std::binary_search(foreign_.begin(), foreign_.end(), ref);
}

double DamageTracker::Delete(const TupleRef& ref) {
  uint32_t base = plan_->FindBase(ref);
  if (base == CompiledInstance::kNpos) {
    // Not in any witness: deleting it kills nothing. Track it (sorted) so
    // IsDeleted/Undelete/CurrentDeletion stay consistent.
    auto it = std::lower_bound(foreign_.begin(), foreign_.end(), ref);
    assert(it == foreign_.end() || !(*it == ref));
    // Foreign refs (tuples outside every witness) never occur on the engine
    // steady-state path — solvers only delete candidate bases; this branch
    // serves ad-hoc script use.
    // delprop-lint: hot-path-allocation-ok cold branch, see above
    foreign_.insert(it, ref);
    return 0.0;
  }
  return DeleteBase(base);
}

void DamageTracker::Undelete(const TupleRef& ref) {
  uint32_t base = plan_->FindBase(ref);
  if (base == CompiledInstance::kNpos) {
    auto it = std::lower_bound(foreign_.begin(), foreign_.end(), ref);
    assert(it != foreign_.end() && *it == ref);
    if (it != foreign_.end() && *it == ref) foreign_.erase(it);
    return;
  }
  UndeleteBase(base);
}

double DamageTracker::MarginalDamage(const TupleRef& ref) const {
  uint32_t base = plan_->FindBase(ref);
  if (base == CompiledInstance::kNpos) return 0.0;
  return MarginalDamageBase(base);
}

double DamageTracker::MarginalDamageBase(uint32_t base) const {
  double damage = 0.0;
  ForEachNewlyKilledPreserved(
      base, [&](uint32_t dense) { damage += plan_->weight(dense); });
  return damage;
}

void DamageTracker::MarginalDamageAll(const std::vector<uint32_t>& bases,
                                      std::vector<double>* out) const {
  out->resize(bases.size());
  for (size_t i = 0; i < bases.size(); ++i) {
    (*out)[i] = MarginalDamageBase(bases[i]);
  }
}

bool DamageTracker::CanDropBase(uint32_t base) const {
  assert(IsDeletedBase(base));
  uint32_t end = plan_->occ_end(base);
  uint32_t slot = plan_->occ_begin(base);
  while (slot < end) {
    uint32_t dense = plan_->occ_tuple(slot);
    if (!plan_->is_deletion(dense) || !IsKilledDense(dense)) {
      do {
        ++slot;
      } while (slot < end && plan_->occ_tuple(slot) == dense);
      continue;
    }
    do {
      // `base` is this witness's only deleted member.
      if (witness_hits_[plan_->occ_witness(slot)] == 1) return false;
      ++slot;
    } while (slot < end && plan_->occ_tuple(slot) == dense);
  }
  return true;
}

void DamageTracker::CollectUnkilledDeletions(uint32_t base,
                                             std::vector<uint32_t>* out) const {
  out->clear();
  uint32_t end = plan_->kill_end(base);
  for (uint32_t slot = plan_->kill_begin(base); slot < end; ++slot) {
    uint32_t dense = plan_->kill_tuple(slot);
    if (plan_->is_deletion(dense) && !IsKilledDense(dense)) {
      // delprop-lint: hot-path-allocation-ok caller reserves to ΔV size
      out->push_back(dense);
    }
  }
}

bool DamageTracker::SwapWouldImprove(uint32_t base,
                                     const std::vector<uint32_t>& revived,
                                     double budget) const {
  // Feasibility first: every revived ΔV tuple must be newly killed by
  // `base`. Each check binary-searches the base's occurrence row (sorted by
  // tuple) for the tuple's run, then replays the marginal condition.
  uint32_t end = plan_->occ_end(base);
  uint32_t lo = plan_->occ_begin(base);
  for (uint32_t target : revived) {
    uint32_t hi = end;
    while (lo < hi) {
      uint32_t mid = lo + (hi - lo) / 2;
      if (plan_->occ_tuple(mid) < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == end || plan_->occ_tuple(lo) != target) return false;
    uint32_t fresh_dead = 0;
    do {
      if (witness_hits_[plan_->occ_witness(lo)] == 0) ++fresh_dead;
      ++lo;
    } while (lo < end && plan_->occ_tuple(lo) == target);
    // Revived ids ascend, so the next search starts past this run.
    uint32_t dead = dead_witnesses_[target];
    uint32_t total = plan_->tuple_witness_count(target);
    if (dead + fresh_dead != total || dead >= total) return false;
  }
  return KpwAfterDeleteBase(base) < budget;
}

// Result materialization: builds the final DeletionSet once, after the
// solver's delete/undelete loops are done.
// delprop-hot-stop
DeletionSet DamageTracker::CurrentDeletion() const {
  DeletionSet out;
  for (uint32_t base : deleted_) out.Insert(plan_->base_ref(base));
  for (const TupleRef& ref : foreign_) out.Insert(ref);
  return out;
}

}  // namespace delprop
