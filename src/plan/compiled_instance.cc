#include "plan/compiled_instance.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "query/view.h"

namespace delprop {

uint32_t CompiledInstance::FindBase(const TupleRef& ref) const {
  const std::vector<TupleRef>& refs = core_->base_refs;
  auto it = std::lower_bound(refs.begin(), refs.end(), ref);
  if (it == refs.end() || !(*it == ref)) return kNpos;
  return static_cast<uint32_t>(it - refs.begin());
}

namespace {

/// Sizes `v` to exactly `n` elements. Storage that already holds `n` is
/// kept (a rebuild into a dropped core allocates nothing); otherwise it is
/// freed first and replaced by an allocation of exactly `n`.
template <typename T>
void SizeTo(std::vector<T>* v, size_t n) {
  if (n > v->capacity()) {
    *v = std::vector<T>();
    v->reserve(n);
  }
  v->resize(n);
}

/// Calls fn(base) once for each distinct base of witness `wid`'s member row.
/// Only self-joins list a base twice, and a strictly ascending row (every
/// schema without self-joins) cannot, so only other rows look back over
/// their earlier members.
template <typename Fn>
void ForEachDistinctMember(const PlanCore& core, uint32_t wid, Fn&& fn) {
  const std::vector<uint32_t>& members = core.witness_member_base;
  uint32_t first = core.witness_member_first[wid];
  uint32_t last = core.witness_member_first[wid + 1];
  bool ascending = true;
  for (uint32_t slot = first; ascending && slot + 1 < last; ++slot) {
    ascending = members[slot] < members[slot + 1];
  }
  for (uint32_t slot = first; slot < last; ++slot) {
    uint32_t base = members[slot];
    if (!ascending && std::find(members.begin() + first,
                                members.begin() + slot,
                                base) != members.begin() + slot) {
      continue;
    }
    fn(base);
  }
}

/// Tail of BuildCore: derives the occurrence and kill CSR arrays from the
/// witness member rows, reading each row twice (count, then fill) and
/// allocating nothing beyond the core's own arrays. Filling in ascending
/// wid order leaves every per-base occurrence row sorted by (tuple,
/// witness) — the invariant MarginalDamage relies on to walk runs — and the
/// kill rows are its per-base run-dedup.
void FinishCore(PlanCore* core) {
  uint32_t base_count = core->base_count();
  uint32_t witness_count = core->witness_count();
  // Counted into slot b + 1, then shifted prefix sums leave b's first slot
  // there, so the same array is the fill cursor: once b's row is filled,
  // slot b + 1 holds its end, which is b + 1's start.
  std::vector<uint32_t>& occ_first = core->base_occ_first;
  occ_first.assign(static_cast<size_t>(base_count) + 1, 0);
  for (uint32_t wid = 0; wid < witness_count; ++wid) {
    ForEachDistinctMember(*core, wid,
                          [&](uint32_t base) { ++occ_first[base + 1]; });
  }
  uint32_t occ_total = 0;
  for (uint32_t b = 0; b < base_count; ++b) {
    uint32_t count = occ_first[b + 1];
    occ_first[b + 1] = occ_total;
    occ_total += count;
  }
  SizeTo(&core->occ_tuple, occ_total);
  SizeTo(&core->occ_witness, occ_total);
  uint32_t min_members = witness_count == 0 ? 0 : CompiledInstance::kNpos;
  for (uint32_t wid = 0; wid < witness_count; ++wid) {
    uint32_t owner = core->witness_owner[wid];
    min_members = std::min(min_members, core->witness_member_first[wid + 1] -
                                            core->witness_member_first[wid]);
    ForEachDistinctMember(*core, wid, [&](uint32_t base) {
      uint32_t slot = occ_first[base + 1]++;
      core->occ_tuple[slot] = owner;
      core->occ_witness[slot] = wid;
    });
  }
  core->min_witness_raw_members = min_members;

  // Kill rows: unique view tuples per base, in row order (ascending (view,
  // tuple)) — the per-base run-dedup of the occurrence rows.
  core->base_kill_first.assign(static_cast<size_t>(base_count) + 1, 0);
  for (uint32_t b = 0; b < base_count; ++b) {
    uint32_t kills = 0;
    uint32_t prev = CompiledInstance::kNpos;
    for (uint32_t slot = occ_first[b]; slot < occ_first[b + 1]; ++slot) {
      if (core->occ_tuple[slot] != prev) {
        prev = core->occ_tuple[slot];
        ++kills;
      }
    }
    core->base_kill_first[b + 1] = core->base_kill_first[b] + kills;
  }
  SizeTo(&core->kill_tuple, core->base_kill_first[base_count]);
  for (uint32_t b = 0; b < base_count; ++b) {
    uint32_t out = core->base_kill_first[b];
    uint32_t prev = CompiledInstance::kNpos;
    for (uint32_t slot = occ_first[b]; slot < occ_first[b + 1]; ++slot) {
      uint32_t t = core->occ_tuple[slot];
      if (t != prev) {
        prev = t;
        core->kill_tuple[out++] = t;
      }
    }
  }
}

/// Builds the core of `instance` under `weights` (with its tail FinishCore,
/// the only code that writes a core). `storage` is a core the instance
/// dropped, or null. When the caller holds its only reference, the new core
/// is built in its arrays; nothing else can read it meanwhile. Otherwise a
/// new core is allocated. Both run the same code and rewrite every field.
std::shared_ptr<const PlanCore> BuildCore(
    const VseInstance& instance,
    const std::unordered_map<ViewTupleId, double, ViewTupleIdHash>& weights,
    std::shared_ptr<const PlanCore> storage, PlanBuildStats* stats) {
  std::shared_ptr<PlanCore> core;
  if (storage != nullptr && storage.use_count() == 1) {
    core = std::const_pointer_cast<PlanCore>(std::move(storage));
    ++stats->core_reuses;
  } else {
    core = std::make_shared<PlanCore>();
  }

  // Sizes first. View tuples get dense ids in ascending (view, tuple)
  // order. Witness counts sit in each ViewTuple, and every witness of view
  // v has one member per body atom of query v (ValidateWitnesses checks
  // it), so sizing reads no witness's heap block.
  size_t view_count = instance.view_count();
  SizeTo(&core->view_first, view_count + 1);
  uint32_t tuple_count = 0;
  size_t witness_total = 0;
  size_t member_total = 0;
  for (size_t v = 0; v < view_count; ++v) {
    const View& view = instance.view(v);
    core->view_first[v] = tuple_count;
    tuple_count += static_cast<uint32_t>(view.size());
    size_t view_witnesses = 0;
    for (size_t t = 0; t < view.size(); ++t) {
      view_witnesses += view.tuple(t).witnesses.size();
    }
    witness_total += view_witnesses;
    member_total += view_witnesses * instance.query(v).atoms().size();
  }
  core->view_first[view_count] = tuple_count;
  SizeTo(&core->tuple_view, tuple_count);
  for (size_t v = 0; v < view_count; ++v) {
    std::fill(core->tuple_view.begin() + core->view_first[v],
              core->tuple_view.begin() + core->view_first[v + 1],
              static_cast<uint32_t>(v));
  }
  // Unset weights are 1; each explicit one lands in its own slot, so the
  // map's order does not matter.
  core->weight.assign(tuple_count, 1.0);
  for (const auto& [id, weight] : weights) {
    assert(id.view < view_count && id.tuple < instance.view(id.view).size());
    core->weight[core->view_first[id.view] + id.tuple] = weight;
  }

  // Base interning through a row table: one slot per database row, laid out
  // in (relation, row) order by the prefix offsets `row_first`. The walk
  // below stores each member's row slot and marks it; one pass over the
  // table in order then hands out ascending base ids — ascending TupleRef
  // order, exactly the ids a sort of all members would assign — and one
  // pass over the member rows swaps each row slot for its base id.
  // O(members + database rows), with no sort and no search. Witness refs
  // are in range: ValidateWitnesses checks them at creation and ApplyDelta
  // appends only validated rows.
  const Database& database = instance.database();
  size_t relation_count = database.relation_count();
  std::vector<uint32_t> row_first(relation_count + 1, 0);
  for (RelationId r = 0; r < relation_count; ++r) {
    size_t rows = row_first[r] + database.relation(r).row_count();
    assert(rows < CompiledInstance::kNpos);
    row_first[r + 1] = static_cast<uint32_t>(rows);
  }
  std::vector<uint32_t> base_of_row(row_first[relation_count],
                                   CompiledInstance::kNpos);

  // The one walk over the witnesses: CSR offsets, owners, member row slots.
  SizeTo(&core->tuple_witness_first, static_cast<size_t>(tuple_count) + 1);
  SizeTo(&core->witness_owner, witness_total);
  SizeTo(&core->witness_member_first, witness_total + 1);
  SizeTo(&core->witness_member_base, member_total);
  uint32_t wid = 0;
  uint32_t member_slot = 0;
  uint32_t base_count = 0;
  for (size_t v = 0; v < view_count; ++v) {
    const View& view = instance.view(v);
    for (size_t t = 0; t < view.size(); ++t) {
      uint32_t d = core->view_first[v] + static_cast<uint32_t>(t);
      core->tuple_witness_first[d] = wid;
      for (const Witness& witness : view.tuple(t).witnesses) {
        assert(witness.size() == instance.query(v).atoms().size());
        core->witness_owner[wid] = d;
        core->witness_member_first[wid] = member_slot;
        ++wid;
        for (const TupleRef& ref : witness) {
          assert(ref.relation < relation_count &&
                 ref.row <
                     row_first[ref.relation + 1] - row_first[ref.relation]);
          uint32_t row = row_first[ref.relation] + ref.row;
          core->witness_member_base[member_slot++] = row;
          uint32_t& mark = base_of_row[row];
          base_count += mark == CompiledInstance::kNpos;
          mark = 0;
        }
      }
    }
  }
  core->tuple_witness_first[tuple_count] = wid;
  core->witness_member_first[wid] = member_slot;

  SizeTo(&core->base_refs, base_count);
  uint32_t next_base = 0;
  for (RelationId r = 0; r < relation_count; ++r) {
    for (uint32_t i = row_first[r]; i < row_first[r + 1]; ++i) {
      if (base_of_row[i] == CompiledInstance::kNpos) continue;
      base_of_row[i] = next_base;
      core->base_refs[next_base++] = TupleRef{r, i - row_first[r]};
    }
  }
  for (uint32_t& member : core->witness_member_base) {
    member = base_of_row[member];
  }
  FinishCore(core.get());
  return core;
}

}  // namespace

std::shared_ptr<const CompiledInstance> CompiledInstance::BuildFromCore(
    std::shared_ptr<const PlanCore> core,
    const std::vector<ViewTupleId>& deletions,
    std::shared_ptr<const CompiledInstance> recycle) {
  auto plan = std::shared_ptr<CompiledInstance>(new CompiledInstance());
  uint32_t tuple_count = core->tuple_count();
  uint32_t base_count = core->base_count();

  if (recycle != nullptr && recycle.use_count() == 1 &&
      recycle->core_ == core) {
    // Sole owner of a retired plan over the same core: steal its overlay
    // buffers. Clearing by the retired ΔV/candidate lists (instead of a
    // full fill) keeps the reset O(previous ΔV incidence), and
    // re-establishes the all-zero `touched_` invariant. The const_cast is
    // sound: we hold the only reference, so no reader can observe the
    // mutation.
    CompiledInstance& prev = const_cast<CompiledInstance&>(*recycle);
    for (uint32_t d : prev.deletion_dense_) {
      prev.is_deletion_[d] = 0;
      prev.deletion_index_[d] = kNpos;
    }
    for (uint32_t b : prev.candidate_bases_) prev.touched_[b] = 0;
    plan->is_deletion_ = std::move(prev.is_deletion_);
    plan->deletion_index_ = std::move(prev.deletion_index_);
    plan->touched_ = std::move(prev.touched_);
    plan->deletion_dense_ = std::move(prev.deletion_dense_);
    plan->deletion_dense_.clear();
    plan->candidate_bases_ = std::move(prev.candidate_bases_);
    plan->candidate_bases_.clear();
    plan->overlay_recycled_ = true;
  } else {
    plan->is_deletion_.assign(tuple_count, 0);
    plan->deletion_index_.assign(tuple_count, kNpos);
    plan->touched_.assign(base_count, 0);
    plan->deletion_dense_.reserve(deletions.size());
  }
  recycle.reset();
  plan->core_ = std::move(core);

  for (size_t i = 0; i < deletions.size(); ++i) {
    uint32_t d = plan->DenseOf(deletions[i]);
    plan->is_deletion_[d] = 1;
    plan->deletion_index_[d] = static_cast<uint32_t>(i);
    plan->deletion_dense_.push_back(d);
  }

  // Candidates: bases in witnesses of ΔV tuples, ascending. Collect-then-sort
  // (instead of the full 0..base_count scan) so a recycled rebuild stays
  // proportional to the ΔV neighborhood; the sorted result is identical.
  const PlanCore& c = *plan->core_;
  for (uint32_t d : plan->deletion_dense_) {
    for (uint32_t w = c.tuple_witness_first[d];
         w < c.tuple_witness_first[d + 1]; ++w) {
      for (uint32_t slot = c.witness_member_first[w];
           slot < c.witness_member_first[w + 1]; ++slot) {
        uint32_t base = c.witness_member_base[slot];
        if (!plan->touched_[base]) {
          plan->touched_[base] = 1;
          plan->candidate_bases_.push_back(base);
        }
      }
    }
  }
  std::sort(plan->candidate_bases_.begin(), plan->candidate_bases_.end());
  return plan;
}

// Lazy build: the first compiled() after an invalidation pays for the plan
// (or overlay) construction; every later call is a cache hit. Allocation
// here is the sanctioned cost of rebinding, not per-pick work.
// delprop-hot-stop
std::shared_ptr<const CompiledInstance> VseInstance::compiled() const {
  std::lock_guard<std::mutex> lock(caches_->mu);
  if (caches_->compiled == nullptr) {
    if (caches_->plan_core != nullptr) {
      // A ΔV-only invalidation (or a delta that changed no witness) kept
      // the core; rebuild just the overlay, recycling the retired plan's
      // buffers when we are its sole owner.
      ++caches_->plan_stats.core_rebinds;
      caches_->compiled = CompiledInstance::BuildFromCore(
          caches_->plan_core, deletion_tuples_, std::move(caches_->retired));
      caches_->retired.reset();
      if (caches_->compiled->overlay_recycled()) {
        ++caches_->plan_stats.overlay_recycles;
      }
    } else {
      // A full build: into the storage of the core a delta or SetWeight
      // dropped when nothing else holds it. The parked core is released
      // either way.
      ++caches_->plan_stats.full_builds;
      caches_->plan_core =
          BuildCore(*this, weights_, std::move(caches_->retired_core),
                    &caches_->plan_stats);
      caches_->compiled = CompiledInstance::BuildFromCore(
          caches_->plan_core, deletion_tuples_, nullptr);
    }
  }
  return caches_->compiled;
}

}  // namespace delprop
