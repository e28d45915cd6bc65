#include "plan/compiled_instance.h"

#include <algorithm>
#include <cassert>

#include "query/view.h"

namespace delprop {

uint32_t CompiledInstance::FindBase(const TupleRef& ref) const {
  const std::vector<TupleRef>& refs = core_->base_refs;
  auto it = std::lower_bound(refs.begin(), refs.end(), ref);
  if (it == refs.end() || !(*it == ref)) return kNpos;
  return static_cast<uint32_t>(it - refs.begin());
}

namespace {

/// Tail of BuildCore: derives the occurrence and kill CSR arrays from the
/// witness member rows. Appending in ascending wid order leaves every
/// per-base occurrence row sorted by (tuple, witness) — the invariant
/// MarginalDamage relies on to walk runs — and the kill rows are its
/// per-base run-dedup.
void FinishCore(PlanCore* core) {
  uint32_t base_count = core->base_count();
  uint32_t witness_count = core->witness_count();
  core->base_occ_first.assign(static_cast<size_t>(base_count) + 1, 0);
  // Deduped member lists, flattened: computed once in the counting pass and
  // replayed by the fill pass (this function runs on every core rebuild
  // after a base delta, so the per-witness sorts are worth paying only
  // once). A witness whose members are already strictly ascending — every
  // schema without self-joins — skips the sort entirely.
  std::vector<uint32_t> dedup;
  dedup.reserve(core->witness_member_base.size());
  std::vector<uint32_t> dedup_first(static_cast<size_t>(witness_count) + 1,
                                    0);
  std::vector<uint32_t> scratch;  // per-witness unique base ids
  for (uint32_t wid = 0; wid < witness_count; ++wid) {
    dedup_first[wid] = static_cast<uint32_t>(dedup.size());
    uint32_t first = core->witness_member_first[wid];
    uint32_t last = core->witness_member_first[wid + 1];
    bool ascending = true;
    for (uint32_t slot = first; ascending && slot + 1 < last; ++slot) {
      ascending = core->witness_member_base[slot] <
                  core->witness_member_base[slot + 1];
    }
    if (ascending) {
      dedup.insert(dedup.end(), core->witness_member_base.begin() + first,
                   core->witness_member_base.begin() + last);
    } else {
      scratch.assign(core->witness_member_base.begin() + first,
                     core->witness_member_base.begin() + last);
      std::sort(scratch.begin(), scratch.end());
      scratch.erase(std::unique(scratch.begin(), scratch.end()),
                    scratch.end());
      dedup.insert(dedup.end(), scratch.begin(), scratch.end());
    }
    for (size_t i = dedup_first[wid]; i < dedup.size(); ++i) {
      ++core->base_occ_first[dedup[i] + 1];
    }
  }
  dedup_first[witness_count] = static_cast<uint32_t>(dedup.size());
  for (uint32_t b = 0; b < base_count; ++b) {
    core->base_occ_first[b + 1] += core->base_occ_first[b];
  }
  size_t occ_total = core->base_occ_first[base_count];
  core->occ_tuple.resize(occ_total);
  core->occ_witness.resize(occ_total);
  {
    std::vector<uint32_t> cursor(core->base_occ_first.begin(),
                                 core->base_occ_first.end() - 1);
    for (uint32_t wid = 0; wid < witness_count; ++wid) {
      uint32_t owner = core->witness_owner[wid];
      for (uint32_t i = dedup_first[wid]; i < dedup_first[wid + 1]; ++i) {
        uint32_t slot = cursor[dedup[i]]++;
        core->occ_tuple[slot] = owner;
        core->occ_witness[slot] = wid;
      }
    }
  }

  core->min_witness_raw_members = witness_count == 0 ? 0 : 0xFFFFFFFFu;
  for (uint32_t wid = 0; wid < witness_count; ++wid) {
    core->min_witness_raw_members =
        std::min(core->min_witness_raw_members,
                 core->witness_member_first[wid + 1] -
                     core->witness_member_first[wid]);
  }

  // Kill rows: unique view tuples per base, in row order (ascending (view,
  // tuple)) — the per-base run-dedup of the occurrence rows.
  core->base_kill_first.assign(static_cast<size_t>(base_count) + 1, 0);
  for (uint32_t b = 0; b < base_count; ++b) {
    uint32_t kills = 0;
    uint32_t prev = CompiledInstance::kNpos;
    for (uint32_t slot = core->base_occ_first[b];
         slot < core->base_occ_first[b + 1]; ++slot) {
      if (core->occ_tuple[slot] != prev) {
        prev = core->occ_tuple[slot];
        ++kills;
      }
    }
    core->base_kill_first[b + 1] = kills;
  }
  for (uint32_t b = 0; b < base_count; ++b) {
    core->base_kill_first[b + 1] += core->base_kill_first[b];
  }
  core->kill_tuple.resize(core->base_kill_first[base_count]);
  for (uint32_t b = 0; b < base_count; ++b) {
    uint32_t out = core->base_kill_first[b];
    uint32_t prev = CompiledInstance::kNpos;
    for (uint32_t slot = core->base_occ_first[b];
         slot < core->base_occ_first[b + 1]; ++slot) {
      uint32_t t = core->occ_tuple[slot];
      if (t != prev) {
        prev = t;
        core->kill_tuple[out++] = t;
      }
    }
  }
}

std::shared_ptr<const PlanCore> BuildCore(const VseInstance& instance) {
  auto core = std::make_shared<PlanCore>();

  // View tuples: dense ids in ascending (view, tuple) order.
  size_t view_count = instance.view_count();
  core->view_first.resize(view_count + 1);
  uint32_t dense = 0;
  for (size_t v = 0; v < view_count; ++v) {
    core->view_first[v] = dense;
    dense += static_cast<uint32_t>(instance.view(v).size());
  }
  core->view_first[view_count] = dense;
  uint32_t tuple_count = dense;
  core->tuple_view.resize(tuple_count);
  core->weight.resize(tuple_count);
  for (size_t v = 0; v < view_count; ++v) {
    const View& view = instance.view(v);
    for (size_t t = 0; t < view.size(); ++t) {
      uint32_t d = core->view_first[v] + static_cast<uint32_t>(t);
      core->tuple_view[d] = static_cast<uint32_t>(v);
      core->weight[d] = instance.weight(ViewTupleId{v, t});
    }
  }

  // Base interning through a row table: one slot per database row, laid out
  // in (relation, row) order by the prefix offsets `row_first`. The
  // witness-counting walk marks each member's slot; one pass over the table
  // in order then hands out ascending base ids — ascending TupleRef order,
  // exactly the ids a sort of all members would assign — and the member-row
  // pass reads each id back from its slot. O(members + database rows), with
  // no sort and no search. Witness refs are in range: ValidateWitnesses
  // checks them at creation and ApplyDelta appends only validated rows.
  const Database& database = instance.database();
  size_t relation_count = database.relation_count();
  std::vector<size_t> row_first(relation_count + 1, 0);
  for (RelationId r = 0; r < relation_count; ++r) {
    row_first[r + 1] = row_first[r] + database.relation(r).row_count();
  }
  std::vector<uint32_t> base_of_row(row_first[relation_count],
                                   CompiledInstance::kNpos);
  auto slot_of = [&](const TupleRef& ref) -> uint32_t& {
    assert(ref.relation < relation_count &&
           ref.row < row_first[ref.relation + 1] - row_first[ref.relation]);
    return base_of_row[row_first[ref.relation] + ref.row];
  };

  // Witness CSR sizes; mark every member's row.
  core->tuple_witness_first.resize(tuple_count + 1);
  uint32_t base_count = 0;
  {
    uint32_t wid = 0;
    size_t member_total = 0;
    for (size_t v = 0; v < view_count; ++v) {
      const View& view = instance.view(v);
      for (size_t t = 0; t < view.size(); ++t) {
        uint32_t d = core->view_first[v] + static_cast<uint32_t>(t);
        core->tuple_witness_first[d] = wid;
        for (const Witness& witness : view.tuple(t).witnesses) {
          ++wid;
          member_total += witness.size();
          for (const TupleRef& ref : witness) {
            uint32_t& slot = slot_of(ref);
            if (slot == CompiledInstance::kNpos) {
              slot = 0;
              ++base_count;
            }
          }
        }
      }
    }
    core->tuple_witness_first[tuple_count] = wid;
    core->witness_owner.resize(wid);
    core->witness_member_first.resize(static_cast<size_t>(wid) + 1);
    core->witness_member_base.reserve(member_total);
  }
  core->base_refs.reserve(base_count);
  for (RelationId r = 0; r < relation_count; ++r) {
    for (size_t i = row_first[r]; i < row_first[r + 1]; ++i) {
      if (base_of_row[i] == CompiledInstance::kNpos) continue;
      base_of_row[i] = static_cast<uint32_t>(core->base_refs.size());
      uint32_t row = static_cast<uint32_t>(i - row_first[r]);
      core->base_refs.push_back(TupleRef{r, row});
    }
  }

  // Member rows (raw, atom order).
  {
    uint32_t wid = 0;
    uint32_t member_slot = 0;
    for (size_t v = 0; v < view_count; ++v) {
      const View& view = instance.view(v);
      for (size_t t = 0; t < view.size(); ++t) {
        uint32_t d = core->view_first[v] + static_cast<uint32_t>(t);
        for (const Witness& witness : view.tuple(t).witnesses) {
          core->witness_owner[wid] = d;
          core->witness_member_first[wid] = member_slot;
          for (const TupleRef& ref : witness) {
            core->witness_member_base.push_back(slot_of(ref));
            ++member_slot;
          }
          ++wid;
        }
      }
    }
    core->witness_member_first[wid] = member_slot;
  }
  FinishCore(core.get());
  return core;
}

}  // namespace

std::shared_ptr<const CompiledInstance> CompiledInstance::Build(
    const VseInstance& instance) {
  return BuildFromCore(BuildCore(instance), instance.deletion_tuples(),
                       nullptr);
}

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
      ++caches_->plan_stats.full_builds;
      caches_->compiled = CompiledInstance::Build(*this);
      caches_->plan_core = caches_->compiled->core();
    }
  }
  return caches_->compiled;
}

}  // namespace delprop
