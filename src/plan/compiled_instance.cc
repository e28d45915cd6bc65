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

/// Shared tail of BuildCore and PatchCore: derives the occurrence and kill
/// CSR arrays from the witness member rows. Appending in ascending wid order
/// leaves every per-base occurrence row sorted by (tuple, witness) — the
/// invariant MarginalDamage relies on to walk runs — and the kill rows are
/// its per-base run-dedup.
void FinishCore(PlanCore* core) {
  uint32_t base_count = core->base_count();
  uint32_t witness_count = core->witness_count();
  core->base_occ_first.assign(static_cast<size_t>(base_count) + 1, 0);
  // Deduped member lists, flattened: computed once in the counting pass and
  // replayed by the fill pass (this function runs on every core patch, so
  // the per-witness sorts are worth paying only once). A witness whose
  // members are already strictly ascending — every schema without
  // self-joins — skips the sort entirely.
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

std::shared_ptr<const PlanCore> CompiledInstance::PatchCore(
    const PlanCore& old_core, const VseInstance& instance,
    const CoreDelta& delta) {
  auto core = std::make_shared<PlanCore>();
  size_t view_count = instance.view_count();

  // Tuple id space from the (already mutated) views.
  core->view_first.resize(view_count + 1);
  uint32_t dense = 0;
  for (size_t v = 0; v < view_count; ++v) {
    core->view_first[v] = dense;
    dense += static_cast<uint32_t>(instance.view(v).size());
  }
  core->view_first[view_count] = dense;
  uint32_t tuple_count = dense;
  core->tuple_view.resize(tuple_count);
  for (size_t v = 0; v < view_count; ++v) {
    uint32_t first = core->view_first[v];
    uint32_t last = core->view_first[v + 1];
    for (uint32_t d = first; d < last; ++d) {
      core->tuple_view[d] = static_cast<uint32_t>(v);
    }
  }

  // Old→new tuple remap. Survivors of view v occupy its first slots in their
  // old relative order (View::RemoveTuples compacts stably, AddMatch only
  // appends), so walking old dense ids in order assigns the new ids.
  uint32_t old_tuple_count = old_core.tuple_count();
  std::vector<uint32_t> tuple_remap(old_tuple_count, kNpos);
  std::vector<uint32_t> old_of(tuple_count, kNpos);  // new dense -> old dense
  std::vector<uint32_t> survivors(view_count, 0);
  for (size_t v = 0; v < view_count; ++v) {
    uint32_t next = core->view_first[v];
    for (uint32_t od = old_core.view_first[v]; od < old_core.view_first[v + 1];
         ++od) {
      if (delta.tuple_removed[od]) continue;
      tuple_remap[od] = next;
      old_of[next] = od;
      ++next;
    }
    survivors[v] = next - core->view_first[v];
  }

  // Weights: splice survivors from the old array, read appended tuples from
  // the instance (SetWeight keeps the instance map and the core in sync).
  core->weight.resize(tuple_count);
  for (uint32_t od = 0; od < old_tuple_count; ++od) {
    if (tuple_remap[od] != kNpos) {
      core->weight[tuple_remap[od]] = old_core.weight[od];
    }
  }
  for (size_t v = 0; v < view_count; ++v) {
    const View& view = instance.view(v);
    for (size_t t = survivors[v]; t < view.size(); ++t) {
      core->weight[core->view_first[v] + t] = instance.weight(ViewTupleId{v, t});
    }
  }

  // Base occurrence deltas per old base, and the refs new witnesses bring
  // in. Old bases whose count drops to zero leave the id space; fresh refs
  // join it; everything stays in ascending TupleRef order via a merge.
  uint32_t old_base_count = old_core.base_count();
  std::vector<int64_t> occ_delta(old_base_count, 0);
  std::vector<uint32_t> scratch;
  for (uint32_t ow = 0; ow < old_core.witness_count(); ++ow) {
    if (!delta.witness_removed[ow]) continue;
    scratch.assign(
        old_core.witness_member_base.begin() +
            old_core.witness_member_first[ow],
        old_core.witness_member_base.begin() +
            old_core.witness_member_first[ow + 1]);
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    for (uint32_t base : scratch) --occ_delta[base];
  }
  auto find_old_base = [&old_core](const TupleRef& ref) {
    auto it = std::lower_bound(old_core.base_refs.begin(),
                               old_core.base_refs.end(), ref);
    if (it == old_core.base_refs.end() || !(*it == ref)) {
      return CompiledInstance::kNpos;
    }
    return static_cast<uint32_t>(it - old_core.base_refs.begin());
  };
  std::vector<TupleRef> new_refs;
  std::vector<TupleRef> ref_scratch;
  // Appended-witness sweep, used twice: once to collect refs, once to fill
  // member rows. For a surviving tuple the appended witnesses are the ones
  // past its kept-old-witness count; for an appended tuple, all of them.
  auto for_each_appended_witness = [&](auto&& body) {
    for (size_t v = 0; v < view_count; ++v) {
      const View& view = instance.view(v);
      for (size_t t = 0; t < view.size(); ++t) {
        uint32_t d = core->view_first[v] + static_cast<uint32_t>(t);
        size_t kept = 0;
        if (t < survivors[v]) {
          uint32_t od = old_of[d];
          for (uint32_t ow = old_core.tuple_witness_first[od];
               ow < old_core.tuple_witness_first[od + 1]; ++ow) {
            if (!delta.witness_removed[ow]) ++kept;
          }
        }
        const std::vector<Witness>& witnesses = view.tuple(t).witnesses;
        for (size_t w = kept; w < witnesses.size(); ++w) {
          body(witnesses[w]);
        }
      }
    }
  };
  for_each_appended_witness([&](const Witness& witness) {
    ref_scratch.assign(witness.begin(), witness.end());
    std::sort(ref_scratch.begin(), ref_scratch.end());
    ref_scratch.erase(
        std::unique(ref_scratch.begin(), ref_scratch.end()),
        ref_scratch.end());
    for (const TupleRef& ref : ref_scratch) {
      uint32_t old_base = find_old_base(ref);
      if (old_base != kNpos) {
        ++occ_delta[old_base];
      } else {
        new_refs.push_back(ref);
      }
    }
  });
  std::sort(new_refs.begin(), new_refs.end());
  new_refs.erase(std::unique(new_refs.begin(), new_refs.end()),
                 new_refs.end());

  // Merge surviving old refs with the new ones (both ascending).
  std::vector<uint32_t> base_remap(old_base_count, kNpos);
  core->base_refs.reserve(old_base_count + new_refs.size());
  {
    uint32_t ob = 0;
    size_t nr = 0;
    while (ob < old_base_count || nr < new_refs.size()) {
      bool take_old;
      if (ob >= old_base_count) {
        take_old = false;
      } else if (nr >= new_refs.size()) {
        take_old = true;
      } else {
        take_old = old_core.base_refs[ob] < new_refs[nr];
      }
      if (take_old) {
        int64_t old_count = static_cast<int64_t>(old_core.base_occ_first[ob + 1]) -
                            static_cast<int64_t>(old_core.base_occ_first[ob]);
        if (old_count + occ_delta[ob] > 0) {
          base_remap[ob] = static_cast<uint32_t>(core->base_refs.size());
          core->base_refs.push_back(old_core.base_refs[ob]);
        }
        ++ob;
      } else {
        core->base_refs.push_back(new_refs[nr]);
        ++nr;
      }
    }
  }
  auto find_base = [core](const TupleRef& ref) {
    auto it = std::lower_bound(core->base_refs.begin(), core->base_refs.end(),
                               ref);
    return static_cast<uint32_t>(it - core->base_refs.begin());
  };

  // Witness CSR + member rows: kept old witnesses splice their member slices
  // through base_remap; appended witnesses resolve refs against the merged
  // id space. Both paths emit in (view, tuple, witness) order, matching a
  // from-scratch build byte for byte.
  core->tuple_witness_first.resize(tuple_count + 1);
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
        }
      }
    }
    core->tuple_witness_first[tuple_count] = wid;
    core->witness_owner.resize(wid);
    core->witness_member_first.resize(static_cast<size_t>(wid) + 1);
    core->witness_member_base.reserve(member_total);
  }
  {
    uint32_t wid = 0;
    uint32_t member_slot = 0;
    for (size_t v = 0; v < view_count; ++v) {
      const View& view = instance.view(v);
      for (size_t t = 0; t < view.size(); ++t) {
        uint32_t d = core->view_first[v] + static_cast<uint32_t>(t);
        size_t kept = 0;
        if (t < survivors[v]) {
          uint32_t od = old_of[d];
          for (uint32_t ow = old_core.tuple_witness_first[od];
               ow < old_core.tuple_witness_first[od + 1]; ++ow) {
            if (delta.witness_removed[ow]) continue;
            core->witness_owner[wid] = d;
            core->witness_member_first[wid] = member_slot;
            for (uint32_t slot = old_core.witness_member_first[ow];
                 slot < old_core.witness_member_first[ow + 1]; ++slot) {
              core->witness_member_base.push_back(
                  base_remap[old_core.witness_member_base[slot]]);
              ++member_slot;
            }
            ++wid;
            ++kept;
          }
        }
        const std::vector<Witness>& witnesses = view.tuple(t).witnesses;
        for (size_t w = kept; w < witnesses.size(); ++w) {
          core->witness_owner[wid] = d;
          core->witness_member_first[wid] = member_slot;
          for (const TupleRef& ref : witnesses[w]) {
            core->witness_member_base.push_back(find_base(ref));
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
      recycle->core_->tuple_count() == tuple_count &&
      recycle->core_->base_count() == base_count) {
    // Sole owner of a retired plan with matching dimensions (the same core,
    // or a weight-patched clone of it): steal its overlay buffers. Clearing
    // by the retired ΔV/candidate lists (instead of a full fill) keeps the
    // reset O(previous ΔV incidence), and re-establishes the all-zero
    // `touched_` invariant. The const_cast is sound: we hold the only
    // reference, so no reader can observe the mutation.
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
      // ΔV-only invalidation (or an ApplyDelta core patch) kept a core;
      // rebuild just the overlay, recycling the retired plan's buffers when
      // we are its sole owner and the dimensions still line up.
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
