#include "plan/compiled_instance.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <unordered_map>
#include <utility>

#include "query/view.h"
#include "runtime/thread_pool.h"

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

/// The number of contiguous ranges each pass of a build is split into: one
/// per worker of `pool`, or one without a pool.
size_t PartCount(ThreadPool* pool) {
  return pool == nullptr ? 1 : pool->thread_count();
}

/// First index of range `part` of `parts` near-equal contiguous ranges
/// splitting [0, n).
size_t RangeBegin(size_t n, size_t parts, size_t part) {
  return n * part / parts;
}

/// First row of range `part` of `parts` contiguous ranges of the CSR rows
/// delimited by `first` (one entry per row plus the end), balanced by the
/// number of entries rather than of rows.
size_t BalancedRangeBegin(const std::vector<uint32_t>& first, size_t parts,
                          size_t part) {
  if (part == parts) return first.size() - 1;
  size_t target = RangeBegin(first.back(), parts, part);
  return static_cast<size_t>(
      std::lower_bound(first.begin(), first.end(), target) - first.begin());
}

/// Runs task(0) ... task(count - 1): in order on the calling thread without
/// a pool, else spread over the pool's workers by ParallelFor. The inline
/// loop makes no std::function, so a pool-less build allocates nothing but
/// its arrays.
template <typename Task>
void RunTasks(ThreadPool* pool, size_t count, const Task& task) {
  if (pool == nullptr) {
    for (size_t i = 0; i < count; ++i) task(i);
  } else {
    ParallelFor(pool, count, task);
  }
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
/// witness member rows, reading each row twice (count, then fill). Every
/// per-base occurrence row comes out sorted by (tuple, witness) — the
/// invariant MarginalDamage relies on to walk runs — and the kill rows are
/// its per-base run-dedup.
///
/// Each pass runs over PartCount(pool) contiguous ranges, on the pool's
/// workers when there is one; the arrays are the same for every pool. The
/// occurrence passes split the witnesses: range k counts into its own
/// per-base histogram, and one serial prefix turns the histograms into
/// per-range fill cursors, placing range k's entries after those of the
/// ranges before it in every base row, so each row stays in ascending
/// witness order. The last range counts into `base_occ_first` itself
/// (slot b + 1): after the shifted prefix, slot b + 1 is that range's
/// cursor for b, and once the fill is done it holds b's end, which is
/// b + 1's start. So a pool-less build, a single range, allocates nothing
/// beyond the core's own arrays. The kill passes split the bases.
void FinishCore(PlanCore* core, ThreadPool* pool) {
  uint32_t base_count = core->base_count();
  size_t parts = PartCount(pool);
  std::vector<uint32_t>& occ_first = core->base_occ_first;
  SizeTo(&occ_first, static_cast<size_t>(base_count) + 1);
  // The histograms of all ranges but the last, one block of base_count
  // each. Allocated here, on the calling thread, and zeroed by their range.
  std::unique_ptr<uint32_t[]> histograms;
  if (parts > 1) {
    histograms =
        std::make_unique_for_overwrite<uint32_t[]>((parts - 1) * base_count);
  }
  auto cursors = [&](size_t part) {
    return part + 1 == parts ? occ_first.data() + 1
                             : histograms.get() + part * base_count;
  };
  auto witness_range = [&](size_t part) {
    return std::pair<uint32_t, uint32_t>(
        BalancedRangeBegin(core->witness_member_first, parts, part),
        BalancedRangeBegin(core->witness_member_first, parts, part + 1));
  };
  RunTasks(pool, parts, [&](size_t part) {
    uint32_t* counts = cursors(part);
    std::fill(counts, counts + base_count, 0);
    auto [begin, end] = witness_range(part);
    for (uint32_t wid = begin; wid < end; ++wid) {
      ForEachDistinctMember(*core, wid, [&](uint32_t base) { ++counts[base]; });
    }
  });
  occ_first[0] = 0;
  uint32_t occ_total = 0;
  for (uint32_t b = 0; b < base_count; ++b) {
    for (size_t part = 0; part + 1 < parts; ++part) {
      uint32_t& cursor = histograms[part * base_count + b];
      uint32_t count = cursor;
      cursor = occ_total;
      occ_total += count;
    }
    uint32_t count = occ_first[b + 1];
    occ_first[b + 1] = occ_total;
    occ_total += count;
  }
  SizeTo(&core->occ_tuple, occ_total);
  SizeTo(&core->occ_witness, occ_total);
  RunTasks(pool, parts, [&](size_t part) {
    uint32_t* cursor = cursors(part);
    auto [begin, end] = witness_range(part);
    for (uint32_t wid = begin; wid < end; ++wid) {
      uint32_t owner = core->witness_owner[wid];
      ForEachDistinctMember(*core, wid, [&](uint32_t base) {
        uint32_t slot = cursor[base]++;
        core->occ_tuple[slot] = owner;
        core->occ_witness[slot] = wid;
      });
    }
  });

  // Kill rows: unique view tuples per base, in row order (ascending (view,
  // tuple)) — the per-base run-dedup of the occurrence rows. The bases are
  // split into ranges balanced by occurrences. Each range first writes the
  // prefix sums of its own kill counts; a serial pass over the ranges gives
  // each its offset, which its fill adds as it goes.
  std::vector<uint32_t>& kill_first = core->base_kill_first;
  SizeTo(&kill_first, static_cast<size_t>(base_count) + 1);
  kill_first[0] = 0;
  RunTasks(pool, parts, [&](size_t part) {
    uint32_t kills = 0;
    for (size_t b = BalancedRangeBegin(occ_first, parts, part),
                end = BalancedRangeBegin(occ_first, parts, part + 1);
         b < end; ++b) {
      uint32_t prev = CompiledInstance::kNpos;
      for (uint32_t slot = occ_first[b]; slot < occ_first[b + 1]; ++slot) {
        if (core->occ_tuple[slot] != prev) {
          prev = core->occ_tuple[slot];
          ++kills;
        }
      }
      kill_first[b + 1] = kills;
    }
  });
  std::vector<uint32_t> kill_offset(parts + 1, 0);
  for (size_t part = 0; part < parts; ++part) {
    size_t end = BalancedRangeBegin(occ_first, parts, part + 1);
    uint32_t range_kills =
        end == BalancedRangeBegin(occ_first, parts, part) ? 0 : kill_first[end];
    kill_offset[part + 1] = kill_offset[part] + range_kills;
  }
  SizeTo(&core->kill_tuple, kill_offset[parts]);
  RunTasks(pool, parts, [&](size_t part) {
    uint32_t out = kill_offset[part];
    for (size_t b = BalancedRangeBegin(occ_first, parts, part),
                end = BalancedRangeBegin(occ_first, parts, part + 1);
         b < end; ++b) {
      kill_first[b + 1] += kill_offset[part];
      uint32_t prev = CompiledInstance::kNpos;
      for (uint32_t slot = occ_first[b]; slot < occ_first[b + 1]; ++slot) {
        uint32_t t = core->occ_tuple[slot];
        if (t != prev) {
          prev = t;
          core->kill_tuple[out++] = t;
        }
      }
    }
  });
}

/// Builds the core of `instance` under `weights` (with its tail FinishCore,
/// the only code that writes a core). `storage` is a core the instance
/// dropped, or null. When the caller holds its only reference, the new core
/// is built in its arrays; nothing else can read it meanwhile. Otherwise a
/// new core is allocated. Both run the same code and rewrite every field.
///
/// Every pass over view tuples, witnesses, members or bases runs as
/// PartCount(pool) contiguous ranges, on `pool`'s workers when there is
/// one, and every array comes out the same for every pool. Each range is
/// sized first and written at offsets an exclusive prefix over the ranges
/// hands out, so no range reads another's output. Tasks read the instance
/// and write the core only: nothing in them takes the instance's cache
/// lock, which compiled() holds around the build.
std::shared_ptr<const PlanCore> BuildCore(
    const VseInstance& instance,
    const std::unordered_map<ViewTupleId, double, ViewTupleIdHash>& weights,
    std::shared_ptr<const PlanCore> storage, ThreadPool* pool,
    PlanBuildStats* stats) {
  std::shared_ptr<PlanCore> core;
  if (storage != nullptr && storage.use_count() == 1) {
    core = std::const_pointer_cast<PlanCore>(std::move(storage));
    ++stats->core_reuses;
  } else {
    core = std::make_shared<PlanCore>();
  }

  // View tuples get dense ids in ascending (view, tuple) order. The walk
  // runs as tasks: task v * parts + k covers range k of view v's tuples.
  size_t view_count = instance.view_count();
  size_t parts = PartCount(pool);
  size_t task_count = view_count * parts;
  SizeTo(&core->view_first, view_count + 1);
  uint32_t tuple_count = 0;
  for (size_t v = 0; v < view_count; ++v) {
    core->view_first[v] = tuple_count;
    tuple_count += static_cast<uint32_t>(instance.view(v).size());
  }
  core->view_first[view_count] = tuple_count;
  auto task_tuples = [&](size_t task) {
    size_t size = instance.view(task / parts).size();
    return std::pair<size_t, size_t>(
        RangeBegin(size, parts, task % parts),
        RangeBegin(size, parts, task % parts + 1));
  };

  // Sizes first: each task's witness count, then an exclusive prefix over
  // the tasks gives each its first witness id and member slot. Every
  // witness of view v has one member per body atom of query v
  // (ValidateWitnesses checks it), so member counts follow from witness
  // counts, and so does the narrowest member row. When every view tuple has
  // exactly one witness, witness counts are tuple counts: sizing reads no
  // ViewTuple.
  struct TaskStart {
    uint32_t witness = 0;
    uint32_t member = 0;
  };
  std::vector<TaskStart> task_start(task_count + 1);
  bool unique_witness = instance.all_unique_witness();
  if (!unique_witness) {
    RunTasks(pool, task_count, [&](size_t task) {
      const View& view = instance.view(task / parts);
      auto [begin, end] = task_tuples(task);
      size_t witnesses = 0;
      for (size_t t = begin; t < end; ++t) {
        witnesses += view.tuple(t).witnesses.size();
      }
      task_start[task].witness = static_cast<uint32_t>(witnesses);
    });
  }
  size_t witness_total = 0;
  size_t member_total = 0;
  uint32_t min_members = CompiledInstance::kNpos;
  for (size_t task = 0; task < task_count; ++task) {
    auto [begin, end] = task_tuples(task);
    size_t witnesses =
        unique_witness ? end - begin : task_start[task].witness;
    size_t atoms = instance.query(task / parts).atoms().size();
    assert(member_total + witnesses * atoms < CompiledInstance::kNpos);
    task_start[task] = TaskStart{static_cast<uint32_t>(witness_total),
                                 static_cast<uint32_t>(member_total)};
    witness_total += witnesses;
    member_total += witnesses * atoms;
    if (witnesses > 0) {
      min_members = std::min(min_members, static_cast<uint32_t>(atoms));
    }
  }
  task_start[task_count] = TaskStart{static_cast<uint32_t>(witness_total),
                                     static_cast<uint32_t>(member_total)};
  core->min_witness_raw_members = witness_total == 0 ? 0 : min_members;

  // Base interning through a row table: one slot per database row, laid out
  // in (relation, row) order by the prefix offsets `row_first`. The walk
  // below stores each member's row slot and marks it; one serial pass over
  // the table counts the marked rows and one more hands out ascending base
  // ids — ascending TupleRef order, exactly the ids a sort of all members
  // would assign — and one pass over the member rows swaps each row slot
  // for its base id.
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

  // The one walk over the witnesses: per tuple its view, weight 1 and
  // witness CSR offset; per witness its owner and member offset; per member
  // its row slot.
  SizeTo(&core->tuple_view, tuple_count);
  SizeTo(&core->weight, tuple_count);
  SizeTo(&core->tuple_witness_first, static_cast<size_t>(tuple_count) + 1);
  SizeTo(&core->witness_owner, witness_total);
  SizeTo(&core->witness_member_first, witness_total + 1);
  SizeTo(&core->witness_member_base, member_total);
  RunTasks(pool, task_count, [&](size_t task) {
    size_t v = task / parts;
    const View& view = instance.view(v);
    auto [begin, end] = task_tuples(task);
    uint32_t wid = task_start[task].witness;
    uint32_t member_slot = task_start[task].member;
    for (size_t t = begin; t < end; ++t) {
      uint32_t d = core->view_first[v] + static_cast<uint32_t>(t);
      core->tuple_view[d] = static_cast<uint32_t>(v);
      core->weight[d] = 1.0;
      core->tuple_witness_first[d] = wid;
      const std::vector<Witness>& witnesses = view.tuple(t).witnesses;
      assert(!unique_witness || witnesses.size() == 1);
      for (const Witness& witness : witnesses) {
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
          // Two ranges can mark the same row; the marks are relaxed atomic
          // stores of one value, which ParallelFor's join publishes.
          std::atomic_ref<uint32_t>(base_of_row[row])
              .store(0, std::memory_order_relaxed);
        }
      }
    }
    assert(wid == task_start[task + 1].witness);
  });
  core->tuple_witness_first[tuple_count] =
      static_cast<uint32_t>(witness_total);
  core->witness_member_first[witness_total] =
      static_cast<uint32_t>(member_total);
  // Each explicit weight lands in its own slot, so the map's order does not
  // matter.
  for (const auto& [id, weight] : weights) {
    assert(id.view < view_count && id.tuple < instance.view(id.view).size());
    core->weight[core->view_first[id.view] + id.tuple] = weight;
  }

  uint32_t base_count = 0;
  for (uint32_t mark : base_of_row) {
    base_count += mark != CompiledInstance::kNpos;
  }
  SizeTo(&core->base_refs, base_count);
  uint32_t next_base = 0;
  for (RelationId r = 0; r < relation_count; ++r) {
    for (uint32_t i = row_first[r]; i < row_first[r + 1]; ++i) {
      if (base_of_row[i] == CompiledInstance::kNpos) continue;
      base_of_row[i] = next_base;
      core->base_refs[next_base++] = TupleRef{r, i - row_first[r]};
    }
  }
  RunTasks(pool, parts, [&](size_t part) {
    std::vector<uint32_t>& members = core->witness_member_base;
    for (size_t slot = RangeBegin(member_total, parts, part),
                end = RangeBegin(member_total, parts, part + 1);
         slot < end; ++slot) {
      members[slot] = base_of_row[members[slot]];
    }
  });
  FinishCore(core.get(), pool);
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
std::shared_ptr<const CompiledInstance> VseInstance::compiled(
    ThreadPool* pool) const {
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
      // A full build, on `pool`'s workers when given: into the storage of
      // the core a delta or SetWeight dropped when nothing else holds it.
      // The parked core is released either way.
      ++caches_->plan_stats.full_builds;
      caches_->plan_core =
          BuildCore(*this, weights_, std::move(caches_->retired_core), pool,
                    &caches_->plan_stats);
      caches_->compiled = CompiledInstance::BuildFromCore(
          caches_->plan_core, deletion_tuples_, nullptr);
    }
  }
  return caches_->compiled;
}

}  // namespace delprop
