#include "ilp/ilp_solver.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "solvers/damage_tracker.h"
#include "solvers/scratch_pool.h"

namespace delprop {

namespace {
constexpr uint32_t kNpos = CompiledInstance::kNpos;
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Result<VseSolution> IlpSolver::Solve(const VseInstance& instance) {
  return SolveWith(instance, nullptr);
}

Result<VseSolution> IlpSolver::SolveWith(const VseInstance& instance,
                                         ScratchPool* scratch) {
  std::optional<DamageTracker> local;
  if (scratch == nullptr) local.emplace(instance);
  DamageTracker& tracker =
      scratch != nullptr ? *scratch->AcquireTracker(instance) : *local;
  const CompiledInstance& plan = tracker.plan();
  model_.Decompose(plan);
  if (objective_ == Objective::kStandard && model_.standard_infeasible()) {
    return Status::Infeasible("no deletion eliminates all of ΔV");
  }

  nodes_ = 0;
  aborted_ = false;
  budget_hit_ = false;
  deadline_hit_ = false;
  has_deadline_ = std::isfinite(options_.deadline_ms);
  if (has_deadline_) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        std::max(0.0, options_.deadline_ms)));
  }
  ++solve_epoch_;
  if (excluded_stamp_.size() < plan.base_count()) {
    excluded_stamp_.resize(plan.base_count(), 0);
  }
  if (pack_used_stamp_.size() < plan.base_count()) {
    pack_used_stamp_.resize(plan.base_count(), 0);
  }
  if (pack_charged_stamp_.size() < plan.tuple_count()) {
    pack_charged_stamp_.resize(plan.tuple_count(), 0);
  }
  excl_trail_.clear();
  excl_trail_.reserve(plan.candidate_bases().size());

  // Components are independent: their incumbents concatenate into the
  // solution and their bounds add up (orphaned ΔV tuples survive any
  // deletion, a constant for the balanced objective).
  double lower = 0.0;
  bool all_proven = true;
  if (objective_ == Objective::kBalanced) lower = model_.orphan_delta_weight();
  const uint32_t comps = model_.component_count();
  for (uint32_t c = 0; c < comps; ++c) {
    CompResult result = SolveComponent(c, tracker);
    lower += result.lower_bound;
    all_proven = all_proven && result.proven;
  }

  VseSolution solution =
      MakeSolution(instance, tracker.CurrentDeletion(), name());
  double upper = objective_ == Objective::kBalanced ? solution.BalancedCost()
                                                    : solution.Cost();
  solution.gap.has_bound = true;
  solution.gap.optimal = all_proven;
  solution.gap.upper_bound = upper;
  solution.gap.lower_bound = all_proven ? upper : std::min(lower, upper);
  solution.gap.nodes = nodes_;
  solution.gap.budget_hit = budget_hit_;
  solution.gap.deadline_hit = deadline_hit_;
  return solution;
}

IlpSolver::CompResult IlpSolver::SolveComponent(uint32_t c,
                                                DamageTracker& tracker) {
  comp_trail_start_ = tracker.DeletedBases().size();
  comp_base_kpw_ = tracker.killed_preserved_weight();
  comp_base_surviving_ = tracker.surviving_deletion_weight();
  // The root bound is valid whatever happens later: earlier components'
  // deletions cannot touch this component's marginals (base-disjoint, and
  // every killable preserved tuple lives inside one component).
  double root_bound = objective_ == Objective::kBalanced
                          ? BalancedDualBound(c, tracker)
                          : DualBound(c, tracker);
  WarmStart(c, tracker);  // sets best_cost_ and comp_best_, restores state

  CompResult result;
  if (!aborted_) {
    if (root_bound >= best_cost_) {
      // The warm start already meets the root bound: proven optimal with
      // zero search nodes.
      result.proven = true;
    } else if (objective_ == Objective::kBalanced) {
      DescendBalanced(c, 0, tracker);
      result.proven = !aborted_;
    } else {
      DescendStandard(c, tracker);
      result.proven = !aborted_;
    }
  }
  result.best_cost = best_cost_;
  result.lower_bound =
      result.proven ? best_cost_ : std::min(root_bound, best_cost_);
  // Commit the incumbent: later components search on top of it, and the
  // final DeletionSet is read back off the tracker.
  for (uint32_t b : comp_best_) tracker.DeleteBase(b);
  return result;
}

/// Damage-greedy warm start restricted to the component, with the greedy
/// solver's reverse-delete pass; leaves the tracker back at component-entry
/// state with `comp_best_` holding the incumbent deletion and `best_cost_`
/// its component-local objective value.
double IlpSolver::WarmStart(uint32_t c, DamageTracker& tracker) {
  const CompiledInstance& plan = tracker.plan();
  const uint32_t* tbegin = model_.comp_tuples_begin(c);
  const uint32_t* tend = model_.comp_tuples_end(c);
  for (const uint32_t* t = tbegin; t != tend; ++t) {
    while (!tracker.IsKilledDense(*t)) {
      uint32_t open = tracker.FirstUnhitWitness(*t);
      if (open == kNpos) break;  // unreachable: unkilled => an alive witness
      uint32_t best_base = kNpos;
      double best_damage = kInf;
      for (uint32_t slot = plan.member_begin(open); slot < plan.member_end(open);
           ++slot) {
        uint32_t b = plan.member_base(slot);
        if (tracker.IsDeletedBase(b)) continue;
        double damage = tracker.MarginalDamageBase(b);
        if (damage < best_damage) {
          best_damage = damage;
          best_base = b;
        }
      }
      if (best_base == kNpos) break;  // memberless witness: unkillable tuple
      tracker.DeleteBase(best_base);
    }
  }
  // Remember which ΔV tuples the greedy killed (an unkillable tuple must not
  // anchor the reverse-delete check); pack_charged doubles as the marker —
  // every DualBound call bumps the epoch, so no collision.
  ++pack_epoch_;
  for (const uint32_t* t = tbegin; t != tend; ++t) {
    if (tracker.IsKilledDense(*t)) pack_charged_stamp_[*t] = pack_epoch_;
  }
  // Reverse-delete in ascending dense id: drop any deletion whose removal
  // keeps every greedy-killed tuple dead.
  const std::vector<uint32_t>& deleted = tracker.DeletedBases();
  comp_best_.assign(deleted.begin() + comp_trail_start_, deleted.end());
  std::sort(comp_best_.begin(), comp_best_.end());
  for (uint32_t b : comp_best_) {
    tracker.UndeleteBase(b);
    bool still_covered = true;
    for (const uint32_t* t = tbegin; still_covered && t != tend; ++t) {
      still_covered = pack_charged_stamp_[*t] != pack_epoch_ ||
                      tracker.IsKilledDense(*t);
    }
    if (!still_covered) tracker.DeleteBase(b);
  }
  double warm_damage = tracker.killed_preserved_weight() - comp_base_kpw_;
  double warm_surviving =
      model_.comp_delta_weight(c) -
      (comp_base_surviving_ - tracker.surviving_deletion_weight());
  comp_best_.assign(deleted.begin() + comp_trail_start_, deleted.end());
  // Restore component-entry state; the search re-derives deletions itself.
  for (uint32_t b : comp_best_) tracker.UndeleteBase(b);
  if (objective_ == Objective::kBalanced) {
    double warm_balanced = warm_damage + warm_surviving;
    double empty_cost = model_.comp_delta_weight(c);
    if (empty_cost <= warm_balanced) {
      comp_best_.clear();
      best_cost_ = empty_cost;
    } else {
      best_cost_ = warm_balanced;
    }
  } else {
    best_cost_ = warm_damage;
  }
  return best_cost_;
}

bool IlpSolver::CheckLimits() {
  ++nodes_;
  if (nodes_ > options_.node_budget) {
    aborted_ = true;
    budget_hit_ = true;
    return false;
  }
  // Deadline checks hit nodes 1, 257, 513, ... — the very first node is
  // included so a 0ms deadline deterministically returns the warm starts.
  if (has_deadline_ && (nodes_ & 0xFF) == 1 &&
      std::chrono::steady_clock::now() >= deadline_) {
    aborted_ = true;
    deadline_hit_ = true;
    return false;
  }
  return true;
}

void IlpSolver::SnapshotIncumbent(const DamageTracker& tracker) {
  const std::vector<uint32_t>& deleted = tracker.DeletedBases();
  comp_best_.assign(deleted.begin() + comp_trail_start_, deleted.end());
}

void IlpSolver::DescendStandard(uint32_t c, DamageTracker& tracker) {
  if (aborted_ || !CheckLimits()) return;
  const CompiledInstance& plan = tracker.plan();
  double cost = tracker.killed_preserved_weight() - comp_base_kpw_;
  if (cost >= best_cost_) return;
  const uint32_t* tend = model_.comp_tuples_end(c);
  uint32_t first_unkilled = kNpos;
  for (const uint32_t* t = model_.comp_tuples_begin(c);
       first_unkilled == kNpos && t != tend; ++t) {
    if (!tracker.IsKilledDense(*t)) first_unkilled = *t;
  }
  if (first_unkilled == kNpos) {
    // Feasible leaf, strictly better than the incumbent by the prune above.
    best_cost_ = cost;
    SnapshotIncumbent(tracker);
    return;
  }
  // The packing bound also detects infeasible subtrees (+inf: some witness
  // lost all of its available members to exclusions).
  double bound = cost + DualBound(c, tracker);
  if (bound >= best_cost_) return;
  // Branch on the unhit witness of the first unkilled ΔV tuple with the
  // fewest available members (strict <, first wins: deterministic).
  uint32_t branch_witness = kNpos;
  uint32_t branch_avail = std::numeric_limits<uint32_t>::max();
  tracker.ForEachUnhitWitness(first_unkilled, [&](uint32_t w) {
    uint32_t avail = 0;
    for (uint32_t slot = plan.member_begin(w); slot < plan.member_end(w);
         ++slot) {
      uint32_t b = plan.member_base(slot);
      if (!tracker.IsDeletedBase(b) && !IsExcluded(b)) ++avail;
    }
    if (avail < branch_avail) {
      branch_avail = avail;
      branch_witness = w;
    }
    return true;
  });
  // An unkilled tuple always has an unhit witness, and the bound above
  // pruned witnesses with no available member — the branch list is nonempty.
  size_t trail_mark = excl_trail_.size();
  uint32_t mend = plan.member_end(branch_witness);
  for (uint32_t slot = plan.member_begin(branch_witness); slot < mend;
       ++slot) {
    uint32_t b = plan.member_base(slot);
    if (tracker.IsDeletedBase(b) || IsExcluded(b)) continue;  // incl. dups
    tracker.DeleteBase(b);
    DescendStandard(c, tracker);
    tracker.UndeleteBase(b);
    if (aborted_) break;
    // Completeness: later branches cover solutions avoiding b, so exclude
    // it — which also sharpens DualBound in the remaining siblings.
    excluded_stamp_[b] = solve_epoch_;
    excl_trail_.push_back(b);
  }
  while (excl_trail_.size() > trail_mark) {
    excluded_stamp_[excl_trail_.back()] = 0;
    excl_trail_.pop_back();
  }
}

void IlpSolver::DescendBalanced(uint32_t c, uint32_t index,
                                DamageTracker& tracker) {
  if (aborted_ || !CheckLimits()) return;
  double killed = tracker.killed_preserved_weight() - comp_base_kpw_;
  double surviving =
      model_.comp_delta_weight(c) -
      (comp_base_surviving_ - tracker.surviving_deletion_weight());
  double cost = killed + surviving;
  if (cost < best_cost_) {
    best_cost_ = cost;
    SnapshotIncumbent(tracker);
  }
  if (killed + BalancedDualBound(c, tracker) >= best_cost_) return;
  if (index == model_.comp_base_count(c)) return;
  uint32_t b = model_.comp_bases_begin(c)[index];
  // Branch: delete the candidate.
  tracker.DeleteBase(b);
  DescendBalanced(c, index + 1, tracker);
  tracker.UndeleteBase(b);
  if (aborted_) return;
  // Branch: keep it, excluded so the bound sees the commitment.
  excluded_stamp_[b] = solve_epoch_;
  excl_trail_.push_back(b);
  DescendBalanced(c, index + 1, tracker);
  excluded_stamp_[b] = 0;
  excl_trail_.pop_back();
}

/// Dual-feasible witness-packing bound for the standard objective: extra
/// damage any completion of this node must still pay to kill the component's
/// remaining ΔV tuples. Packed witnesses are unhit, pairwise disjoint on
/// available members, and each charges the union of its available members'
/// marginal-damage sets, so a preserved tuple's weight is counted at most
/// once (docs/ilp.md gives the proof). Returns +inf when some unhit witness
/// has no available member left — the subtree is infeasible.
double IlpSolver::DualBound(uint32_t c, DamageTracker& tracker) {
  const CompiledInstance& plan = tracker.plan();
  ++pack_epoch_;
  double lb = 0.0;
  const uint32_t* tend = model_.comp_tuples_end(c);
  for (const uint32_t* t = model_.comp_tuples_begin(c); t != tend; ++t) {
    uint32_t dense = *t;
    if (tracker.IsKilledDense(dense)) continue;
    uint32_t chosen = kNpos;
    bool infeasible = false;
    // Full scan over the unhit witnesses: a later witness with no available
    // member still proves the subtree infeasible, so no early exit once
    // `chosen` is set.
    tracker.ForEachUnhitWitness(dense, [&](uint32_t w) {
      uint32_t avail = 0;
      bool conflict = false;
      for (uint32_t slot = plan.member_begin(w); slot < plan.member_end(w);
           ++slot) {
        uint32_t b = plan.member_base(slot);
        if (tracker.IsDeletedBase(b) || IsExcluded(b)) continue;
        ++avail;
        if (pack_used_stamp_[b] == pack_epoch_) conflict = true;
      }
      if (avail == 0) {  // this witness can never be hit
        infeasible = true;
        return false;
      }
      if (!conflict && chosen == kNpos) chosen = w;
      return true;
    });
    if (infeasible) return kInf;
    if (chosen == kNpos) continue;  // every witness conflicts: no claim
    double delta = kInf;
    for (uint32_t slot = plan.member_begin(chosen);
         slot < plan.member_end(chosen); ++slot) {
      uint32_t b = plan.member_base(slot);
      if (tracker.IsDeletedBase(b) || IsExcluded(b)) continue;
      delta = std::min(delta, MarginalWeight(b, tracker, /*charge=*/false));
    }
    if (delta <= 0.0) continue;  // free to hit: pack nothing, consume nothing
    for (uint32_t slot = plan.member_begin(chosen);
         slot < plan.member_end(chosen); ++slot) {
      uint32_t b = plan.member_base(slot);
      if (tracker.IsDeletedBase(b) || IsExcluded(b)) continue;
      pack_used_stamp_[b] = pack_epoch_;
      MarginalWeight(b, tracker, /*charge=*/true);
    }
    lb += delta;
  }
  return lb;
}

/// Balanced variant: an unkilled ΔV tuple either survives (paying its own
/// weight — certain when some witness has no available member) or is killed
/// (paying at least the packed witness's charged marginal minimum). The
/// survivor weights are per-tuple and the kill charges are disjoint, so the
/// contributions add.
double IlpSolver::BalancedDualBound(uint32_t c, DamageTracker& tracker) {
  const CompiledInstance& plan = tracker.plan();
  ++pack_epoch_;
  double lb = 0.0;
  const uint32_t* tend = model_.comp_tuples_end(c);
  for (const uint32_t* t = model_.comp_tuples_begin(c); t != tend; ++t) {
    uint32_t dense = *t;
    if (tracker.IsKilledDense(dense)) continue;
    double survive_cost = plan.weight(dense);
    uint32_t chosen = kNpos;
    bool unkillable = false;
    tracker.ForEachUnhitWitness(dense, [&](uint32_t w) {
      uint32_t avail = 0;
      bool conflict = false;
      for (uint32_t slot = plan.member_begin(w); slot < plan.member_end(w);
           ++slot) {
        uint32_t b = plan.member_base(slot);
        if (tracker.IsDeletedBase(b) || IsExcluded(b)) continue;
        ++avail;
        if (pack_used_stamp_[b] == pack_epoch_) conflict = true;
      }
      if (avail == 0) {
        unkillable = true;
        return false;  // survivor weight decided; stop as the legacy loop did
      }
      if (!conflict && chosen == kNpos) chosen = w;
      return true;
    });
    if (unkillable) {
      lb += survive_cost;
      continue;
    }
    if (chosen == kNpos) continue;
    double delta = kInf;
    for (uint32_t slot = plan.member_begin(chosen);
         slot < plan.member_end(chosen); ++slot) {
      uint32_t b = plan.member_base(slot);
      if (tracker.IsDeletedBase(b) || IsExcluded(b)) continue;
      delta = std::min(delta, MarginalWeight(b, tracker, /*charge=*/false));
    }
    double contribution = std::min(survive_cost, delta);
    if (contribution <= 0.0) continue;
    for (uint32_t slot = plan.member_begin(chosen);
         slot < plan.member_end(chosen); ++slot) {
      uint32_t b = plan.member_base(slot);
      if (tracker.IsDeletedBase(b) || IsExcluded(b)) continue;
      pack_used_stamp_[b] = pack_epoch_;
      MarginalWeight(b, tracker, /*charge=*/true);
    }
    lb += contribution;
  }
  return lb;
}

/// Marginal damage of `base` restricted to pack-uncharged preserved tuples
/// (charge == false), or marks every marginal tuple of `base` as charged
/// (charge == true). The marginal tuples are the tracker's newly killed
/// ones, visited in ascending dense id as MarginalDamageBase sums them.
double IlpSolver::MarginalWeight(uint32_t base, const DamageTracker& tracker,
                                 bool charge) {
  const CompiledInstance& plan = tracker.plan();
  double sum = 0.0;
  tracker.ForEachNewlyKilledPreserved(base, [&](uint32_t dense) {
    if (charge) {
      pack_charged_stamp_[dense] = pack_epoch_;
    } else if (pack_charged_stamp_[dense] != pack_epoch_) {
      sum += plan.weight(dense);
    }
  });
  return sum;
}

}  // namespace delprop
