#include "solvers/greedy_solver.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "solvers/damage_tracker.h"
#include "solvers/scratch_pool.h"

namespace delprop {

Result<VseSolution> GreedySolver::Solve(const VseInstance& instance) {
  return SolveWith(instance, nullptr);
}

Result<VseSolution> GreedySolver::SolveWith(const VseInstance& instance,
                                            ScratchPool* scratch) {
  std::optional<DamageTracker> local;
  if (scratch == nullptr) local.emplace(instance);
  DamageTracker& tracker =
      scratch != nullptr ? *scratch->AcquireTracker(instance) : *local;
  const CompiledInstance& plan = tracker.plan();
  const std::vector<uint32_t>& targets = plan.deletion_dense();

  // Kills only grow during this phase, so a monotone cursor over ΔV replaces
  // the legacy full rescan (which was quadratic in ‖ΔV‖): once a ΔV tuple is
  // killed it stays killed, and the legacy scan always stopped at the first
  // unkilled tuple — exactly where the cursor stands.
  size_t cursor = 0;
  while (tracker.unkilled_deletion_count() > 0) {
    while (cursor < targets.size() && tracker.IsKilledDense(targets[cursor])) {
      ++cursor;
    }
    if (cursor == targets.size()) {
      return Status::Internal("unkilled deletion without an unhit witness");
    }
    uint32_t target_tuple = targets[cursor];
    // First unhit witness of the target (a witness is hit once any member is
    // deleted).
    uint32_t witness = tracker.FirstUnhitWitness(target_tuple);
    if (witness == CompiledInstance::kNpos) {
      return Status::Internal("unkilled deletion without an unhit witness");
    }
    uint32_t mbegin = plan.member_begin(witness);
    uint32_t mend = plan.member_end(witness);
    if (mbegin == mend) {
      // Guarded at VseInstance construction; kept as a cheap invariant check
      // so a hand-built instance fails loudly instead of indexing into an
      // empty witness.
      return Status::InvalidArgument(
          "deletion target has an empty witness; instance is malformed");
    }
    // Delete the member with the lowest marginal damage (first wins ties —
    // the raw atom-order member list preserves the legacy tie-break).
    uint32_t best = plan.member_base(mbegin);
    double best_damage = std::numeric_limits<double>::infinity();
    for (uint32_t slot = mbegin; slot < mend; ++slot) {
      uint32_t base = plan.member_base(slot);
      if (tracker.IsDeletedBase(base)) continue;
      double damage = tracker.MarginalDamageBase(base);
      if (damage < best_damage) {
        best_damage = damage;
        best = base;
      }
    }
    tracker.DeleteBase(best);
  }

  // Reverse-delete pass: drop deletions that are no longer needed. Base ids
  // ascend with TupleRefs, so sorting them reproduces the legacy
  // CurrentDeletion().Sorted() order. The snapshot draws on the pooled id
  // buffer when available so steady-state batched requests don't allocate.
  std::vector<uint32_t> local_ids;
  std::vector<uint32_t>& deleted =
      scratch != nullptr ? scratch->IdBuffer() : local_ids;
  deleted.assign(tracker.DeletedBases().begin(), tracker.DeletedBases().end());
  std::sort(deleted.begin(), deleted.end());
  for (auto it = deleted.rbegin(); it != deleted.rend(); ++it) {
    // Read-only droppability probe instead of the Undelete → check →
    // re-Delete dance: the solution is feasible here, so "no killed ΔV
    // tuple revives" is exactly "unkilled stays 0".
    if (tracker.CanDropBase(*it)) tracker.UndeleteBase(*it);
  }

  return MakeSolution(instance, tracker.CurrentDeletion(), name());
}

}  // namespace delprop
