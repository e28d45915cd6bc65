#include "solvers/source_side_effect_solver.h"

#include "plan/compiled_instance.h"
#include "setcover/greedy_set_cover.h"

namespace delprop {

Result<VseSolution> SourceSideEffectSolver::Solve(
    const VseInstance& instance) {
  if (instance.TotalDeletionTuples() == 0) {
    return MakeSolution(instance, DeletionSet(), name());
  }
  if (!instance.all_unique_witness()) {
    return Status::FailedPrecondition(
        "source side-effect via set cover requires unique-witness views");
  }
  // Elements: ΔV tuples (element id = ΔV position = the plan's
  // deletion_index); sets: candidate base tuples, their covered elements
  // read straight off their kill rows.
  std::shared_ptr<const CompiledInstance> plan = instance.compiled();
  const std::vector<uint32_t>& candidates = plan->candidate_bases();
  SetCoverInstance cover;
  cover.element_count = instance.TotalDeletionTuples();
  cover.sets.reserve(candidates.size());
  for (uint32_t base : candidates) {
    // Count first so the per-set vector is sized exactly — these lists are
    // retained for the whole set-cover run. The count reads the overlay's
    // per-tuple ΔV marks.
    size_t deletions = plan->KillRowDeletionCount(base);
    std::vector<size_t> elements;
    elements.reserve(deletions);
    plan->ForEachKilled(base, [&](uint32_t dense) {
      if (plan->is_deletion(dense)) {
        elements.push_back(plan->deletion_index(dense));
      }
    });
    cover.sets.push_back(std::move(elements));
  }
  Result<std::vector<size_t>> chosen =
      mode_ == Mode::kGreedy ? GreedySetCover(cover)
                             : ExactSetCover(cover, node_budget_);
  if (!chosen.ok()) return chosen.status();
  DeletionSet deletion;
  for (size_t s : *chosen) deletion.Insert(plan->base_ref(candidates[s]));
  return MakeSolution(instance, std::move(deletion), name());
}

}  // namespace delprop
