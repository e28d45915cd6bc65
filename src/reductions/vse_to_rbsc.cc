#include "reductions/vse_to_rbsc.h"

#include "plan/compiled_instance.h"

namespace delprop {

Result<VseToRbscMapping> ReduceVseToRbsc(const VseInstance& instance) {
  if (instance.TotalDeletionTuples() == 0) {
    return Status::FailedPrecondition("no view deletions marked");
  }
  std::shared_ptr<const CompiledInstance> plan = instance.compiled();
  VseToRbscMapping mapping;
  mapping.set_tuples.reserve(plan->candidate_bases().size());
  for (uint32_t base : plan->candidate_bases()) {
    mapping.set_tuples.push_back(plan->base_ref(base));
  }

  // Blue ids: ΔV position — the plan's deletion_index is exactly that.
  mapping.blue_tuples = instance.deletion_tuples();

  // Red ids, assigned lazily to preserved tuples touched by candidates
  // (first-touch order over the candidate/kill scan, as before). A dense
  // kNpos-initialized array replaces the legacy hash map: same assignment
  // order, O(1) lookups.
  std::vector<uint32_t> red_of_tuple(plan->tuple_count(),
                                     CompiledInstance::kNpos);
  auto red_of = [&](uint32_t dense) {
    if (red_of_tuple[dense] == CompiledInstance::kNpos) {
      red_of_tuple[dense] = static_cast<uint32_t>(mapping.red_tuples.size());
      // Lazy first-touch interning: the red universe is discovered during
      // this scan, so its size is unknown until the reduction finishes.
      // delprop-lint: hot-path-allocation-ok amortized interning, see above
      mapping.red_tuples.push_back(plan->IdOf(dense));
      // delprop-lint: hot-path-allocation-ok amortized interning, see above
      mapping.rbsc.red_weights.push_back(plan->weight(dense));
    }
    return red_of_tuple[dense];
  };

  mapping.rbsc.sets.reserve(plan->candidate_bases().size());
  for (uint32_t base : plan->candidate_bases()) {
    RbscInstance::Set set;
    uint32_t begin = plan->kill_begin(base);
    uint32_t end = plan->kill_end(base);
    // Count first: the set's blue/red lists partition its kill row, and
    // both are retained in the mapping for the whole solve. The count reads
    // the overlay's per-tuple ΔV marks.
    uint32_t blue_count = plan->KillRowDeletionCount(base);
    set.blues.reserve(blue_count);
    set.reds.reserve((end - begin) - blue_count);
    for (uint32_t slot = begin; slot < end; ++slot) {
      uint32_t dense = plan->kill_tuple(slot);
      if (plan->is_deletion(dense)) {
        set.blues.push_back(plan->deletion_index(dense));
      } else {
        set.reds.push_back(red_of(dense));
      }
    }
    mapping.rbsc.sets.push_back(std::move(set));
  }
  mapping.rbsc.blue_count = mapping.blue_tuples.size();
  mapping.rbsc.red_count = mapping.red_tuples.size();
  return mapping;
}

DeletionSet MapRbscChoiceToDeletion(const VseToRbscMapping& mapping,
                                    const RbscSolution& solution) {
  DeletionSet deletion;
  for (size_t s : solution.chosen) deletion.Insert(mapping.set_tuples[s]);
  return deletion;
}

}  // namespace delprop
