#include "reductions/balanced_to_pnpsc.h"

#include "plan/compiled_instance.h"

namespace delprop {

Result<BalancedToPnpscMapping> ReduceBalancedToPnpsc(
    const VseInstance& instance) {
  std::vector<uint32_t> negative_of_tuple;
  return ReduceBalancedToPnpsc(instance, negative_of_tuple);
}

Result<BalancedToPnpscMapping> ReduceBalancedToPnpsc(
    const VseInstance& instance, std::vector<uint32_t>& negative_of_tuple) {
  if (instance.TotalDeletionTuples() == 0) {
    return Status::FailedPrecondition("no view deletions marked");
  }
  std::shared_ptr<const CompiledInstance> plan = instance.compiled();
  if (negative_of_tuple.size() != plan->tuple_count()) {
    negative_of_tuple.assign(plan->tuple_count(), CompiledInstance::kNpos);
  }
  BalancedToPnpscMapping mapping;
  mapping.set_tuples.reserve(plan->candidate_bases().size());
  for (uint32_t base : plan->candidate_bases()) {
    mapping.set_tuples.push_back(plan->base_ref(base));
  }

  mapping.positive_tuples = instance.deletion_tuples();
  mapping.pnpsc.positive_weights.reserve(mapping.positive_tuples.size());
  for (uint32_t dense : plan->deletion_dense()) {
    mapping.pnpsc.positive_weights.push_back(plan->weight(dense));
  }

  // Negative ids assigned lazily on first touch, through the caller's
  // all-kNpos per-tuple array.
  auto negative_of = [&](uint32_t dense) {
    if (negative_of_tuple[dense] == CompiledInstance::kNpos) {
      negative_of_tuple[dense] =
          static_cast<uint32_t>(mapping.negative_tuples.size());
      // Lazy first-touch interning: the negative universe is discovered
      // during this scan, unknown until the reduction finishes.
      // delprop-lint: hot-path-allocation-ok amortized interning, see above
      mapping.negative_tuples.push_back(plan->IdOf(dense));
      // delprop-lint: hot-path-allocation-ok amortized interning, see above
      mapping.pnpsc.negative_weights.push_back(plan->weight(dense));
    }
    return negative_of_tuple[dense];
  };

  mapping.pnpsc.sets.reserve(plan->candidate_bases().size());
  for (uint32_t base : plan->candidate_bases()) {
    PnpscInstance::Set set;
    // Count first: the positive/negative lists partition the kill row and
    // are retained in the mapping for the whole solve. The count reads the
    // overlay's per-tuple ΔV marks; the occurrence row bounds the negatives
    // (exactly, when every tuple has one witness).
    uint32_t positive_count = plan->KillRowDeletionCount(base);
    set.positives.reserve(positive_count);
    set.negatives.reserve(plan->occ_end(base) - plan->occ_begin(base) -
                          positive_count);
    plan->ForEachKilled(base, [&](uint32_t dense) {
      if (plan->is_deletion(dense)) {
        set.positives.push_back(plan->deletion_index(dense));
      } else {
        set.negatives.push_back(negative_of(dense));
      }
    });
    mapping.pnpsc.sets.push_back(std::move(set));
  }
  // Hand the scratch back all-kNpos: clear exactly the ids set above.
  for (const ViewTupleId& negative : mapping.negative_tuples) {
    negative_of_tuple[plan->DenseOf(negative)] = CompiledInstance::kNpos;
  }
  mapping.pnpsc.positive_count = mapping.positive_tuples.size();
  mapping.pnpsc.negative_count = mapping.negative_tuples.size();
  return mapping;
}

DeletionSet MapPnpscChoiceToDeletion(const BalancedToPnpscMapping& mapping,
                                     const PnpscSolution& solution) {
  DeletionSet deletion;
  for (size_t s : solution.chosen) deletion.Insert(mapping.set_tuples[s]);
  return deletion;
}

}  // namespace delprop
