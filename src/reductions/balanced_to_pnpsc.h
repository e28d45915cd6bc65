#ifndef DELPROP_REDUCTIONS_BALANCED_TO_PNPSC_H_
#define DELPROP_REDUCTIONS_BALANCED_TO_PNPSC_H_

#include <cstdint>
#include <vector>

#include "dp/vse_instance.h"
#include "relational/deletion_set.h"
#include "setcover/pnpsc.h"

namespace delprop {

/// The forward reduction behind Lemma 1: balanced deletion propagation →
/// Positive-Negative Partial Set Cover.
///  * one ±PSC set per candidate base tuple;
///  * positives = ΔV tuples (weight transferred), negatives = preserved view
///    tuples touched by a candidate (weight transferred);
///  * set(t) = view tuples whose witness contains t.
/// Exact for key-preserving queries (unique witnesses), conservative
/// otherwise.
struct BalancedToPnpscMapping {
  PnpscInstance pnpsc;
  std::vector<TupleRef> set_tuples;
  std::vector<ViewTupleId> positive_tuples;
  std::vector<ViewTupleId> negative_tuples;
};

/// Builds the reduction. Fails if the instance has no marked deletions.
/// `negative_of_tuple` is per-view-tuple scratch the caller keeps across
/// calls, under the contract of ReduceVseToRbsc's `red_of_tuple`: all kNpos
/// on entry and on return, refilled only when the tuple count changes.
Result<BalancedToPnpscMapping> ReduceBalancedToPnpsc(
    const VseInstance& instance, std::vector<uint32_t>& negative_of_tuple);

/// The same reduction over a scratch array of its own.
Result<BalancedToPnpscMapping> ReduceBalancedToPnpsc(
    const VseInstance& instance);

/// Maps chosen ±PSC sets back to a source deletion ΔD.
DeletionSet MapPnpscChoiceToDeletion(const BalancedToPnpscMapping& mapping,
                                     const PnpscSolution& solution);

}  // namespace delprop

#endif  // DELPROP_REDUCTIONS_BALANCED_TO_PNPSC_H_
