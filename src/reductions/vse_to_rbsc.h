#ifndef DELPROP_REDUCTIONS_VSE_TO_RBSC_H_
#define DELPROP_REDUCTIONS_VSE_TO_RBSC_H_

#include <cstdint>
#include <vector>

#include "dp/vse_instance.h"
#include "relational/deletion_set.h"
#include "setcover/red_blue.h"

namespace delprop {

/// The forward reduction of Claim 1: view side-effect → Red-Blue Set Cover.
///  * one RBSC set per deletion-candidate base tuple (tuples in some ΔV
///    witness — deleting anything else is pure damage);
///  * one blue element per ΔV tuple;
///  * one red element per preserved view tuple that contains a candidate
///    tuple (weights transferred as-is);
///  * set(t) = { view tuples whose witness contains t }.
/// For key-preserving queries (unique witnesses) the mapping preserves
/// feasibility and cost exactly; for general CQs it is conservative (a red
/// counted as covered may in fact survive through another witness).
struct VseToRbscMapping {
  RbscInstance rbsc;
  /// RBSC set index -> candidate base tuple.
  std::vector<TupleRef> set_tuples;
  /// Red element id -> preserved view tuple.
  std::vector<ViewTupleId> red_tuples;
  /// Blue element id -> ΔV view tuple.
  std::vector<ViewTupleId> blue_tuples;
};

/// Builds the reduction. Fails if the instance has no marked deletions.
/// `red_of_tuple` is per-view-tuple scratch the caller keeps across calls:
/// every entry is kNpos on entry and again on return (it is refilled only
/// when its size differs from the instance's tuple count), so a call costs
/// O(Σ candidate kill rows), not O(‖V‖).
Result<VseToRbscMapping> ReduceVseToRbsc(const VseInstance& instance,
                                         std::vector<uint32_t>& red_of_tuple);

/// The same reduction over a scratch array of its own.
Result<VseToRbscMapping> ReduceVseToRbsc(const VseInstance& instance);

/// Maps chosen RBSC sets back to a source deletion ΔD.
DeletionSet MapRbscChoiceToDeletion(const VseToRbscMapping& mapping,
                                    const RbscSolution& solution);

}  // namespace delprop

#endif  // DELPROP_REDUCTIONS_VSE_TO_RBSC_H_
