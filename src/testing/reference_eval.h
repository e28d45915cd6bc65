#ifndef DELPROP_TESTING_REFERENCE_EVAL_H_
#define DELPROP_TESTING_REFERENCE_EVAL_H_

#include <map>
#include <set>
#include <vector>

#include "dp/vse_instance.h"
#include "query/evaluator.h"
#include "query/view.h"
#include "relational/database.h"
#include "relational/deletion_set.h"

namespace delprop {
namespace testing {

/// Canonical (ordered, hence directly comparable) form of a query result:
/// head values -> set of witnesses. Both the naive reference evaluator and
/// the projection of an indexed View use it, so differential checks are a
/// single operator==.
using WitnessSet = std::set<Witness>;
using ResultMap = std::map<Tuple, WitnessSet>;

/// Brute-force reference evaluator: tries every combination of rows for the
/// body atoms (full cartesian enumeration). Exponential in the atom count —
/// use only on instances small enough for the fuzz oracles; callers should
/// gate on NaiveEvaluationCost. Semantically authoritative: the indexed
/// evaluator must produce exactly this map (answers AND witness sets).
ResultMap NaiveEvaluate(const Database& database,
                        const ConjunctiveQuery& query,
                        const DeletionSet* mask = nullptr);

/// Flattens a materialized View into the canonical map form.
ResultMap ViewToResultMap(const View& view);

/// Number of row combinations NaiveEvaluate would enumerate (product of the
/// atoms' relation sizes), saturating at SIZE_MAX. The fuzz oracles skip the
/// crosscheck when this exceeds their budget.
size_t NaiveEvaluationCost(const Database& database,
                           const ConjunctiveQuery& query);

/// Base tuple -> the view tuples having it in some witness, ascending and
/// deduplicated: the contract of the compiled plan's kill rows and of
/// VseInstance::KilledBy, which read those rows.
using KillIndex = std::map<TupleRef, std::vector<ViewTupleId>>;

/// Reference kill index built from the views alone — one naive witness scan
/// in (view, tuple) order, independent of the CSR arrays it checks.
KillIndex ReferenceKillIndex(const VseInstance& instance);

}  // namespace testing
}  // namespace delprop

#endif  // DELPROP_TESTING_REFERENCE_EVAL_H_
