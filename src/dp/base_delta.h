#ifndef DELPROP_DP_BASE_DELTA_H_
#define DELPROP_DP_BASE_DELTA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "query/conjunctive_query.h"
#include "query/view.h"
#include "relational/database.h"
#include "relational/deletion_set.h"

namespace delprop {

/// One base-tuple insertion of a BaseDelta: a pre-interned tuple destined
/// for `relation`. Use Database::dict() to intern text values first.
struct BaseInsert {
  RelationId relation = 0;
  Tuple tuple;
};

/// A batch of live base-data changes, applied atomically by
/// VseInstance::ApplyDelta. Inserted rows are physically appended to the
/// database; deleted rows join the instance's base mask (row indices stay
/// stable, matching the repo-wide logical-deletion contract). Deletes are
/// validated against the pre-delta database, so a row inserted by this same
/// delta cannot also be deleted by it.
struct BaseDelta {
  std::vector<BaseInsert> inserts;
  std::vector<TupleRef> deletes;

  bool empty() const { return inserts.empty() && deletes.empty(); }
};

/// Knobs for VseInstance::ApplyDelta.
struct ApplyDeltaOptions {
  /// Reject — with InvalidArgument naming the relation/row — any delete of a
  /// base row that still occurs in a witness of a live view tuple. For
  /// callers doing pure base-table cleanup who want proof the views are
  /// untouched; off by default because removing view tuples is the point of
  /// deletion propagation.
  bool forbid_witnessed_deletes = false;
};

/// What one ApplyDelta did: the size of the induced view delta. A delta
/// with any added or removed witness drops the compiled PlanCore.
struct ApplyDeltaReport {
  size_t view_tuples_added = 0;
  size_t view_tuples_removed = 0;
  size_t witnesses_added = 0;
  size_t witnesses_removed = 0;
};

namespace internal {

/// Appends every (head values, witness) match of `query` over D \ mask whose
/// witness uses at least one row with index ≥ first_new_row[relation] — i.e.
/// exactly the matches created by appending those rows. Each new witness is
/// emitted once (canonical first-new-atom decomposition: the earliest atom
/// bound to a new row is pinned, earlier atoms range over old rows only), in
/// deterministic (pivot atom, pivot row, backtracking) order. The join uses
/// no index: every atom except the pivot scans all rows of its relation per
/// partial match, so atoms before the pivot enumerate their whole old-row
/// join. `first_new_row` must have one entry per relation.
Status CollectDeltaMatches(const Database& database,
                           const ConjunctiveQuery& query,
                           const DeletionSet& mask,
                           const std::vector<uint32_t>& first_new_row,
                           std::vector<std::pair<Tuple, Witness>>* out);

}  // namespace internal
}  // namespace delprop

#endif  // DELPROP_DP_BASE_DELTA_H_
