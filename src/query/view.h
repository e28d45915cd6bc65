#ifndef DELPROP_QUERY_VIEW_H_
#define DELPROP_QUERY_VIEW_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "relational/database.h"
#include "relational/deletion_set.h"
#include "query/conjunctive_query.h"

namespace delprop {

/// One witness (the paper's match μ restricted to base tuples): the base
/// tuple matched by each body atom, in atom order.
using Witness = std::vector<TupleRef>;

/// One answer tuple of a materialized view together with its why-provenance.
/// For key-preserving queries each view tuple has exactly one witness — the
/// structural property all of the paper's algorithms rely on.
struct ViewTuple {
  /// The head values μ(y1), ..., μ(yq).
  Tuple values;
  /// All witnesses producing these head values (deduplicated).
  std::vector<Witness> witnesses;
};

/// A materialized query result Q(D) with lineage.
///
/// Head values are indexed by a flat open-addressing table of `uint32_t`
/// tuple indices whose keys are read back from the tuples themselves, so a
/// view holds at most 2^32 - 1 tuples — the same limit PlanCore's
/// `uint32_t` dense ids put on a compiled instance.
class View {
 public:
  View(const ConjunctiveQuery* query, const Database* database)
      : query_(query), database_(database) {}

  /// Adds a witness for head values `values`, creating the view tuple if new.
  /// Returns the view-tuple index.
  size_t AddMatch(const Tuple& values, Witness witness);

  /// Index of the view tuple with head `values`, if present.
  std::optional<size_t> Find(const Tuple& values) const;

  /// In-place witness list of tuple `index` — for VseInstance::ApplyDelta's
  /// incremental maintenance only. Callers must leave the list non-empty or
  /// remove the emptied tuple via RemoveTuples before anything else reads
  /// the view.
  std::vector<Witness>& MutableWitnesses(size_t index) {
    return tuples_[index].witnesses;
  }

  /// Removes the tuples at `sorted_indices` (ascending, distinct), compacting
  /// the survivors in order and re-pointing the head-value index. Preserving
  /// the survivors' relative order keeps dense-id iteration — and every
  /// solver tie-break derived from it — deterministic across deltas.
  void RemoveTuples(const std::vector<size_t>& sorted_indices);

  /// True if view tuple `index` survives deleting `deletion` from the source:
  /// some witness is disjoint from the deletion set.
  bool Survives(size_t index, const DeletionSet& deletion) const;

  /// Renders view tuple `index` as "Q(a, b)".
  std::string RenderTuple(size_t index) const;

  const ConjunctiveQuery& query() const { return *query_; }
  const Database& database() const { return *database_; }
  const ViewTuple& tuple(size_t index) const { return tuples_[index]; }
  size_t size() const { return tuples_.size(); }

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  /// Home slot of `values`; `slots_` must be non-empty.
  size_t HomeSlot(const Tuple& values) const;
  /// The slot holding `values`' tuple index, else the empty slot ending its
  /// probe run; `slots_` must be non-empty.
  size_t Probe(const Tuple& values) const;
  /// Rebuilds `slots_` from `tuples_` at the smallest power-of-two capacity
  /// that keeps the load at most ½ for `size` keys.
  void Rehash(size_t size);
  /// Backward-shift deletion of the entry in `slot`: later entries of its
  /// probe run move up, so no tombstone is left behind. Reads the keys of
  /// the entries it moves, so those tuples must still be in place.
  void EraseSlot(size_t slot);

  const ConjunctiveQuery* query_;
  const Database* database_;
  std::vector<ViewTuple> tuples_;
  /// Linear-probing table of indices into `tuples_`: power-of-two size,
  /// load at most ½, kEmptySlot marks a free slot. Empty until the first
  /// AddMatch.
  std::vector<uint32_t> slots_;
};

}  // namespace delprop

#endif  // DELPROP_QUERY_VIEW_H_
