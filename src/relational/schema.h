#ifndef DELPROP_RELATIONAL_SCHEMA_H_
#define DELPROP_RELATIONAL_SCHEMA_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/status.h"

namespace delprop {

/// Dense id of a relation symbol within a Schema.
using RelationId = uint32_t;

/// Declaration of one relation symbol: name, arity, and its key — the set of
/// key attribute positions (the paper requires every relation to have a key
/// with at least one position).
struct RelationSchema {
  std::string name;
  size_t arity = 0;
  /// Sorted, distinct positions in [0, arity) forming the key.
  std::vector<size_t> key_positions;

  /// Optional attribute names, one per position; empty means unnamed
  /// (rendered as "a0", "a1", ... by printers).
  std::vector<std::string> attribute_names;

  /// True if `position` is part of the key.
  bool IsKeyPosition(size_t position) const;
};

/// A finite sequence of distinct relation symbols (the paper's `S`).
class Schema {
 public:
  /// Declares a relation. `key_positions` must be non-empty, distinct, and
  /// within [0, arity). Fails with AlreadyExists on duplicate names.
  Result<RelationId> AddRelation(std::string_view name, size_t arity,
                                 std::vector<size_t> key_positions);

  /// As above with explicit attribute names (size must equal arity).
  Result<RelationId> AddRelationNamed(std::string_view name,
                                      std::vector<std::string> attribute_names,
                                      std::vector<size_t> key_positions);

  /// Looks a relation up by name.
  std::optional<RelationId> FindRelation(std::string_view name) const;

  /// The returned reference stays valid across later AddRelation calls
  /// (Relation instances hold on to it).
  const RelationSchema& relation(RelationId id) const {
    return *relations_[id];
  }
  size_t relation_count() const { return relations_.size(); }

 private:
  // unique_ptr keeps RelationSchema addresses stable across vector growth.
  std::vector<std::unique_ptr<RelationSchema>> relations_;
  std::unordered_map<std::string, RelationId, StringHash, std::equal_to<>>
      ids_by_name_;
};

}  // namespace delprop

#endif  // DELPROP_RELATIONAL_SCHEMA_H_
