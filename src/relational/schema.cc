#include "relational/schema.h"

#include <algorithm>

namespace delprop {

bool RelationSchema::IsKeyPosition(size_t position) const {
  return std::binary_search(key_positions.begin(), key_positions.end(),
                            position);
}

Result<RelationId> Schema::AddRelation(std::string_view name, size_t arity,
                                       std::vector<size_t> key_positions) {
  if (arity == 0) {
    return Status::InvalidArgument("relation '" + std::string(name) +
                                   "' must have arity > 0");
  }
  if (key_positions.empty()) {
    return Status::InvalidArgument(
        "relation '" + std::string(name) +
        "' must have a key with at least one position");
  }
  std::sort(key_positions.begin(), key_positions.end());
  if (std::adjacent_find(key_positions.begin(), key_positions.end()) !=
      key_positions.end()) {
    return Status::InvalidArgument("duplicate key position in relation '" +
                                   std::string(name) + "'");
  }
  if (key_positions.back() >= arity) {
    return Status::InvalidArgument("key position out of range in relation '" +
                                   std::string(name) + "'");
  }
  if (ids_by_name_.count(name) != 0) {
    return Status::AlreadyExists("relation '" + std::string(name) +
                                 "' already declared");
  }
  RelationId id = static_cast<RelationId>(relations_.size());
  auto rel = std::make_unique<RelationSchema>();
  rel->name = std::string(name);
  rel->arity = arity;
  rel->key_positions = std::move(key_positions);
  relations_.push_back(std::move(rel));
  ids_by_name_.emplace(std::string(name), id);
  return id;
}

Result<RelationId> Schema::AddRelationNamed(
    std::string_view name, std::vector<std::string> attribute_names,
    std::vector<size_t> key_positions) {
  Result<RelationId> id =
      AddRelation(name, attribute_names.size(), std::move(key_positions));
  if (!id.ok()) return id;
  relations_[*id]->attribute_names = std::move(attribute_names);
  return id;
}

std::optional<RelationId> Schema::FindRelation(std::string_view name) const {
  auto it = ids_by_name_.find(name);
  if (it == ids_by_name_.end()) return std::nullopt;
  return it->second;
}

}  // namespace delprop
