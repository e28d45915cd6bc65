#include "query/conjunctive_query.h"

#include <algorithm>

#include "common/hash.h"

namespace delprop {

namespace {

// Smallest table RehashVariables ever allocates.
constexpr size_t kMinVarSlots = 8;

}  // namespace

VarId ConjunctiveQuery::AddVariable(std::string_view var_name) {
  // Grow before probing, so the probed slot can take a new name.
  if (2 * (var_names_.size() + 1) > var_slots_.size()) {
    RehashVariables(var_names_.size() + 1);
  }
  size_t mask = var_slots_.size() - 1;
  size_t slot = StringHash()(var_name) & mask;
  while (var_slots_[slot] != kNoVar) {
    if (var_names_[var_slots_[slot]] == var_name) return var_slots_[slot];
    slot = (slot + 1) & mask;
  }
  VarId id = static_cast<VarId>(var_names_.size());
  var_names_.emplace_back(var_name);
  var_slots_[slot] = id;
  return id;
}

void ConjunctiveQuery::RehashVariables(size_t size) {
  size_t capacity = kMinVarSlots;
  while (capacity < 2 * size) capacity *= 2;
  var_slots_.assign(capacity, kNoVar);
  size_t mask = capacity - 1;
  for (VarId id = 0; id < var_names_.size(); ++id) {
    size_t slot = StringHash()(var_names_[id]) & mask;
    while (var_slots_[slot] != kNoVar) slot = (slot + 1) & mask;
    var_slots_[slot] = id;
  }
}

Status ConjunctiveQuery::Validate(const Schema& schema) const {
  if (atoms_.empty()) {
    return Status::InvalidArgument("query '" + name_ + "' has an empty body");
  }
  if (head_.empty()) {
    return Status::InvalidArgument("query '" + name_ + "' has an empty head");
  }
  std::vector<bool> in_body(var_names_.size(), false);
  for (const Atom& atom : atoms_) {
    if (atom.relation >= schema.relation_count()) {
      return Status::InvalidArgument("query '" + name_ +
                                     "' references an undeclared relation");
    }
    const RelationSchema& rel = schema.relation(atom.relation);
    if (atom.terms.size() != rel.arity) {
      return Status::InvalidArgument("query '" + name_ + "' atom over '" +
                                     rel.name + "' has wrong arity");
    }
    for (const Term& t : atom.terms) {
      if (t.is_variable()) {
        if (t.id >= var_names_.size()) {
          return Status::Internal("unregistered variable id in query '" +
                                  name_ + "'");
        }
        in_body[t.id] = true;
      }
    }
  }
  for (const Term& t : head_) {
    if (t.is_variable() && !in_body[t.id]) {
      return Status::InvalidArgument("head variable '" + var_names_[t.id] +
                                     "' of query '" + name_ +
                                     "' does not occur in the body");
    }
  }
  return Status::Ok();
}

bool ConjunctiveQuery::IsHeadVariable(VarId var) const {
  return std::any_of(head_.begin(), head_.end(), [var](const Term& t) {
    return t.is_variable() && t.id == var;
  });
}

std::string ConjunctiveQuery::ToString(const Schema& schema,
                                       const ValueDictionary& dict) const {
  auto render_term = [&](const Term& t) -> std::string {
    if (t.is_variable()) return var_names_[t.id];
    return "'" + dict.Text(t.id) + "'";
  };
  std::string out = name_;
  out += '(';
  for (size_t i = 0; i < head_.size(); ++i) {
    if (i > 0) out += ", ";
    out += render_term(head_[i]);
  }
  out += ") :- ";
  for (size_t a = 0; a < atoms_.size(); ++a) {
    if (a > 0) out += ", ";
    out += schema.relation(atoms_[a].relation).name;
    out += '(';
    for (size_t i = 0; i < atoms_[a].terms.size(); ++i) {
      if (i > 0) out += ", ";
      out += render_term(atoms_[a].terms[i]);
    }
    out += ')';
  }
  return out;
}

}  // namespace delprop
