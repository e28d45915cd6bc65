#ifndef DELPROP_QUERY_CONJUNCTIVE_QUERY_H_
#define DELPROP_QUERY_CONJUNCTIVE_QUERY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "query/term.h"
#include "relational/database.h"

namespace delprop {

/// A conjunctive query in the paper's datalog style:
///   Q(y1, ..., yq) :- T1(x1, y1, c1), ..., Tq(xq, yq, cq)
/// Head terms may repeat variables and include constants; every head variable
/// must occur in the body (safety).
class ConjunctiveQuery {
 public:
  /// Creates an empty query named `name`; populate via AddVariable/SetHead/
  /// AddAtom, then Validate.
  explicit ConjunctiveQuery(std::string name) : name_(std::move(name)) {}

  /// Registers (or finds) a variable by name and returns its id. The name
  /// is copied once, when first seen.
  VarId AddVariable(std::string_view var_name);

  /// Appends a term to the head.
  void AddHeadTerm(Term term) { head_.push_back(term); }

  /// Appends a body atom.
  void AddAtom(Atom atom) { atoms_.push_back(std::move(atom)); }

  /// Checks well-formedness against `schema`: atom arities match relation
  /// declarations, the body is non-empty, the head is non-empty (the paper
  /// requires each yi non-empty), and every head variable occurs in the body.
  Status Validate(const Schema& schema) const;

  /// The paper's arity(Q): number of head terms.
  size_t arity() const { return head_.size(); }

  const std::string& name() const { return name_; }
  const std::vector<Term>& head() const { return head_; }
  const std::vector<Atom>& atoms() const { return atoms_; }
  size_t variable_count() const { return var_names_.size(); }
  const std::string& variable_name(VarId var) const {
    return var_names_[var];
  }

  /// True if `var` occurs in some head position.
  bool IsHeadVariable(VarId var) const;

  /// Renders the query in datalog syntax against `schema` and `dict`.
  std::string ToString(const Schema& schema,
                       const ValueDictionary& dict) const;

 private:
  static constexpr VarId kNoVar = UINT32_MAX;

  /// Rebuilds `var_slots_` at the smallest power-of-two capacity that keeps
  /// the load at most ½ for `size` names.
  void RehashVariables(size_t size);

  std::string name_;
  std::vector<Term> head_;
  std::vector<Atom> atoms_;
  std::vector<std::string> var_names_;
  /// Linear-probing table of VarIds whose keys are read back from
  /// `var_names_` (as View does for head values): power-of-two size, load
  /// at most ½, kNoVar marks a free slot. Empty until the first variable.
  std::vector<VarId> var_slots_;
};

}  // namespace delprop

#endif  // DELPROP_QUERY_CONJUNCTIVE_QUERY_H_
