#ifndef DELPROP_ILP_COVERING_MODEL_H_
#define DELPROP_ILP_COVERING_MODEL_H_

#include <cstdint>
#include <vector>

#include "plan/compiled_instance.h"

namespace delprop {

/// The 0/1 covering ILP behind view side-effect deletion propagation, read
/// straight off a CompiledInstance's CSR arrays:
///
///   variables    x_b ∈ {0,1}   one per candidate base tuple b
///   constraints  per ΔV tuple t and witness w of t: Σ_{b ∈ w} x_b ≥ 1
///                (every witness of every ΔV tuple must lose a member)
///   objective    Σ_t' weight(t') · [t' killed by x]   (standard), or
///                Σ killed preserved + Σ surviving ΔV  (balanced)
///
/// The objective is not a linear function of x (a preserved tuple dies only
/// when ALL of its witnesses are hit), so the solver works on the instance
/// directly through a DamageTracker rather than on a matrix. What this model
/// contributes is the *decomposition*: two candidates interact only when
/// they co-occur in the constraint row or objective term of the same view
/// tuple, so the connected components of that co-occurrence relation are
/// independent subproblems whose optima (and bounds) add up. Components are
/// found by union-find over the candidate bases:
///
///   * every ΔV tuple unions the members of all of its witnesses (they share
///     constraint rows);
///   * every *killable* preserved tuple — one where each witness holds at
///     least one candidate, so a candidate deletion can actually kill it —
///     unions its candidate members (they share an objective term). A
///     preserved tuple with a candidate-free witness can never die and
///     couples nothing.
///
/// A killable preserved tuple has a candidate in every witness, so it lies
/// in that candidate's kill row: Decompose() walks the candidates' kill rows
/// (CompiledInstance::ForEachKilled) instead of every view tuple, and costs
/// O(ΔV witness members + Σ candidate occurrence rows), not O(‖V‖). All
/// storage is reusable: the per-base and per-tuple arrays are refilled only
/// when the plan's dimensions change, and a call otherwise resets exactly
/// the entries it set, so a pooled solver reaches zero steady-state
/// allocations.
class CoveringModel {
 public:
  /// Decomposes `plan`'s candidate bases into independent components.
  /// Components, their base lists, and their ΔV tuple lists are all ordered
  /// deterministically (by first appearance over ascending candidate id /
  /// ascending dense tuple id).
  void Decompose(const CompiledInstance& plan);

  /// View tuples the last Decompose() visited: every ΔV tuple plus each
  /// preserved tuple in some candidate's kill row, once. Deterministic — a
  /// function of the request's neighbourhood, not of the instance's size.
  uint64_t tuples_visited() const { return tuples_visited_; }

  uint32_t component_count() const {
    return static_cast<uint32_t>(comp_base_first_.empty()
                                     ? 0
                                     : comp_base_first_.size() - 1);
  }

  /// Candidate bases of component `c`, ascending dense base id.
  const uint32_t* comp_bases_begin(uint32_t c) const {
    return comp_bases_.data() + comp_base_first_[c];
  }
  const uint32_t* comp_bases_end(uint32_t c) const {
    return comp_bases_.data() + comp_base_first_[c + 1];
  }
  uint32_t comp_base_count(uint32_t c) const {
    return comp_base_first_[c + 1] - comp_base_first_[c];
  }

  /// ΔV tuples of component `c`, ascending dense tuple id.
  const uint32_t* comp_tuples_begin(uint32_t c) const {
    return comp_tuples_.data() + comp_tuple_first_[c];
  }
  const uint32_t* comp_tuples_end(uint32_t c) const {
    return comp_tuples_.data() + comp_tuple_first_[c + 1];
  }

  /// Σ weight over component `c`'s ΔV tuples (the balanced objective's cost
  /// of deleting nothing in the component).
  double comp_delta_weight(uint32_t c) const { return comp_delta_weight_[c]; }

  /// True when some ΔV tuple has a witness with no members at all: no
  /// deletion can hit that witness, so the standard objective is infeasible.
  bool standard_infeasible() const { return standard_infeasible_; }

  /// Σ weight of ΔV tuples belonging to no component (no candidate member in
  /// any witness — only possible alongside standard_infeasible()). They
  /// survive any deletion: a constant addend for the balanced objective and
  /// its lower bound.
  double orphan_delta_weight() const { return orphan_delta_weight_; }

 private:
  uint32_t Find(uint32_t base);
  void Union(uint32_t a, uint32_t b);

  // Component CSR: comp_base_first_ has component_count()+1 entries.
  std::vector<uint32_t> comp_base_first_;
  std::vector<uint32_t> comp_bases_;
  std::vector<uint32_t> comp_tuple_first_;
  std::vector<uint32_t> comp_tuples_;
  std::vector<double> comp_delta_weight_;
  bool standard_infeasible_ = false;
  double orphan_delta_weight_ = 0.0;
  uint64_t tuples_visited_ = 0;

  // Union-find over dense base ids; kNpos marks non-candidates. Between
  // calls every entry is kNpos: Decompose resets exactly the candidates it
  // set before it returns.
  std::vector<uint32_t> parent_;
  // Per base: component index while Decompose runs (kNpos between calls,
  // like parent_).
  std::vector<uint32_t> comp_of_base_;
  // Per tuple: the epoch of the last call that visited it, so each preserved
  // tuple in several kill rows is visited once. Refilled when the epoch
  // wraps or the tuple count changes.
  std::vector<uint32_t> visit_stamp_;
  uint32_t visit_epoch_ = 0;
  // Per component: fill cursor during the bucketing passes.
  std::vector<uint32_t> cursor_;
};

}  // namespace delprop

#endif  // DELPROP_ILP_COVERING_MODEL_H_
