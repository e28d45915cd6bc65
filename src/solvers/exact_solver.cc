#include "solvers/exact_solver.h"

#include <limits>
#include <optional>

#include "solvers/damage_tracker.h"
#include "solvers/greedy_solver.h"
#include "solvers/scratch_pool.h"

namespace delprop {
namespace {

/// Branch pick for the standard search: the first witness — scanning
/// unkilled ΔV tuples ascending, then their unhit witnesses ascending —
/// whose raw member count equals the minimum over that whole scan, or
/// CompiledInstance::kNpos when every ΔV tuple is killed. Raw member lists
/// keep self-join duplicates, so node counts match the legacy search.
uint32_t SelectBranchWitness(const DamageTracker& tracker) {
  const CompiledInstance& plan = tracker.plan();
  const uint32_t static_min = plan.min_witness_raw_members();
  uint32_t best = CompiledInstance::kNpos;
  uint32_t best_size = std::numeric_limits<uint32_t>::max();
  for (uint32_t dense : plan.deletion_dense()) {
    if (tracker.IsKilledDense(dense)) continue;
    uint32_t wend = plan.tuple_witness_end(dense);
    for (uint32_t w = plan.tuple_witness_begin(dense); w < wend; ++w) {
      if (tracker.witness_hits(w) != 0) continue;
      uint32_t size = plan.member_end(w) - plan.member_begin(w);
      if (size < best_size) {
        best = w;
        best_size = size;
      }
      // Strict-< first-wins: nothing can displace a static-minimum witness.
      if (best_size == static_min) return best;
    }
  }
  return best;
}

// The searches borrow their tracker (freshly bound to the instance's plan)
// so batched callers can hand in pooled storage; sequential callers pass a
// local one.
class StandardSearch {
 public:
  StandardSearch(const VseInstance& instance, DamageTracker& tracker,
                 uint64_t budget,
                 size_t max_deletions = std::numeric_limits<size_t>::max())
      : instance_(instance),
        tracker_(tracker),
        budget_(budget),
        max_deletions_(max_deletions) {}

  void Seed(DeletionSet deletion, double cost) {
    best_deletion_ = std::move(deletion);
    best_cost_ = cost;
    found_ = true;
  }

  bool Run() {
    Descend();
    return nodes_ <= budget_;
  }

  bool found() const { return found_; }
  const DeletionSet& best_deletion() const { return best_deletion_; }
  double best_cost() const { return best_cost_; }
  uint64_t nodes() const { return nodes_; }

  /// Certified lower bound on the optimum after an incomplete run: every
  /// subtree abandoned by the budget cut has its root's killed-preserved
  /// weight as a valid bound (the killed weight only grows along a branch),
  /// and every other subtree was either explored or pruned at >= best_cost_.
  double CertifiedLowerBound() const {
    return std::min(best_cost_, frontier_low_);
  }

 private:
  // Root-node entry: the legacy per-node prologue. Child entries run the
  // same checks, hoisted into the parent's member loop (Expand) so a child
  // that prunes at its killed-weight check is counted but never pays the
  // delete/undelete pair.
  void Descend() {
    if (++nodes_ > budget_) {
      CutFrontier();
      return;
    }
    if (tracker_.killed_preserved_weight() >= best_cost_) return;
    Expand();
  }

  // Node body, entry checks already passed. Picks the unkilled ΔV tuple and
  // unhit witness with the fewest raw members (SelectBranchWitness);
  // branches on deleting each member. Child entry checks run here in legacy
  // order (count node, budget cut, killed-weight prune) on the tracker's
  // bit-identical KpwAfterDeleteBase probe, so node counts, budget
  // boundaries, prune decisions, and frontier-cut values are all unchanged.
  void Expand() {
    const CompiledInstance& plan = tracker_.plan();
    uint32_t branch_witness = SelectBranchWitness(tracker_);
    if (branch_witness == CompiledInstance::kNpos) {
      // All ΔV tuples killed: feasible leaf, strictly better by the prune.
      best_cost_ = tracker_.killed_preserved_weight();
      best_deletion_ = tracker_.CurrentDeletion();
      found_ = true;
      return;
    }
    if (tracker_.deleted_count() >= max_deletions_) return;  // cap reached
    uint32_t mend = plan.member_end(branch_witness);
    for (uint32_t slot = plan.member_begin(branch_witness); slot < mend;
         ++slot) {
      uint32_t base = plan.member_base(slot);
      if (tracker_.IsDeletedBase(base)) continue;
      if (++nodes_ > budget_) {
        // The legacy child cut saw the post-delete state; then the parent
        // cut saw this node's state after the undelete. Replicate both.
        CutFrontierValue(tracker_.KpwAfterDeleteBase(base));
        CutFrontier();
        return;
      }
      if (tracker_.KpwAfterDeleteBase(base) >= best_cost_) continue;
      tracker_.DeleteBase(base);
      Expand();
      tracker_.UndeleteBase(base);
      if (nodes_ > budget_) {
        CutFrontier();  // untried sibling subtrees root at this node's state
        return;
      }
    }
  }

  void CutFrontier() { CutFrontierValue(tracker_.killed_preserved_weight()); }
  void CutFrontierValue(double kpw) {
    frontier_low_ = std::min(frontier_low_, kpw);
  }

  const VseInstance& instance_;
  DamageTracker& tracker_;
  uint64_t budget_;
  size_t max_deletions_;
  uint64_t nodes_ = 0;
  DeletionSet best_deletion_;
  double best_cost_ = std::numeric_limits<double>::infinity();
  double frontier_low_ = std::numeric_limits<double>::infinity();
  bool found_ = false;
};

}  // namespace

Result<VseSolution> ExactSolver::Solve(const VseInstance& instance) {
  return SolveWith(instance, nullptr);
}

namespace {

/// Stamps a search's optimality certificate onto `solution`: proven-optimal
/// bounds when the search completed, the incumbent plus the strongest
/// certified frontier bound when the node budget cut it short.
void StampGap(VseSolution& solution, double upper, bool complete,
              double incomplete_lower, uint64_t nodes) {
  solution.gap.has_bound = true;
  solution.gap.optimal = complete;
  solution.gap.upper_bound = upper;
  solution.gap.lower_bound = complete ? upper
                                      : std::min(incomplete_lower, upper);
  solution.gap.nodes = nodes;
  solution.gap.budget_hit = !complete;
}

}  // namespace

Result<VseSolution> ExactSolver::SolveWith(const VseInstance& instance,
                                           ScratchPool* scratch) {
  if (instance.TotalDeletionTuples() == 0) {
    VseSolution solution = MakeSolution(instance, DeletionSet(), name());
    StampGap(solution, 0.0, /*complete=*/true, 0.0, 0);
    return solution;
  }
  GreedySolver greedy;
  Result<VseSolution> seed = greedy.SolveWith(instance, scratch);
  // Acquire the search tracker after the greedy seed: the pool holds one
  // tracker, and re-acquiring rebinds it to the freshly-constructed state.
  std::optional<DamageTracker> local;
  if (scratch == nullptr) local.emplace(instance);
  DamageTracker& tracker =
      scratch != nullptr ? *scratch->AcquireTracker(instance) : *local;
  StandardSearch search(instance, tracker, node_budget_);
  if (seed.ok() && seed->Feasible()) {
    search.Seed(seed->deletion, seed->Cost());
  }
  bool complete = search.Run();
  if (!search.found()) {
    if (!complete) {
      return Status::FailedPrecondition(
          "exact search exceeded node budget before finding any feasible "
          "solution");
    }
    return Status::Infeasible("no deletion eliminates all of ΔV");
  }
  // Budget exhaustion with an incumbent in hand is an anytime result, not a
  // failure: return the best feasible solution found with a certified gap.
  VseSolution solution = MakeSolution(instance, search.best_deletion(), name());
  StampGap(solution, search.best_cost(), complete,
           search.CertifiedLowerBound(), search.nodes());
  return solution;
}

Result<VseSolution> BoundedExactSolver::Solve(const VseInstance& instance) {
  if (instance.TotalDeletionTuples() == 0) {
    VseSolution solution = MakeSolution(instance, DeletionSet(), name());
    StampGap(solution, 0.0, /*complete=*/true, 0.0, 0);
    return solution;
  }
  DamageTracker tracker(instance);
  StandardSearch search(instance, tracker, node_budget_, max_deletions_);
  // No greedy seed: the greedy may overshoot the cardinality cap, and a
  // seed above the cap would not be a certificate of feasibility.
  bool complete = search.Run();
  if (!search.found()) {
    if (!complete) {
      return Status::FailedPrecondition(
          "bounded exact search exceeded node budget before finding any "
          "feasible solution");
    }
    return Status::Infeasible(
        "no deletion of at most " + std::to_string(max_deletions_) +
        " tuples eliminates all of ΔV");
  }
  // The gap refers to the cardinality-capped optimum (the solver's own
  // objective domain), not the unconstrained one.
  VseSolution solution = MakeSolution(instance, search.best_deletion(), name());
  StampGap(solution, search.best_cost(), complete,
           search.CertifiedLowerBound(), search.nodes());
  return solution;
}

namespace {

class BalancedSearch {
 public:
  BalancedSearch(const VseInstance& instance, DamageTracker& tracker,
                 uint64_t budget)
      : instance_(instance), tracker_(tracker), budget_(budget) {}

  bool Run() {
    // The empty deletion is always feasible for the balanced objective.
    best_cost_ = tracker_.killed_preserved_weight() +
                 tracker_.surviving_deletion_weight();
    best_deletion_ = DeletionSet();
    Descend(0);
    return nodes_ <= budget_;
  }

  const DeletionSet& best_deletion() const { return best_deletion_; }
  double best_cost() const { return best_cost_; }
  uint64_t nodes() const { return nodes_; }

  /// Certified lower bound after an incomplete run; see StandardSearch.
  /// A subtree's balanced cost is at least its root's killed-preserved
  /// weight (the killed weight is monotone, surviving weight nonnegative).
  double CertifiedLowerBound() const {
    return std::min(best_cost_, frontier_low_);
  }

 private:
  void Descend(size_t index) {
    if (++nodes_ > budget_) {
      CutFrontier();
      return;
    }
    // Killed-preserved weight only grows along a branch.
    if (tracker_.killed_preserved_weight() >= best_cost_) return;
    double cost = tracker_.killed_preserved_weight() +
                  tracker_.surviving_deletion_weight();
    if (cost < best_cost_) {
      best_cost_ = cost;
      best_deletion_ = tracker_.CurrentDeletion();
    }
    const std::vector<uint32_t>& candidates =
        tracker_.plan().candidate_bases();
    if (index == candidates.size()) return;
    // Branch: delete candidate.
    tracker_.DeleteBase(candidates[index]);
    Descend(index + 1);
    tracker_.UndeleteBase(candidates[index]);
    if (nodes_ > budget_) {
      CutFrontier();  // the keep-branch subtree roots at this node's state
      return;
    }
    // Branch: keep candidate.
    Descend(index + 1);
  }

  void CutFrontier() {
    frontier_low_ = std::min(frontier_low_, tracker_.killed_preserved_weight());
  }

  const VseInstance& instance_;
  DamageTracker& tracker_;
  uint64_t budget_;
  uint64_t nodes_ = 0;
  DeletionSet best_deletion_;
  double best_cost_ = std::numeric_limits<double>::infinity();
  double frontier_low_ = std::numeric_limits<double>::infinity();
};

}  // namespace

Result<VseSolution> ExactBalancedSolver::Solve(const VseInstance& instance) {
  return SolveWith(instance, nullptr);
}

Result<VseSolution> ExactBalancedSolver::SolveWith(const VseInstance& instance,
                                                   ScratchPool* scratch) {
  std::optional<DamageTracker> local;
  if (scratch == nullptr) local.emplace(instance);
  DamageTracker& tracker =
      scratch != nullptr ? *scratch->AcquireTracker(instance) : *local;
  BalancedSearch search(instance, tracker, node_budget_);
  // The empty deletion seeds the incumbent, so there is always a feasible
  // best-so-far to return; exhaustion downgrades `optimal`, never the result.
  bool complete = search.Run();
  VseSolution solution = MakeSolution(instance, search.best_deletion(), name());
  StampGap(solution, search.best_cost(), complete,
           search.CertifiedLowerBound(), search.nodes());
  return solution;
}

}  // namespace delprop
