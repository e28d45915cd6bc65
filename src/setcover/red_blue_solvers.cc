#include "setcover/red_blue_solvers.h"

#include <algorithm>
#include <limits>
#include <set>
#include <span>

namespace delprop {
namespace {

/// Element → sets incidence of one side (blue or red) in CSR form: the sets
/// listing element e are sets_[first_[e] .. first_[e + 1]), ascending. Built
/// in two passes (count, then fill in ascending set order), so an element a
/// set lists twice appears twice, as its occurrences do: incremental
/// new-blues counts then match the reference scan, which also counts
/// occurrences.
class ElementSets {
 public:
  ElementSets(const RbscInstance& instance,
              std::vector<size_t> RbscInstance::Set::*side,
              size_t element_count)
      : first_(element_count + 1, 0) {
    for (const RbscInstance::Set& set : instance.sets) {
      for (size_t e : set.*side) ++first_[e + 1];
    }
    for (size_t e = 0; e < element_count; ++e) first_[e + 1] += first_[e];
    sets_.resize(first_[element_count]);
    std::vector<size_t> cursor(first_.begin(), first_.end() - 1);
    for (size_t s = 0; s < instance.sets.size(); ++s) {
      for (size_t e : instance.sets[s].*side) sets_[cursor[e]++] = s;
    }
  }

  std::span<const size_t> of(size_t element) const {
    return std::span<const size_t>(sets_).subspan(
        first_[element], first_[element + 1] - first_[element]);
  }

 private:
  std::vector<size_t> first_;
  std::vector<size_t> sets_;
};

/// Both sides' incidence, built once per instance and shared across the
/// per-threshold greedy runs of the low-degree solver.
struct RbscIncidence {
  ElementSets blue_sets;
  ElementSets red_sets;

  explicit RbscIncidence(const RbscInstance& instance)
      : blue_sets(instance, &RbscInstance::Set::blues, instance.blue_count),
        red_sets(instance, &RbscInstance::Set::reds, instance.red_count) {}
};

/// Greedy over the subset of sets with `allowed[s]` true. Returns nullopt if
/// the allowed sets cannot cover all blues.
///
/// Picks the same set every iteration as the original full rescan, but keeps
/// per-set state incrementally instead of recomputing it for every set on
/// every pick:
///  - `new_blues[s]` is an integer, decremented through the blue→sets
///    incidence when a blue gets covered — exact, no drift.
///  - `marginal[s]` is a float and is NOT adjusted incrementally (subtracting
///    covered red weights would reorder the summation and change low bits on
///    weighted instances). Instead a set is marked dirty when one of its reds
///    gets covered, and dirty marginals are recomputed with the reference
///    loop — same terms, same order, bit-identical.
///  - `live` holds the allowed sets that can still cover something, in
///    ascending index order (stable compaction), so the strict-< /
///    larger-new-blues tie-break sees candidates in the reference order.
std::optional<RbscSolution> GreedyOverAllowed(const RbscInstance& instance,
                                              const RbscIncidence& incidence,
                                              const std::vector<bool>& allowed) {
  std::vector<bool> blue_covered(instance.blue_count, false);
  std::vector<bool> red_covered(instance.red_count, false);
  size_t blues_left = instance.blue_count;
  RbscSolution solution;

  std::vector<size_t> new_blues(instance.sets.size(), 0);
  std::vector<double> marginal(instance.sets.size(), 0.0);
  std::vector<bool> dirty(instance.sets.size(), false);
  auto recompute_marginal = [&](size_t s) {
    double m = 0.0;
    for (size_t r : instance.sets[s].reds) {
      if (!red_covered[r]) m += instance.RedWeight(r);
    }
    marginal[s] = m;
  };
  std::vector<size_t> live;
  live.reserve(instance.sets.size());
  for (size_t s = 0; s < instance.sets.size(); ++s) {
    // Counted for every set — incidence decrements touch disallowed sets too.
    new_blues[s] = instance.sets[s].blues.size();
    if (!allowed[s] || new_blues[s] == 0) continue;
    recompute_marginal(s);
    live.push_back(s);
  }

  while (blues_left > 0) {
    size_t best_set = instance.sets.size();
    double best_score = std::numeric_limits<double>::infinity();
    size_t best_new_blues = 0;
    size_t kept = 0;
    for (size_t s : live) {
      if (new_blues[s] == 0) continue;  // exhausted for good
      live[kept++] = s;
      if (dirty[s]) {
        recompute_marginal(s);
        dirty[s] = false;
      }
      double score = marginal[s] / static_cast<double>(new_blues[s]);
      if (score < best_score ||
          (score == best_score && new_blues[s] > best_new_blues)) {
        best_score = score;
        best_set = s;
        best_new_blues = new_blues[s];
      }
    }
    live.resize(kept);
    if (best_set == instance.sets.size()) return std::nullopt;
    solution.chosen.push_back(best_set);
    for (size_t b : instance.sets[best_set].blues) {
      if (!blue_covered[b]) {
        blue_covered[b] = true;
        --blues_left;
        for (size_t s : incidence.blue_sets.of(b)) --new_blues[s];
      }
    }
    for (size_t r : instance.sets[best_set].reds) {
      if (!red_covered[r]) {
        red_covered[r] = true;
        for (size_t s : incidence.red_sets.of(r)) dirty[s] = true;
      }
    }
  }
  return solution;
}

}  // namespace

Result<RbscSolution> SolveRbscGreedy(const RbscInstance& instance) {
  if (Status s = instance.Validate(); !s.ok()) return s;
  RbscIncidence incidence(instance);
  std::vector<bool> allowed(instance.sets.size(), true);
  std::optional<RbscSolution> solution =
      GreedyOverAllowed(instance, incidence, allowed);
  if (!solution.has_value()) {
    return Status::Infeasible("blue elements cannot all be covered");
  }
  return *solution;
}

Result<RbscSolution> SolveRbscLowDegTwo(const RbscInstance& instance) {
  if (Status s = instance.Validate(); !s.ok()) return s;
  // Candidate thresholds: the distinct red-degrees of the sets.
  std::set<size_t> thresholds;
  for (const RbscInstance::Set& set : instance.sets) {
    thresholds.insert(set.reds.size());
  }
  if (thresholds.empty()) {
    return Status::Infeasible("empty set collection");
  }

  std::optional<RbscSolution> best;
  double best_cost = std::numeric_limits<double>::infinity();
  RbscIncidence incidence(instance);
  std::vector<bool> allowed(instance.sets.size());
  for (size_t tau : thresholds) {
    for (size_t s = 0; s < instance.sets.size(); ++s) {
      allowed[s] = instance.sets[s].reds.size() <= tau;
    }
    std::optional<RbscSolution> solution =
        GreedyOverAllowed(instance, incidence, allowed);
    if (!solution.has_value()) continue;
    double cost = RbscCost(instance, *solution);
    if (!best.has_value() || cost < best_cost) {
      best = std::move(solution);
      best_cost = cost;
    }
  }
  if (!best.has_value()) {
    return Status::Infeasible("blue elements cannot all be covered");
  }
  return *best;
}

namespace {

class ExactSearch {
 public:
  ExactSearch(const RbscInstance& instance, uint64_t node_budget)
      : instance_(instance),
        budget_(node_budget),
        sets_with_blue_(instance, &RbscInstance::Set::blues,
                        instance.blue_count) {
    blue_covered_by_.assign(instance.blue_count, 0);
    red_covered_by_.assign(instance.red_count, 0);
  }

  // Seeds the incumbent (upper bound) with a known feasible solution.
  void Seed(const RbscSolution& solution, double cost) {
    best_ = solution;
    best_cost_ = cost;
  }

  bool Run() {
    Descend(0.0);
    return nodes_ <= budget_;
  }

  const std::optional<RbscSolution>& best() const { return best_; }

 private:
  void Descend(double cost) {
    if (++nodes_ > budget_) return;
    if (cost >= best_cost_) return;
    // Pick the uncovered blue with the fewest candidate sets.
    size_t pick = instance_.blue_count;
    size_t pick_options = std::numeric_limits<size_t>::max();
    for (size_t b = 0; b < instance_.blue_count; ++b) {
      if (blue_covered_by_[b] > 0) continue;
      size_t options = sets_with_blue_.of(b).size();
      if (options < pick_options) {
        pick = b;
        pick_options = options;
      }
    }
    if (pick == instance_.blue_count) {
      // Feasible; strictly better than the incumbent by the prune above.
      best_cost_ = cost;
      best_ = RbscSolution{chosen_};
      return;
    }
    if (pick_options == 0) return;  // Dead end.
    for (size_t s : sets_with_blue_.of(pick)) {
      double marginal = 0.0;
      for (size_t r : instance_.sets[s].reds) {
        if (red_covered_by_[r] == 0) marginal += instance_.RedWeight(r);
      }
      Apply(s);
      chosen_.push_back(s);
      Descend(cost + marginal);
      chosen_.pop_back();
      Unapply(s);
      if (nodes_ > budget_) return;
    }
  }

  void Apply(size_t s) {
    for (size_t b : instance_.sets[s].blues) ++blue_covered_by_[b];
    for (size_t r : instance_.sets[s].reds) ++red_covered_by_[r];
  }
  void Unapply(size_t s) {
    for (size_t b : instance_.sets[s].blues) --blue_covered_by_[b];
    for (size_t r : instance_.sets[s].reds) --red_covered_by_[r];
  }

  const RbscInstance& instance_;
  uint64_t budget_;
  uint64_t nodes_ = 0;
  ElementSets sets_with_blue_;
  std::vector<uint32_t> blue_covered_by_;
  std::vector<uint32_t> red_covered_by_;
  std::vector<size_t> chosen_;
  std::optional<RbscSolution> best_;
  double best_cost_ = std::numeric_limits<double>::infinity();
};

}  // namespace

Result<RbscSolution> SolveRbscExact(const RbscInstance& instance,
                                    const RbscExactOptions& options) {
  if (Status s = instance.Validate(); !s.ok()) return s;
  ExactSearch search(instance, options.node_budget);
  Result<RbscSolution> greedy = SolveRbscGreedy(instance);
  if (greedy.ok()) {
    search.Seed(*greedy, RbscCost(instance, *greedy));
  }
  bool complete = search.Run();
  if (!complete) {
    return Status::FailedPrecondition("exact RBSC search exceeded node budget");
  }
  if (!search.best().has_value()) {
    return Status::Infeasible("blue elements cannot all be covered");
  }
  return *search.best();
}

}  // namespace delprop
