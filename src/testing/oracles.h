#ifndef DELPROP_TESTING_ORACLES_H_
#define DELPROP_TESTING_ORACLES_H_

#include <string>
#include <vector>

#include "dp/side_effect.h"
#include "dp/vse_instance.h"

namespace delprop {
namespace testing {

/// Knobs for the differential oracles. Defaults are sized for the fuzz
/// engine's small instances; the gates exist because two oracles (exact
/// optimum, naive evaluation) are exponential and must be skipped on larger
/// inputs rather than hang the run.
struct OracleOptions {
  /// Node budget handed to ExactSolver / ExactBalancedSolver.
  uint64_t exact_node_budget = 4'000'000;
  /// Skip every exact-optimum-based oracle when the instance has more
  /// deletion candidates than this (branch-and-bound is exponential in it).
  size_t max_candidates_for_exact = 30;
  /// Skip the evaluator crosscheck for a query whose naive enumeration would
  /// examine more row combinations than this.
  size_t max_naive_eval_cost = 300'000;
  /// Absolute slack on every cost comparison (matches the gtest sweeps).
  double cost_epsilon = 1e-9;
  /// Scales the Theorem 4 bound checked by the `ratio-lowdeg` oracle.
  /// 1.0 is the proven bound; tests inject an artificial oracle bug by
  /// tightening it (e.g. 0.0 turns any positive-cost solution into a
  /// violation), which is how the shrinking pipeline is exercised end to end
  /// without needing a real solver bug on hand.
  double lowdeg_ratio_scale = 1.0;
  /// Disables the serialize -> replay -> reserialize oracle (used by the
  /// shrinker, which already operates on scripts).
  bool check_serialization = true;
};

/// One oracle violation. `oracle` is a stable machine-readable name (it keys
/// repro files and summary tallies); `detail` is the human-readable evidence
/// (costs, bounds, solver names).
struct OracleViolation {
  std::string oracle;
  std::string detail;
};

/// Names of all oracles CheckOracles can emit, in presentation order. A
/// violation's `oracle` field is always one of these, possibly suffixed with
/// ":<solver>" or ":<query>" naming the offender.
std::vector<std::string> OracleNames();

/// Runs every differential oracle over the instance and returns the
/// violations (empty = the instance upholds all solver contracts):
///
///  * evaluator-crosscheck — the indexed evaluator agrees with naive
///    cartesian enumeration on every query (answers AND witness sets);
///  * serialize-roundtrip — SerializeToScript -> ScriptSession replay ->
///    SerializeToScript is byte-identical and structure-preserving;
///  * plan-roundtrip — the compiled dense plan (interned bases, witness and
///    kill CSR rows, deletion lists, candidates) re-encodes the instance API
///    exactly; kill rows and KilledBy match ReferenceKillIndex;
///  * plan-greedy — GreedySolver on the compiled plan returns a deletion set
///    byte-identical to the same algorithm replayed with DeletionSet +
///    lineage recomputation and no dense ids;
///  * tracker-reference — a DamageTracker driven through a deterministic
///    delete/undelete/marginal/probe/reset script answers every query as a
///    from-scratch recomputation over the plan's witness rows does;
///  * solver-error:<s> — a solver failed with an unexpected status code
///    (FailedPrecondition refusals and budget exhaustion are expected);
///  * feasible:<s> — a standard-objective solution does not eliminate ΔV
///    (these instances are always feasible: every candidate is deletable);
///  * report-consistency:<s> — a solution's report differs from
///    EvaluateDeletion re-run on its deletion set in any field: id lists
///    and counts exactly, doubles bit for bit (ReportDifference);
///  * cost-vs-exact:<s> — an approximation beat the exact optimum;
///  * dp-tree-exact / dp-tree-balanced-exact — Algorithm 4 must match the
///    exact solver on pivot forests, for both objectives;
///  * ratio-primal-dual — Theorem 3: cost ≤ l · OPT;
///  * ratio-lowdeg — Theorem 4: cost ≤ 2·sqrt(‖V‖) · max(OPT, 1);
///  * ratio-claim1 — Claim 1: rbsc-lowdeg ≤ 2·sqrt(l·‖V‖·log‖ΔV‖)·max(OPT,1);
///  * balanced-cost-vs-exact:<s> — a balanced heuristic beat the balanced
///    optimum.
std::vector<OracleViolation> CheckOracles(const VseInstance& instance,
                                          const OracleOptions& options = {});

/// The first field in which `actual` differs from `expected`, with both
/// values, or "" when the reports are identical. Every field is compared
/// exactly: id lists in order, counts, and doubles bit for bit (an equal
/// value reached by adding in another order is a difference).
std::string ReportDifference(const SideEffectReport& expected,
                             const SideEffectReport& actual);

}  // namespace testing
}  // namespace delprop

#endif  // DELPROP_TESTING_ORACLES_H_
