#ifndef DELPROP_DP_SOLVER_H_
#define DELPROP_DP_SOLVER_H_

#include <string>

#include "common/status.h"
#include "dp/solution.h"
#include "dp/vse_instance.h"

namespace delprop {

class ScratchPool;

/// Which objective a solver optimizes.
enum class Objective {
  /// Standard view side-effect: eliminate all of ΔV, minimize the weight of
  /// killed preserved tuples (hard feasibility constraint).
  kStandard,
  /// Balanced deletion propagation: minimize weight(surviving ΔV) +
  /// weight(killed preserved); always feasible.
  kBalanced,
};

/// Interface of all deletion-propagation solvers.
///
/// A solver object may own reusable scratch sized by the instance (the
/// ILP's CoveringModel, the set-cover reductions' per-tuple id arrays), so
/// one object must not serve two threads at once. The engine's workers,
/// RunAll's tasks and the benches each construct their own.
class VseSolver {
 public:
  virtual ~VseSolver() = default;

  /// Short stable identifier ("exact", "rbsc-lowdeg", "primal-dual", ...).
  virtual std::string name() const = 0;

  /// The objective this solver optimizes.
  virtual Objective objective() const { return Objective::kStandard; }

  /// Computes a source deletion for the instance's marked ΔV.
  virtual Result<VseSolution> Solve(const VseInstance& instance) = 0;

  /// Scratch-aware entry point for batched serving (engine/batch_engine.h):
  /// solvers whose per-solve state dominates setup cost (the DamageTracker's
  /// counter/stamp arrays) override this to draw reusable storage from
  /// `scratch` instead of allocating. `scratch` may be null — always valid,
  /// equivalent to Solve — and results are identical with or without it; a
  /// non-null pool must not be used concurrently from another thread. The
  /// default ignores the pool.
  virtual Result<VseSolution> SolveWith(const VseInstance& instance,
                                        ScratchPool* scratch) {
    (void)scratch;
    return Solve(instance);
  }
};

/// Builds a VseSolution for `deletion` (evaluates side effects, stamps the
/// solver name). Used by every solver's final step, and by the engine's
/// memo cache to rebuild a hit's answer from the stored ΔD. The report is
/// built from the request: only ΔV and the kill rows of ΔD's bases are
/// checked, so the cost grows with the request, not the instance. It equals
/// EvaluateDeletion's full scan field for field, doubles bit for bit.
VseSolution MakeSolution(const VseInstance& instance, DeletionSet deletion,
                         std::string solver_name);

namespace internal {

/// How MakeSolution's report puts its candidates in ascending order: by
/// sorting them, or by sweeping per-tuple marks. kAuto (what MakeSolution
/// uses) picks by the request's size against the instance's; the oracles
/// force each way, so both stay checked against EvaluateDeletion.
enum class CandidateOrder { kAuto, kSort, kSweep };

/// The side-effect report MakeSolution attaches to `deletion`.
SideEffectReport RequestReport(const VseInstance& instance,
                               const DeletionSet& deletion,
                               CandidateOrder order);

}  // namespace internal

}  // namespace delprop

#endif  // DELPROP_DP_SOLVER_H_
