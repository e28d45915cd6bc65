#ifndef DELPROP_TESTING_MUTATION_H_
#define DELPROP_TESTING_MUTATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/thread_pool.h"

namespace delprop {
namespace testing {

/// Configuration of one mutation-fuzz run (tools/delprop_fuzz --mutate).
struct MutationFuzzOptions {
  /// Base seed; case i uses DeriveTaskSeed(seed_start, i), so runs with the
  /// same base are identical at any thread count.
  uint64_t seed_start = 1;
  /// Number of generated base cases.
  size_t iterations = 100;
  /// Deltas applied to each case's live instance, each followed by the full
  /// mutate-vs-rebuild oracle.
  size_t steps_per_case = 4;
  /// Solvers whose outcomes must be byte-identical between the live and
  /// rebuilt instances.
  std::vector<std::string> solvers = {"greedy", "primal-dual"};
};

/// One oracle violation found by the mutation fuzz loop. `check` is a stable
/// machine-readable name: "apply" (ApplyDelta returned an error), "content"
/// (views differ from a from-scratch Create as sets), "unique-witness",
/// "core" (compiled PlanCore/overlay not byte-identical), or
/// "solver:<name>".
struct MutationViolation {
  size_t case_index = 0;
  uint64_t seed = 0;  // the derived per-case seed
  size_t step = 0;
  std::string check;
  std::string detail;
};

/// Aggregated result of a run. ToString() is byte-identical for the same
/// options at any thread count — it contains no timing and is assembled from
/// the outcomes in case-index order.
struct MutationFuzzSummary {
  MutationFuzzOptions options;
  size_t cases = 0;
  size_t generation_failures = 0;
  size_t steps_applied = 0;
  size_t rows_inserted = 0;
  size_t rows_deleted = 0;
  size_t view_tuples_added = 0;
  size_t view_tuples_removed = 0;
  size_t failing_cases = 0;
  std::vector<MutationViolation> violations;  // case-index order

  std::string ToString() const;
};

/// Runs the mutate-vs-rebuild differential loop: every seed generates a fuzz
/// case, then `steps_per_case` random base-data deltas (inserts with fresh
/// keys and value reuse for join pressure, logical deletes, interleaved ΔV
/// marks and reweights) are applied to the live instance via ApplyDelta.
/// After every delta the live instance is checked against two independent
/// rebuilds over the mutated database:
///
///  * a from-scratch `VseInstance::Create` under the live base mask — the
///    views must agree as sets (head values and witness sets);
///  * a `CreateFromMaterializedViews` over a copy of the live views — its
///    derived state (all_unique_witness, every field of the compiled
///    PlanCore — the occurrence rows, whose runs are the kill rows,
///    included — and the ΔV overlay) and the outcomes of `options.solvers`
///    must be BYTE-identical to the live instance's.
///
/// The live instance applies its deltas and builds its cores through a
/// 3-thread pool of the run's own, so the core comparison also checks that a
/// pooled build equals a pool-less one.
///
/// Cases run concurrently on `pool` when it has more than one worker; each
/// case is fully determined by its derived seed and writes only its own
/// slot, so the summary is bit-identical at any thread count.
MutationFuzzSummary RunMutationFuzz(const MutationFuzzOptions& options,
                                    ThreadPool* pool = nullptr);

}  // namespace testing
}  // namespace delprop

#endif  // DELPROP_TESTING_MUTATION_H_
