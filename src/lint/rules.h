#ifndef DELPROP_LINT_RULES_H_
#define DELPROP_LINT_RULES_H_

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "lint/rule.h"

namespace delprop {
namespace lint {

/// discarded-status: a call to a function declared (anywhere in the linted
/// tree) to return `Status` or `Result<T>` whose value is dropped — the call
/// is a bare expression statement. `(void)call();` is an explicit discard
/// and is allowed, mirroring `[[nodiscard]]` semantics.
///
/// Matching is by name (the linter has no type information), so a name that
/// is also declared somewhere with a non-Status return type — e.g. `Insert`,
/// which is `Result<TupleRef> Database::Insert` but `bool
/// DeletionSet::Insert` — is treated as ambiguous and skipped; those call
/// sites are covered by `[[nodiscard]]` on Status/Result at compile time
/// instead (src/common/status.h).
class DiscardedStatusRule : public Rule {
 public:
  std::string_view name() const override { return "discarded-status"; }
  std::string_view description() const override {
    return "call returning Status/Result used as a bare statement";
  }
  void Collect(const SourceFile& file) override;
  void Check(const SourceFile& file,
             std::vector<Diagnostic>* out) const override;

  /// Names of functions observed to return Status/Result (exposed for
  /// tests).
  const std::unordered_set<std::string>& status_functions() const {
    return status_functions_;
  }
  /// Names also declared with a different return type (skipped by Check).
  const std::unordered_set<std::string>& ambiguous_functions() const {
    return other_return_functions_;
  }

 private:
  std::unordered_set<std::string> status_functions_;
  std::unordered_set<std::string> other_return_functions_;
};

/// nondeterministic-iteration: a range-for over an `std::unordered_map` /
/// `std::unordered_set` (or an alias of one) in result-emission or
/// accumulation paths — hash iteration order is unspecified, which breaks
/// the solver/bench contract that output is bit-identical at any
/// `--threads N` and across platforms.
class NondeterministicIterationRule : public Rule {
 public:
  /// Findings are reported only for files whose path starts with one of
  /// `scoped_paths` (the solver / emission layers by default).
  explicit NondeterministicIterationRule(
      std::vector<std::string> scoped_paths = DefaultScopedPaths());

  static std::vector<std::string> DefaultScopedPaths();

  std::string_view name() const override {
    return "nondeterministic-iteration";
  }
  std::string_view description() const override {
    return "range-for over unordered container in emission/accumulation path";
  }
  void Collect(const SourceFile& file) override;
  void Check(const SourceFile& file,
             std::vector<Diagnostic>* out) const override;

 private:
  std::vector<std::string> scoped_paths_;
  // Type-alias names observed (tree-wide) to name an unordered container,
  // e.g. `using PositionIndex = std::unordered_map<...>;`.
  std::unordered_set<std::string> unordered_aliases_;
};

/// raw-randomness: `rand()`, `srand()`, `std::random_device`, or a standard
/// engine (`mt19937`, ...) outside src/common/rng.* — all randomness must
/// flow through delprop::Rng so seeds make runs reproducible.
class RawRandomnessRule : public Rule {
 public:
  explicit RawRandomnessRule(
      std::vector<std::string> allowed_paths = {"src/common/rng."});

  std::string_view name() const override { return "raw-randomness"; }
  std::string_view description() const override {
    return "raw PRNG use outside src/common/rng.*";
  }
  void Check(const SourceFile& file,
             std::vector<Diagnostic>* out) const override;

 private:
  std::vector<std::string> allowed_paths_;
};

/// raw-threading: `std::thread` / `std::jthread` / `std::async` outside
/// src/runtime/ — concurrency must go through the ThreadPool substrate so
/// determinism (DeriveTaskSeed) and shutdown are handled in one place.
class RawThreadingRule : public Rule {
 public:
  explicit RawThreadingRule(
      std::vector<std::string> allowed_paths = {"src/runtime/"});

  std::string_view name() const override { return "raw-threading"; }
  std::string_view description() const override {
    return "std::thread/std::async outside src/runtime/";
  }
  void Check(const SourceFile& file,
             std::vector<Diagnostic>* out) const override;

 private:
  std::vector<std::string> allowed_paths_;
};

/// hot-path-hashing: an `unordered_map` keyed by `TupleRef` or `ViewTupleId`
/// inside the solver or set-cover layers. Those layers run per-pick inner
/// loops over tuples; the dense compiled plan (src/plan/) interns both key
/// types into contiguous uint32 ids precisely so these loops can use flat
/// arrays. A hash map there reintroduces per-operation hashing on the hot
/// path — index by dense id instead, or suppress with
/// `// delprop-lint: hot-path-hashing-ok` when the map is genuinely cold.
class HotPathHashingRule : public Rule {
 public:
  explicit HotPathHashingRule(
      std::vector<std::string> scoped_paths = DefaultScopedPaths());

  static std::vector<std::string> DefaultScopedPaths();

  std::string_view name() const override { return "hot-path-hashing"; }
  std::string_view description() const override {
    return "unordered_map keyed by TupleRef/ViewTupleId in solver layers";
  }
  void Check(const SourceFile& file,
             std::vector<Diagnostic>* out) const override;

 private:
  std::vector<std::string> scoped_paths_;
};

/// hot-path-allocation: a heap allocation inside a function transitively
/// reachable from a hot root. Roots are the scratch-aware solver entry
/// points (`SolveWith` overrides), every `DamageTracker` method, the engine
/// request loop (`BatchSolveEngine::Process`), and anything annotated
/// `// delprop-hot`; `// delprop-hot-stop` marks sanctioned allocation
/// sinks (lazy builds, result materialization) that the traversal does not
/// enter. Flagged constructs: `new`, `make_unique`/`make_shared`,
/// `push_back`/`emplace_back` on a container whose name is never
/// `.reserve()`d anywhere in the tree, `std::string` locals, and
/// `unordered_map`/`unordered_set` construction. Diagnostics carry the
/// discovery path ("reached via A → B → C") so the offending edge is
/// auditable. The graph is restricted to src/ — test doubles never join it.
class HotPathAllocationRule : public Rule {
 public:
  std::string_view name() const override { return "hot-path-allocation"; }
  std::string_view description() const override {
    return "heap allocation in a function reachable from a hot root";
  }
  bool wants_semantic_model() const override { return true; }
  void BindModel(const SemanticModel* model) override { model_ = model; }
  void Check(const SourceFile& file,
             std::vector<Diagnostic>* out) const override;

 private:
  const SemanticModel* model_ = nullptr;
};

/// shared-core-mutation: a write to `PlanCore`/`CompiledInstance` state
/// outside the sanctioned mutation points. The compiled core is shared
/// immutably across worker replicas; every legal mutation lives in
/// `BuildCore`/`FinishCore` (the core's only writers) or
/// `BuildFromCore`/`Build` (the overlay). Tracked forms: mutable
/// declarations (`PlanCore*`, `PlanCore&`, non-const `shared_ptr<...>`)
/// whose variables are later assigned through or passed to mutating
/// methods, and any `const_cast` that strips const from a core type. Also
/// flags ThreadPool task lambdas (`Submit([&]...)`) capturing by reference
/// outside src/runtime/ — `ParallelFor` blocks before returning, `Submit`
/// does not, so by-reference captures outlive their frame.
class SharedCoreMutationRule : public Rule {
 public:
  SharedCoreMutationRule(
      std::vector<std::string> core_types = {"PlanCore", "CompiledInstance"},
      std::vector<std::string> mutation_points = DefaultMutationPoints(),
      std::vector<std::string> submit_exempt_paths = {"src/runtime/"});

  static std::vector<std::string> DefaultMutationPoints();

  std::string_view name() const override { return "shared-core-mutation"; }
  std::string_view description() const override {
    return "PlanCore/compiled-core mutation outside sanctioned points";
  }
  bool wants_semantic_model() const override { return true; }
  void BindModel(const SemanticModel* model) override { model_ = model; }
  void Check(const SourceFile& file,
             std::vector<Diagnostic>* out) const override;

 private:
  bool Allowlisted(const SourceFile& file, size_t token_index) const;

  std::vector<std::string> core_types_;
  std::vector<std::string> mutation_points_;
  std::vector<std::string> submit_exempt_paths_;
  const SemanticModel* model_ = nullptr;
};

/// epoch-protocol: a per-function automaton over the plan-epoch handoff.
/// Three checks: (1) in the serving layers (src/engine/, src/solvers/), a
/// ΔV swap (`ResetDeletions`/`ApplyDelta` call) must be preceded — after
/// any tracker acquire — by a plan release (`ReleasePlan`/`ReleasePlans`/
/// `plan_.reset()`), the Rebind/ReleasePlan pairing that lets retired plans
/// recycle their overlay buffers; (2) every `VseInstance` mutator
/// (`ApplyDelta`, `SetWeight`, `MarkForDeletion`, `MarkForDeletionByValues`,
/// `ResetDeletions`) must invalidate the compiled plan
/// (`InvalidateOverlayCaches`/delegation/direct `plan_core` maintenance);
/// (3) a body advancing `core_epoch_` must also clear the memo cache —
/// stale entries must not cross the epoch.
class EpochProtocolRule : public Rule {
 public:
  explicit EpochProtocolRule(
      std::vector<std::string> serving_paths = {"src/engine/",
                                                "src/solvers/"});

  std::string_view name() const override { return "epoch-protocol"; }
  std::string_view description() const override {
    return "Rebind/ReleasePlan pairing, mutator invalidation, epoch cache";
  }
  bool wants_semantic_model() const override { return true; }
  void BindModel(const SemanticModel* model) override { model_ = model; }
  void Check(const SourceFile& file,
             std::vector<Diagnostic>* out) const override;

 private:
  std::vector<std::string> serving_paths_;
  const SemanticModel* model_ = nullptr;
};

/// header-guard: every .h file must open with
/// `#ifndef DELPROP_<PATH>_H_` / `#define` of the same macro, where <PATH>
/// is the file path with the leading src/ stripped, uppercased, and
/// punctuation mapped to underscores (tools/bench/tests keep their
/// directory). `#pragma once` and missing/mismatched guards are findings.
class HeaderGuardRule : public Rule {
 public:
  std::string_view name() const override { return "header-guard"; }
  std::string_view description() const override {
    return "include guard must be DELPROP_<PATH>_H_";
  }
  void Check(const SourceFile& file,
             std::vector<Diagnostic>* out) const override;

  /// Expected guard macro for `path` (exposed for tests).
  static std::string ExpectedGuard(std::string_view path);
};

}  // namespace lint
}  // namespace delprop

#endif  // DELPROP_LINT_RULES_H_
