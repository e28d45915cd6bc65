#include "testing/mutation.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dp/base_delta.h"
#include "dp/vse_instance.h"
#include "plan/compiled_instance.h"
#include "solvers/solver_registry.h"
#include "testing/fuzzer.h"

namespace delprop {
namespace testing {

namespace {

/// Per-case scratch result; RunMutationFuzz aggregates them in index order.
struct CaseOutcome {
  uint64_t seed = 0;
  Status generation = Status::Ok();
  size_t steps_applied = 0;
  size_t rows_inserted = 0;
  size_t rows_deleted = 0;
  size_t view_tuples_added = 0;
  size_t view_tuples_removed = 0;
  size_t core_patches = 0;
  size_t core_rebuilds = 0;
  std::vector<MutationViolation> violations;
};

/// Builds a random delta over the live database: up to two logical deletes
/// of not-yet-masked rows and up to two inserts. Insert values mix reuse of
/// existing column values (join pressure — reused values are what make new
/// witnesses form) with fresh interned constants; key columns are freshened
/// until the key is unused, since masked rows keep their keys occupied.
BaseDelta MakeRandomDelta(Database& db, const DeletionSet& mask, Rng& rng,
                          size_t case_index, size_t step) {
  BaseDelta delta;
  size_t relation_count = db.relation_count();
  if (relation_count == 0) return delta;

  size_t want_deletes = rng.NextBelow(3);
  for (size_t attempt = 0; attempt < 8 && delta.deletes.size() < want_deletes;
       ++attempt) {
    RelationId rel = static_cast<RelationId>(rng.NextBelow(relation_count));
    size_t rows = db.relation(rel).row_count();
    if (rows == 0) continue;
    TupleRef ref{rel, static_cast<uint32_t>(rng.NextBelow(rows))};
    if (mask.Contains(ref)) continue;
    if (std::find(delta.deletes.begin(), delta.deletes.end(), ref) !=
        delta.deletes.end()) {
      continue;
    }
    delta.deletes.push_back(ref);
  }

  size_t fresh_counter = 0;
  auto fresh_value = [&]() {
    std::string text = "mut" + std::to_string(case_index) + "_" +
                       std::to_string(step) + "_" +
                       std::to_string(fresh_counter++);
    return db.dict().Intern(text);
  };
  std::vector<Tuple> batch_keys;
  size_t want_inserts = rng.NextBelow(3);
  for (size_t n = 0; n < want_inserts; ++n) {
    RelationId rel = static_cast<RelationId>(rng.NextBelow(relation_count));
    const RelationSchema& schema = db.schema().relation(rel);
    const Relation& relation = db.relation(rel);
    Tuple tuple(schema.arity);
    for (size_t pos = 0; pos < schema.arity; ++pos) {
      if (relation.row_count() > 0 && rng.NextBool(0.6)) {
        size_t row = rng.NextBelow(relation.row_count());
        tuple[pos] = relation.row(static_cast<uint32_t>(row))[pos];
      } else {
        tuple[pos] = fresh_value();
      }
    }
    for (size_t attempt = 0; attempt < 8; ++attempt) {
      Tuple key = relation.KeyOf(tuple);
      bool taken = relation.FindByKey(key).has_value() ||
                   std::find(batch_keys.begin(), batch_keys.end(), key) !=
                       batch_keys.end();
      if (!taken) break;
      for (size_t pos : schema.key_positions) tuple[pos] = fresh_value();
    }
    Tuple key = relation.KeyOf(tuple);
    if (relation.FindByKey(key).has_value() ||
        std::find(batch_keys.begin(), batch_keys.end(), key) !=
            batch_keys.end()) {
      continue;  // could not find a free key; drop this insert
    }
    batch_keys.push_back(std::move(key));
    delta.inserts.push_back(BaseInsert{rel, std::move(tuple)});
  }
  return delta;
}

/// Sorted copy of a tuple's witness list, for set-level comparison (the live
/// instance appends incrementally; a from-scratch Create enumerates in
/// evaluator order).
std::vector<Witness> SortedWitnesses(const ViewTuple& tuple) {
  std::vector<Witness> witnesses = tuple.witnesses;
  std::sort(witnesses.begin(), witnesses.end());
  return witnesses;
}

/// Views of `live` and of a from-scratch rebuild must agree as sets.
void CheckContent(const VseInstance& live, const VseInstance& rebuilt,
                  size_t case_index, uint64_t seed, size_t step,
                  std::vector<MutationViolation>* violations) {
  for (size_t v = 0; v < live.view_count(); ++v) {
    const View& lv = live.view(v);
    const View& rv = rebuilt.view(v);
    if (lv.size() != rv.size()) {
      violations->push_back(
          {case_index, seed, step, "content",
           "view " + std::to_string(v) + " has " + std::to_string(lv.size()) +
               " tuple(s) live vs " + std::to_string(rv.size()) +
               " rebuilt"});
      continue;
    }
    for (size_t t = 0; t < rv.size(); ++t) {
      const ViewTuple& rt = rv.tuple(t);
      std::optional<size_t> found = lv.Find(rt.values);
      if (!found.has_value()) {
        violations->push_back({case_index, seed, step, "content",
                               "rebuilt tuple " + rv.RenderTuple(t) +
                                   " is missing from the live view"});
        continue;
      }
      if (SortedWitnesses(lv.tuple(*found)) != SortedWitnesses(rt)) {
        violations->push_back({case_index, seed, step, "content",
                               "witness sets of " + rv.RenderTuple(t) +
                                   " differ between live and rebuilt"});
      }
    }
  }
}

/// Derived state of `live` (unique-witness flag, compiled core and overlay,
/// solver outcomes) must be byte-identical to `shadow`, a fresh
/// CreateFromMaterializedViews over a copy of the live views carrying the
/// same ΔV and weights. The core comparison covers every PlanCore field,
/// the kill rows behind KilledBy and ApplyDelta included.
void CheckDerivedState(const VseInstance& live, const VseInstance& shadow,
                       const std::vector<std::string>& solvers,
                       size_t case_index, uint64_t seed, size_t step,
                       std::vector<MutationViolation>* violations) {
  if (live.all_unique_witness() != shadow.all_unique_witness()) {
    violations->push_back(
        {case_index, seed, step, "unique-witness",
         std::string("live reports ") +
             (live.all_unique_witness() ? "true" : "false") +
             ", reindexed rebuild reports the opposite"});
  }

  std::shared_ptr<const CompiledInstance> live_plan = live.compiled();
  std::shared_ptr<const CompiledInstance> shadow_plan = shadow.compiled();
  if (*live_plan->core() != *shadow_plan->core()) {
    violations->push_back({case_index, seed, step, "core",
                           "patched PlanCore is not byte-identical to a "
                           "from-scratch build over the mutated views"});
  }
  if (live_plan->deletion_dense() != shadow_plan->deletion_dense() ||
      live_plan->candidate_bases() != shadow_plan->candidate_bases()) {
    violations->push_back({case_index, seed, step, "core",
                           "compiled ΔV overlay (deletion_dense / "
                           "candidate_bases) differs from rebuild"});
  }

  std::vector<SolverRun> live_runs = RunAll(live, nullptr, solvers);
  std::vector<SolverRun> shadow_runs = RunAll(shadow, nullptr, solvers);
  for (size_t i = 0; i < live_runs.size(); ++i) {
    const SolverRun& a = live_runs[i];
    const SolverRun& b = shadow_runs[i];
    std::string check = "solver:" + a.name;
    if (a.result.ok() != b.result.ok()) {
      violations->push_back({case_index, seed, step, check,
                             "one arm solved, the other returned: " +
                                 (a.result.ok() ? b.result.status().ToString()
                                                : a.result.status().ToString())});
      continue;
    }
    if (!a.result.ok()) continue;  // both refused identically-shaped inputs
    const VseSolution& sa = a.result.value();
    const VseSolution& sb = b.result.value();
    if (sa.deletion.Sorted() != sb.deletion.Sorted() ||
        sa.Cost() != sb.Cost() || sa.Feasible() != sb.Feasible()) {
      violations->push_back(
          {case_index, seed, step, check,
           "outcome differs: live cost " + std::to_string(sa.Cost()) +
               " (|ΔD|=" + std::to_string(sa.deletion.size()) +
               ") vs rebuilt cost " + std::to_string(sb.Cost()) +
               " (|ΔD|=" + std::to_string(sb.deletion.size()) + ")"});
    }
  }
}

void RunOneCase(const MutationFuzzOptions& options, size_t index,
                CaseOutcome* outcome) {
  outcome->seed = DeriveTaskSeed(options.seed_start, index);
  Result<FuzzCase> generated = GenerateFuzzCase(outcome->seed);
  if (!generated.ok()) {
    outcome->generation = generated.status();
    return;
  }
  FuzzCase fuzz_case = std::move(generated).value();
  Database& db = *fuzz_case.generated.database;
  std::vector<const ConjunctiveQuery*> queries;
  for (const auto& query : fuzz_case.generated.queries) {
    queries.push_back(query.get());
  }
  VseInstance live = std::move(*fuzz_case.generated.instance);
  Rng rng(DeriveTaskSeed(outcome->seed, 0x6d757461));  // "muta"

  ApplyDeltaOptions apply_options;
  apply_options.patch_threshold = options.patch_threshold;

  for (size_t step = 0; step < options.steps_per_case; ++step) {
    BaseDelta delta =
        MakeRandomDelta(db, live.base_mask(), rng, index, step);
    if (delta.empty()) continue;

    ApplyDeltaReport report;
    Status applied = live.ApplyDelta(db, delta, apply_options, &report);
    if (!applied.ok()) {
      outcome->violations.push_back({index, outcome->seed, step, "apply",
                                     applied.ToString()});
      return;  // the live instance may be inconsistent; stop this case
    }
    ++outcome->steps_applied;
    outcome->rows_inserted += delta.inserts.size();
    outcome->rows_deleted += delta.deletes.size();
    outcome->view_tuples_added += report.view_tuples_added;
    outcome->view_tuples_removed += report.view_tuples_removed;
    if (report.core_patched) ++outcome->core_patches;
    if (report.core_rebuilt) ++outcome->core_rebuilds;

    // Interleave ΔV marks and reweights so every oracle pass also covers
    // post-delta mark remapping and the SetWeight core-patch path.
    size_t marks = rng.NextBelow(3);
    for (size_t m = 0; m < marks && live.view_count() > 0; ++m) {
      size_t v = rng.NextBelow(live.view_count());
      if (live.view(v).size() == 0) continue;
      ViewTupleId id{v, rng.NextBelow(live.view(v).size())};
      Status marked = live.MarkForDeletion(id);
      if (!marked.ok()) {
        outcome->violations.push_back({index, outcome->seed, step, "apply",
                                       "MarkForDeletion after delta: " +
                                           marked.ToString()});
        return;
      }
    }
    if (rng.NextBool(0.5) && live.view_count() > 0) {
      size_t v = rng.NextBelow(live.view_count());
      if (live.view(v).size() > 0) {
        ViewTupleId id{v, rng.NextBelow(live.view(v).size())};
        double weight = 1.0 + static_cast<double>(rng.NextBelow(5));
        Status reweighted = live.SetWeight(id, weight);
        if (!reweighted.ok()) {
          outcome->violations.push_back({index, outcome->seed, step, "apply",
                                         "SetWeight after delta: " +
                                             reweighted.ToString()});
          return;
        }
      }
    }

    // Arm 1: content — a from-scratch Create over the mutated database under
    // the live mask must produce the same views as sets.
    Result<VseInstance> recreated =
        VseInstance::Create(db, queries, &live.base_mask());
    if (!recreated.ok()) {
      outcome->violations.push_back({index, outcome->seed, step, "content",
                                     "from-scratch Create failed: " +
                                         recreated.status().ToString()});
      return;
    }
    CheckContent(live, recreated.value(), index, outcome->seed, step,
                 &outcome->violations);

    // Arm 2: derived state — re-indexing a copy of the live views must yield
    // a byte-identical core, overlay, and solver outcomes.
    std::vector<View> views_copy;
    views_copy.reserve(live.view_count());
    for (size_t v = 0; v < live.view_count(); ++v) {
      views_copy.push_back(live.view(v));
    }
    Result<VseInstance> reindexed = VseInstance::CreateFromMaterializedViews(
        db, queries, std::move(views_copy));
    if (!reindexed.ok()) {
      outcome->violations.push_back(
          {index, outcome->seed, step, "core",
           "CreateFromMaterializedViews over the live views failed: " +
               reindexed.status().ToString()});
      return;
    }
    VseInstance shadow = std::move(reindexed).value();
    Status reset = shadow.ResetDeletions(live.deletion_tuples());
    if (!reset.ok()) {
      outcome->violations.push_back({index, outcome->seed, step, "core",
                                     "live ΔV does not fit the rebuilt "
                                     "views: " +
                                         reset.ToString()});
      return;
    }
    for (size_t v = 0; v < live.view_count(); ++v) {
      for (size_t t = 0; t < live.view(v).size(); ++t) {
        ViewTupleId id{v, t};
        double weight = live.weight(id);
        if (weight != 1.0) {
          Status set = shadow.SetWeight(id, weight);
          if (!set.ok()) {
            outcome->violations.push_back(
                {index, outcome->seed, step, "core",
                 "transferring weights to the rebuild failed: " +
                     set.ToString()});
            return;
          }
        }
      }
    }
    CheckDerivedState(live, shadow, options.solvers, index, outcome->seed,
                      step, &outcome->violations);
    if (!outcome->violations.empty()) return;  // stop at first failing step
  }
}

}  // namespace

std::string MutationFuzzSummary::ToString() const {
  std::ostringstream out;
  out << "delprop_fuzz mutation summary\n";
  out << "  seed-start: " << options.seed_start << "\n";
  out << "  iterations: " << options.iterations << "\n";
  out << "  steps-per-case: " << options.steps_per_case << "\n";
  out << "  patch-threshold: " << options.patch_threshold << "\n";
  out << "  solvers:";
  for (const std::string& solver : options.solvers) out << " " << solver;
  out << "\n";
  out << "  cases: " << cases << "\n";
  out << "  generation failures: " << generation_failures << "\n";
  out << "  deltas applied: " << steps_applied << " (+" << rows_inserted
      << " rows, -" << rows_deleted << " rows)\n";
  out << "  view delta: +" << view_tuples_added << " / -"
      << view_tuples_removed << " tuples\n";
  out << "  core patches: " << core_patches
      << ", rebuild fallbacks: " << core_rebuilds << "\n";
  out << "  failing cases: " << failing_cases << "\n";
  for (const MutationViolation& violation : violations) {
    out << "  seed " << violation.seed << " (index " << violation.case_index
        << ", step " << violation.step << ") " << violation.check << ": "
        << violation.detail << "\n";
  }
  return out.str();
}

MutationFuzzSummary RunMutationFuzz(const MutationFuzzOptions& options,
                                    ThreadPool* pool) {
  std::vector<CaseOutcome> outcomes(options.iterations);
  ParallelFor(pool, options.iterations,
              [&](size_t i) { RunOneCase(options, i, &outcomes[i]); });

  MutationFuzzSummary summary;
  summary.options = options;
  for (CaseOutcome& outcome : outcomes) {
    if (!outcome.generation.ok()) {
      ++summary.generation_failures;
      continue;
    }
    ++summary.cases;
    summary.steps_applied += outcome.steps_applied;
    summary.rows_inserted += outcome.rows_inserted;
    summary.rows_deleted += outcome.rows_deleted;
    summary.view_tuples_added += outcome.view_tuples_added;
    summary.view_tuples_removed += outcome.view_tuples_removed;
    summary.core_patches += outcome.core_patches;
    summary.core_rebuilds += outcome.core_rebuilds;
    if (!outcome.violations.empty()) {
      ++summary.failing_cases;
      summary.violations.insert(summary.violations.end(),
                                outcome.violations.begin(),
                                outcome.violations.end());
    }
  }
  return summary;
}

}  // namespace testing
}  // namespace delprop
