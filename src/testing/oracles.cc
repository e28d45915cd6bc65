#include "testing/oracles.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "dp/side_effect.h"
#include "dp/solver.h"
#include "ilp/ilp_solver.h"
#include "plan/compiled_instance.h"
#include "solvers/damage_tracker.h"
#include "solvers/exact_solver.h"
#include "solvers/greedy_solver.h"
#include "solvers/solver_registry.h"
#include "testing/reference_eval.h"
#include "tool/script.h"
#include "tool/serialize.h"

namespace delprop {
namespace testing {
namespace {

std::string FormatCost(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

void CheckEvaluatorCrosscheck(const VseInstance& instance,
                              const OracleOptions& options,
                              std::vector<OracleViolation>* out) {
  const Database& db = instance.database();
  for (size_t q = 0; q < instance.view_count(); ++q) {
    const ConjunctiveQuery& query = instance.query(q);
    if (NaiveEvaluationCost(db, query) > options.max_naive_eval_cost) continue;
    Result<View> indexed = Evaluate(db, query);
    if (!indexed.ok()) {
      out->push_back({"evaluator-crosscheck:" + query.name(),
                      "indexed evaluation failed: " +
                          indexed.status().ToString()});
      continue;
    }
    ResultMap reference = NaiveEvaluate(db, query);
    ResultMap actual = ViewToResultMap(*indexed);
    if (actual != reference) {
      out->push_back(
          {"evaluator-crosscheck:" + query.name(),
           "indexed evaluator returned " + std::to_string(actual.size()) +
               " answers where naive enumeration returned " +
               std::to_string(reference.size()) + " for " +
               query.ToString(db.schema(), db.dict())});
    }
  }
}

void CheckSerializeRoundTrip(const VseInstance& instance,
                             std::vector<OracleViolation>* out) {
  std::string script = SerializeToScript(instance);
  ScriptSession session;
  std::string session_out;
  if (Status s = session.Run(script, &session_out); !s.ok()) {
    out->push_back({"serialize-roundtrip",
                    "replaying the serialized script failed: " + s.ToString()});
    return;
  }
  if (Status s = session.Run("views", &session_out); !s.ok()) {
    out->push_back({"serialize-roundtrip",
                    "materializing the replayed views failed: " +
                        s.ToString()});
    return;
  }
  const VseInstance* replayed = session.instance();
  if (replayed == nullptr) {
    out->push_back({"serialize-roundtrip",
                    "replayed session produced no instance"});
    return;
  }
  if (replayed->view_count() != instance.view_count() ||
      replayed->TotalViewTuples() != instance.TotalViewTuples() ||
      replayed->TotalDeletionTuples() != instance.TotalDeletionTuples()) {
    out->push_back(
        {"serialize-roundtrip",
         "structure drifted: views " + std::to_string(instance.view_count()) +
             "->" + std::to_string(replayed->view_count()) + ", tuples " +
             std::to_string(instance.TotalViewTuples()) + "->" +
             std::to_string(replayed->TotalViewTuples()) + ", ΔV " +
             std::to_string(instance.TotalDeletionTuples()) + "->" +
             std::to_string(replayed->TotalDeletionTuples())});
    return;
  }
  std::string reserialized = SerializeToScript(*replayed);
  if (reserialized != script) {
    out->push_back({"serialize-roundtrip",
                    "serialize -> replay -> serialize is not byte-identical"});
  }
}

/// The compiled plan is a pure re-encoding of the instance: every interned
/// structure must round-trip back to the instance API it was built from.
void CheckPlanRoundTrip(const VseInstance& instance,
                        std::vector<OracleViolation>* out) {
  std::shared_ptr<const CompiledInstance> plan = instance.compiled();
  auto fail = [&](const std::string& detail) {
    out->push_back({"plan-roundtrip", detail});
  };

  if (plan->tuple_count() != instance.TotalViewTuples()) {
    fail("tuple_count " + std::to_string(plan->tuple_count()) + " != " +
         std::to_string(instance.TotalViewTuples()));
    return;
  }
  // Base interning: strictly ascending refs, FindBase a bijection.
  for (uint32_t b = 0; b < plan->base_count(); ++b) {
    if (b + 1 < plan->base_count() &&
        !(plan->base_ref(b) < plan->base_ref(b + 1))) {
      fail("base refs not strictly ascending at id " + std::to_string(b));
      return;
    }
    if (plan->FindBase(plan->base_ref(b)) != b) {
      fail("FindBase(base_ref(" + std::to_string(b) + ")) mismatch");
      return;
    }
  }
  // Per-tuple: dense id round-trip, weights, deletion flags, raw witnesses.
  for (size_t v = 0; v < instance.view_count(); ++v) {
    const View& view = instance.view(v);
    for (size_t t = 0; t < view.size(); ++t) {
      ViewTupleId id{v, t};
      uint32_t dense = plan->DenseOf(id);
      std::string where = " for view tuple (" + std::to_string(v) + ", " +
                          std::to_string(t) + ")";
      if (!(plan->IdOf(dense) == id)) {
        fail("DenseOf/IdOf round-trip failed" + where);
        return;
      }
      if (plan->weight(dense) != instance.weight(id)) {
        fail("weight mismatch" + where);
        return;
      }
      if (plan->is_deletion(dense) != instance.IsMarkedForDeletion(id)) {
        fail("is_deletion flag mismatch" + where);
        return;
      }
      const std::vector<Witness>& witnesses = view.tuple(t).witnesses;
      if (plan->tuple_witness_count(dense) != witnesses.size()) {
        fail("witness count mismatch" + where);
        return;
      }
      for (size_t w = 0; w < witnesses.size(); ++w) {
        uint32_t wid = plan->tuple_witness_begin(dense) +
                       static_cast<uint32_t>(w);
        if (plan->witness_owner(wid) != dense) {
          fail("witness owner mismatch" + where);
          return;
        }
        const Witness& witness = witnesses[w];
        if (plan->member_end(wid) - plan->member_begin(wid) !=
            witness.size()) {
          fail("witness member count mismatch" + where);
          return;
        }
        for (size_t m = 0; m < witness.size(); ++m) {
          uint32_t base = plan->member_base(
              plan->member_begin(wid) + static_cast<uint32_t>(m));
          if (!(plan->base_ref(base) == witness[m])) {
            fail("raw member slot " + std::to_string(m) +
                 " does not round-trip" + where);
            return;
          }
        }
      }
    }
  }
  // Deletion lists mirror deletion_tuples order.
  const std::vector<ViewTupleId>& deletions = instance.deletion_tuples();
  if (plan->deletion_dense().size() != deletions.size()) {
    fail("deletion_dense size mismatch");
    return;
  }
  for (size_t i = 0; i < deletions.size(); ++i) {
    uint32_t dense = plan->deletion_dense()[i];
    if (!(plan->IdOf(dense) == deletions[i]) ||
        plan->deletion_index(dense) != i) {
      fail("deletion_dense[" + std::to_string(i) +
           "] does not mirror deletion_tuples");
      return;
    }
  }
  // Kill rows reproduce the reference kill index, per base, in order; its
  // keys are exactly the interned bases (checked ascending above).
  KillIndex reference = ReferenceKillIndex(instance);
  if (reference.size() != plan->base_count()) {
    fail("base_count " + std::to_string(plan->base_count()) +
         " != reference kill index size " + std::to_string(reference.size()));
    return;
  }
  for (uint32_t b = 0; b < plan->base_count(); ++b) {
    auto row = reference.find(plan->base_ref(b));
    if (row == reference.end() ||
        plan->kill_end(b) - plan->kill_begin(b) != row->second.size()) {
      fail("kill row size mismatch for base " + std::to_string(b));
      return;
    }
    const std::vector<ViewTupleId>& killed = row->second;
    for (size_t k = 0; k < killed.size(); ++k) {
      uint32_t dense =
          plan->kill_tuple(plan->kill_begin(b) + static_cast<uint32_t>(k));
      if (!(plan->IdOf(dense) == killed[k])) {
        fail("kill row entry " + std::to_string(k) +
             " mismatch for base " + std::to_string(b));
        return;
      }
    }
    if (instance.KilledBy(plan->base_ref(b)) != killed) {
      fail("KilledBy mismatch for base " + std::to_string(b));
      return;
    }
  }
  // Candidates mirror CandidateTuples (both ascending).
  std::vector<TupleRef> expected = instance.CandidateTuples();
  if (plan->candidate_bases().size() != expected.size()) {
    fail("candidate count " + std::to_string(plan->candidate_bases().size()) +
         " != " + std::to_string(expected.size()));
    return;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (!(plan->base_ref(plan->candidate_bases()[i]) == expected[i])) {
      fail("candidate " + std::to_string(i) + " mismatch");
      return;
    }
  }
}

bool WitnessHit(const Witness& witness, const DeletionSet& deletion) {
  for (const TupleRef& ref : witness) {
    if (deletion.Contains(ref)) return true;
  }
  return false;
}

bool TupleKilled(const VseInstance& instance, const ViewTupleId& id,
                 const DeletionSet& deletion) {
  for (const Witness& witness :
       instance.view(id.view).tuple(id.tuple).witnesses) {
    if (!WitnessHit(witness, deletion)) return false;
  }
  return true;
}

/// Marginal damage recomputed from the instance's views alone: weight of
/// preserved tuples whose every unhit witness contains `ref`. Sums in kill
/// row order (`kills` is the reference index) — the same order the compiled
/// tracker sums in — so the doubles are bit-identical, which the
/// tie-breaking comparison needs.
double NaiveMarginalDamage(const VseInstance& instance, const KillIndex& kills,
                           const TupleRef& ref, const DeletionSet& deletion) {
  auto row = kills.find(ref);
  if (row == kills.end()) return 0.0;
  double damage = 0.0;
  for (const ViewTupleId& id : row->second) {
    if (instance.IsMarkedForDeletion(id)) continue;
    bool any_unhit = false;
    bool all_covered = true;
    for (const Witness& witness :
         instance.view(id.view).tuple(id.tuple).witnesses) {
      if (WitnessHit(witness, deletion)) continue;
      any_unhit = true;
      bool contains = false;
      for (const TupleRef& member : witness) {
        if (member == ref) {
          contains = true;
          break;
        }
      }
      if (!contains) {
        all_covered = false;
        break;
      }
    }
    if (any_unhit && all_covered) damage += instance.weight(id);
  }
  return damage;
}

/// The greedy algorithm restated with no compiled plan, no tracker, and no
/// dense ids — pure DeletionSet + lineage recomputation.
std::optional<DeletionSet> ReferenceGreedy(const VseInstance& instance) {
  const KillIndex kills = ReferenceKillIndex(instance);
  DeletionSet deletion;
  const std::vector<ViewTupleId>& targets = instance.deletion_tuples();
  auto first_unkilled = [&]() -> const ViewTupleId* {
    for (const ViewTupleId& id : targets) {
      if (!TupleKilled(instance, id, deletion)) return &id;
    }
    return nullptr;
  };
  while (const ViewTupleId* target = first_unkilled()) {
    const Witness* open = nullptr;
    for (const Witness& witness :
         instance.view(target->view).tuple(target->tuple).witnesses) {
      if (!WitnessHit(witness, deletion)) {
        open = &witness;
        break;
      }
    }
    if (open == nullptr || open->empty()) return std::nullopt;
    TupleRef best = (*open)[0];
    double best_damage = std::numeric_limits<double>::infinity();
    for (const TupleRef& member : *open) {
      if (deletion.Contains(member)) continue;
      double damage = NaiveMarginalDamage(instance, kills, member, deletion);
      if (damage < best_damage) {
        best_damage = damage;
        best = member;
      }
    }
    deletion.Insert(best);
  }
  std::vector<TupleRef> sorted = deletion.Sorted();
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    deletion.Erase(*it);
    if (first_unkilled() != nullptr) deletion.Insert(*it);
  }
  return deletion;
}

/// GreedySolver runs on the compiled plan; this replays the same algorithm
/// against the raw instance and demands byte-identical deletions.
void CheckPlanGreedyDifferential(const VseInstance& instance,
                                 std::vector<OracleViolation>* out) {
  GreedySolver solver;
  Result<VseSolution> compiled = solver.Solve(instance);
  std::optional<DeletionSet> reference = ReferenceGreedy(instance);
  if (!compiled.ok()) {
    if (reference.has_value()) {
      out->push_back({"plan-greedy",
                      "compiled greedy failed (" +
                          compiled.status().ToString() +
                          ") where the reference succeeded"});
    }
    return;
  }
  if (!reference.has_value()) {
    out->push_back({"plan-greedy",
                    "reference greedy failed where the compiled one "
                    "succeeded"});
    return;
  }
  if (compiled->deletion.Sorted() != reference->Sorted()) {
    out->push_back(
        {"plan-greedy",
         "deletion sets differ: compiled |ΔD|=" +
             std::to_string(compiled->deletion.size()) + " cost " +
             FormatCost(compiled->Cost()) + ", reference |ΔD|=" +
             std::to_string(reference->size()) + " cost " +
             FormatCost(EvaluateDeletion(instance, *reference)
                            .side_effect_weight)});
  }
}

/// Kill state of a deleted-base set, recomputed from scratch from the
/// plan's witness and member rows — no occurrence or kill rows, no
/// incremental counters. Tuples are visited in ascending dense id.
struct ReferenceKillState {
  std::vector<uint32_t> hits;  // per witness: deleted unique members
  std::vector<uint32_t> dead;  // per tuple: witnesses with a hit
  size_t unkilled_deletions = 0;
  double killed_preserved_weight = 0.0;
  double surviving_deletion_weight = 0.0;

  ReferenceKillState(const CompiledInstance& plan,
                     const std::vector<uint8_t>& deleted)
      : hits(plan.witness_count(), 0), dead(plan.tuple_count(), 0) {
    std::vector<uint32_t> members;
    for (uint32_t w = 0; w < plan.witness_count(); ++w) {
      members.clear();
      for (uint32_t slot = plan.member_begin(w); slot < plan.member_end(w);
           ++slot) {
        members.push_back(plan.member_base(slot));
      }
      std::sort(members.begin(), members.end());
      members.erase(std::unique(members.begin(), members.end()),
                    members.end());
      for (uint32_t base : members) hits[w] += deleted[base];
      if (hits[w] > 0) ++dead[plan.witness_owner(w)];
    }
    for (uint32_t t = 0; t < plan.tuple_count(); ++t) {
      bool killed = dead[t] == plan.tuple_witness_count(t);
      if (plan.is_deletion(t)) {
        if (!killed) {
          ++unkilled_deletions;
          surviving_deletion_weight += plan.weight(t);
        }
      } else if (killed) {
        killed_preserved_weight += plan.weight(t);
      }
    }
  }

  bool Killed(const CompiledInstance& plan, uint32_t t) const {
    return dead[t] == plan.tuple_witness_count(t);
  }
};

/// True iff some witness of tuple `t` lists `base` among its members.
bool TupleHasMember(const CompiledInstance& plan, uint32_t t, uint32_t base) {
  for (uint32_t w = plan.tuple_witness_begin(t); w < plan.tuple_witness_end(t);
       ++w) {
    for (uint32_t slot = plan.member_begin(w); slot < plan.member_end(w);
         ++slot) {
      if (plan.member_base(slot) == base) return true;
    }
  }
  return false;
}

/// tracker-reference: drives a DamageTracker through one deterministic op
/// script — delete, marginal, drop-probe, undelete, reset, collect/swap
/// probes — and checks every return value and aggregate against a
/// ReferenceKillState of the current deleted set. Counts and booleans must
/// match exactly; doubles within `cost_epsilon`, since the reference sums
/// from scratch where the tracker sums incrementally.
void CheckTrackerReference(const VseInstance& instance,
                           const OracleOptions& options,
                           std::vector<OracleViolation>* out) {
  if (instance.TotalDeletionTuples() == 0) return;
  std::shared_ptr<const CompiledInstance> plan_ref = instance.compiled();
  const CompiledInstance& plan = *plan_ref;
  const double eps = options.cost_epsilon;
  auto mismatch = [&](const std::string& what) {
    out->push_back({"tracker-reference", what});
  };
  auto differ = [&](double a, double b) { return std::abs(a - b) > eps; };

  DamageTracker tracker(instance);
  std::vector<uint8_t> deleted(plan.base_count(), 0);
  auto with = [&](uint32_t base, uint8_t flag) {
    std::vector<uint8_t> changed = deleted;
    changed[base] = flag;
    return ReferenceKillState(plan, changed);
  };
  // Weight of the preserved tuples killed in `after` but not in `before`.
  auto newly_killed = [&](const ReferenceKillState& before,
                          const ReferenceKillState& after) {
    double damage = 0.0;
    for (uint32_t t = 0; t < plan.tuple_count(); ++t) {
      if (!plan.is_deletion(t) && !before.Killed(plan, t) &&
          after.Killed(plan, t)) {
        damage += plan.weight(t);
      }
    }
    return damage;
  };

  // Full-state comparison at phase boundaries.
  auto compare_state = [&](const char* phase) -> bool {
    ReferenceKillState ref(plan, deleted);
    std::string where = std::string(phase) + ": ";
    if (tracker.unkilled_deletion_count() != ref.unkilled_deletions ||
        differ(tracker.killed_preserved_weight(),
               ref.killed_preserved_weight) ||
        differ(tracker.surviving_deletion_weight(),
               ref.surviving_deletion_weight)) {
      mismatch(where + "aggregates diverge (unkilled " +
               std::to_string(tracker.unkilled_deletion_count()) + " vs " +
               std::to_string(ref.unkilled_deletions) + ", kpw " +
               FormatCost(tracker.killed_preserved_weight()) + " vs " +
               FormatCost(ref.killed_preserved_weight) + ")");
      return false;
    }
    size_t deleted_count = 0;
    for (uint32_t b = 0; b < plan.base_count(); ++b) {
      deleted_count += deleted[b];
      if (tracker.IsDeletedBase(b) != (deleted[b] != 0)) {
        mismatch(where + "base " + std::to_string(b) + " deleted flag");
        return false;
      }
    }
    if (tracker.deleted_count() != deleted_count) {
      mismatch(where + "deleted_count " +
               std::to_string(tracker.deleted_count()) + " vs " +
               std::to_string(deleted_count));
      return false;
    }
    for (uint32_t w = 0; w < plan.witness_count(); ++w) {
      if (tracker.witness_hits(w) != ref.hits[w]) {
        mismatch(where + "witness " + std::to_string(w) + " hits " +
                 std::to_string(tracker.witness_hits(w)) + " vs " +
                 std::to_string(ref.hits[w]));
        return false;
      }
    }
    for (uint32_t d = 0; d < plan.tuple_count(); ++d) {
      uint32_t first_unhit = CompiledInstance::kNpos;
      for (uint32_t w = plan.tuple_witness_begin(d);
           w < plan.tuple_witness_end(d); ++w) {
        if (ref.hits[w] == 0) {
          first_unhit = w;
          break;
        }
      }
      if (tracker.IsKilledDense(d) != ref.Killed(plan, d) ||
          tracker.dead_witness_count(d) != ref.dead[d] ||
          tracker.FirstUnhitWitness(d) != first_unhit) {
        mismatch(where + "tuple " + std::to_string(d) +
                 " kill state diverges (killed " +
                 std::to_string(tracker.IsKilledDense(d)) + " vs " +
                 std::to_string(ref.Killed(plan, d)) + ")");
        return false;
      }
    }
    return true;
  };

  const std::vector<uint32_t>& candidates = plan.candidate_bases();
  // Phase 1: delete every candidate, checking the probes first.
  for (uint32_t base : candidates) {
    ReferenceKillState after = with(base, 1);
    double expected = newly_killed(ReferenceKillState(plan, deleted), after);
    double marginal = tracker.MarginalDamageBase(base);
    if (differ(marginal, expected)) {
      mismatch("marginal of base " + std::to_string(base) + ": " +
               FormatCost(marginal) + " vs " + FormatCost(expected));
      return;
    }
    if (differ(tracker.KpwAfterDeleteBase(base),
               after.killed_preserved_weight)) {
      mismatch("KpwAfterDeleteBase(" + std::to_string(base) + "): " +
               FormatCost(tracker.KpwAfterDeleteBase(base)) + " vs " +
               FormatCost(after.killed_preserved_weight));
      return;
    }
    double killed = tracker.DeleteBase(base);
    deleted[base] = 1;
    if (differ(killed, expected)) {
      mismatch("DeleteBase(" + std::to_string(base) + ") returned " +
               FormatCost(killed) + " vs " + FormatCost(expected));
      return;
    }
  }
  if (!compare_state("all-deleted")) return;

  // Phase 2: droppability probes, then undelete every other candidate
  // (reverse order) so re-kill paths run against a mixed state.
  ReferenceKillState all_deleted(plan, deleted);
  for (uint32_t base : candidates) {
    ReferenceKillState dropped = with(base, 0);
    bool expected = true;
    for (uint32_t t : plan.deletion_dense()) {
      if (all_deleted.Killed(plan, t) && !dropped.Killed(plan, t)) {
        expected = false;
      }
    }
    if (tracker.CanDropBase(base) != expected) {
      mismatch("CanDropBase(" + std::to_string(base) + ") returned " +
               std::to_string(!expected));
      return;
    }
  }
  for (size_t i = candidates.size(); i-- > 0;) {
    if (i % 2 == 0) continue;
    tracker.UndeleteBase(candidates[i]);
    deleted[candidates[i]] = 0;
  }
  if (!compare_state("half-undeleted")) return;

  // Phase 3: batch marginals over every candidate in the mixed state.
  std::vector<double> batch;
  tracker.MarginalDamageAll(candidates, &batch);
  ReferenceKillState mixed(plan, deleted);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (differ(batch[i], newly_killed(mixed, with(candidates[i], 1)))) {
      mismatch("MarginalDamageAll diverges at base " +
               std::to_string(candidates[i]) + " in the mixed state");
      return;
    }
  }

  // Phase 4: reset must restore the pristine state.
  tracker.Reset();
  std::fill(deleted.begin(), deleted.end(), 0);
  if (!compare_state("after-reset")) return;

  // Phase 5: rebuild a feasible-ish state, then exercise the exchange
  // probes: undelete one base, collect its revived ΔV tuples, and ask every
  // candidate whether swapping it in would improve.
  for (uint32_t base : candidates) {
    tracker.DeleteBase(base);
    deleted[base] = 1;
  }
  std::vector<uint32_t> revived;
  for (uint32_t base : candidates) {
    tracker.UndeleteBase(base);
    deleted[base] = 0;
    ReferenceKillState now(plan, deleted);
    std::vector<uint32_t> expected_revived;
    for (uint32_t t : plan.deletion_dense()) {
      if (!now.Killed(plan, t) && TupleHasMember(plan, t, base)) {
        expected_revived.push_back(t);
      }
    }
    tracker.CollectUnkilledDeletions(base, &revived);
    if (revived != expected_revived) {
      mismatch("CollectUnkilledDeletions(" + std::to_string(base) +
               ") returned " + std::to_string(revived.size()) +
               " tuple(s), reference " +
               std::to_string(expected_revived.size()));
      return;
    }
    double budget = tracker.killed_preserved_weight() + 1.0;
    for (uint32_t in : candidates) {
      if (deleted[in]) continue;
      ReferenceKillState swapped = with(in, 1);
      bool kills_all = true;
      for (uint32_t t : revived) {
        kills_all = kills_all && swapped.Killed(plan, t);
      }
      // A cost within epsilon of the budget has no well-defined answer.
      if (kills_all && !differ(swapped.killed_preserved_weight, budget)) {
        continue;
      }
      bool expected =
          kills_all && swapped.killed_preserved_weight < budget;
      if (tracker.SwapWouldImprove(in, revived, budget) != expected) {
        mismatch("SwapWouldImprove(" + std::to_string(in) + ", out=" +
                 std::to_string(base) + ") returned " +
                 std::to_string(!expected));
        return;
      }
    }
    tracker.DeleteBase(base);
    deleted[base] = 1;
  }
  compare_state("after-probes");
}

struct SolverOutcome {
  bool ran = false;  // ok result (refusals and budget exhaustion stay false)
  VseSolution solution;
};

/// Runs `solver`, folding unexpected statuses into violations. Refusals
/// (FailedPrecondition — wrong instance shape, or budget exhaustion before
/// any feasible incumbent existed) are expected and simply leave `ran`
/// false. Budget exhaustion WITH an incumbent comes back ok with
/// gap.optimal == false — callers needing a proven optimum must check it.
SolverOutcome RunSolver(VseSolver& solver, const VseInstance& instance,
                        std::vector<OracleViolation>* out) {
  SolverOutcome outcome;
  Result<VseSolution> result = solver.Solve(instance);
  if (!result.ok()) {
    if (result.status().code() != StatusCode::kFailedPrecondition) {
      out->push_back({"solver-error:" + solver.name(),
                      "unexpected status: " + result.status().ToString()});
    }
    return outcome;
  }
  outcome.ran = true;
  outcome.solution = std::move(*result);

  // The report must be reproducible from the deletion set alone, exactly:
  // MakeSolution builds it from the request, EvaluateDeletion by a full
  // scan, and both must add the same weights in the same order. Both ways
  // of ordering the request's candidates are checked, whichever one
  // MakeSolution picked for this request.
  const SideEffectReport& reported = outcome.solution.report;
  const DeletionSet& deletion = outcome.solution.deletion;
  const SideEffectReport full = EvaluateDeletion(instance, deletion);
  std::string difference = ReportDifference(full, reported);
  for (auto [order, label] :
       {std::pair{internal::CandidateOrder::kSort, "sorted candidates: "},
        std::pair{internal::CandidateOrder::kSweep, "swept candidates: "}}) {
    if (!difference.empty()) break;
    difference = ReportDifference(
        full, internal::RequestReport(instance, deletion, order));
    if (!difference.empty()) difference = label + difference;
  }
  if (!difference.empty()) {
    out->push_back({"report-consistency:" + solver.name(), difference});
  }
  if (solver.objective() == Objective::kStandard &&
      !outcome.solution.Feasible()) {
    out->push_back({"feasible:" + solver.name(),
                    std::to_string(reported.surviving_deletions.size()) +
                        " ΔV tuple(s) survive the deletion"});
  }
  return outcome;
}

}  // namespace

std::string ReportDifference(const SideEffectReport& expected,
                             const SideEffectReport& actual) {
  auto ids = [](const std::vector<ViewTupleId>& list) {
    std::string text = std::to_string(list.size()) + " [";
    for (size_t i = 0; i < list.size(); ++i) {
      text += (i == 0 ? "" : " ") + std::to_string(list[i].view) + ":" +
              std::to_string(list[i].tuple);
    }
    return text + "]";
  };
  auto counts = [](const std::vector<size_t>& list) {
    std::string text = "[";
    for (size_t i = 0; i < list.size(); ++i) {
      text += (i == 0 ? "" : " ") + std::to_string(list[i]);
    }
    return text + "]";
  };
  auto bits = [](double value) {
    std::ostringstream out;
    out.precision(17);
    out << value << " (0x" << std::hex << std::bit_cast<uint64_t>(value)
        << ")";
    return out.str();
  };
  auto differ = [](const std::string& field, const std::string& want,
                   const std::string& got) {
    return field + ": expected " + want + ", got " + got;
  };
  if (expected.eliminates_all_deletions != actual.eliminates_all_deletions) {
    return differ("eliminates_all_deletions",
                  std::to_string(expected.eliminates_all_deletions),
                  std::to_string(actual.eliminates_all_deletions));
  }
  if (expected.killed_preserved != actual.killed_preserved) {
    return differ("killed_preserved", ids(expected.killed_preserved),
                  ids(actual.killed_preserved));
  }
  if (expected.surviving_deletions != actual.surviving_deletions) {
    return differ("surviving_deletions", ids(expected.surviving_deletions),
                  ids(actual.surviving_deletions));
  }
  if (expected.side_effect_count != actual.side_effect_count) {
    return differ("side_effect_count",
                  std::to_string(expected.side_effect_count),
                  std::to_string(actual.side_effect_count));
  }
  if (std::bit_cast<uint64_t>(expected.side_effect_weight) !=
      std::bit_cast<uint64_t>(actual.side_effect_weight)) {
    return differ("side_effect_weight", bits(expected.side_effect_weight),
                  bits(actual.side_effect_weight));
  }
  if (expected.per_view_side_effect != actual.per_view_side_effect) {
    return differ("per_view_side_effect",
                  counts(expected.per_view_side_effect),
                  counts(actual.per_view_side_effect));
  }
  if (std::bit_cast<uint64_t>(expected.balanced_cost) !=
      std::bit_cast<uint64_t>(actual.balanced_cost)) {
    return differ("balanced_cost", bits(expected.balanced_cost),
                  bits(actual.balanced_cost));
  }
  if (expected.source_deletion_count != actual.source_deletion_count) {
    return differ("source_deletion_count",
                  std::to_string(expected.source_deletion_count),
                  std::to_string(actual.source_deletion_count));
  }
  return "";
}

std::vector<std::string> OracleNames() {
  return {"evaluator-crosscheck", "serialize-roundtrip",
          "plan-roundtrip",       "plan-greedy",
          "tracker-reference",    "solver-error",
          "feasible",             "report-consistency",
          "cost-vs-exact",        "dp-tree-exact",
          "dp-tree-balanced-exact", "ratio-primal-dual",
          "ratio-lowdeg",         "ratio-claim1",
          "balanced-cost-vs-exact", "ilp-vs-exact",
          "ilp-bound-sandwich"};
}

std::vector<OracleViolation> CheckOracles(const VseInstance& instance,
                                          const OracleOptions& options) {
  std::vector<OracleViolation> violations;

  CheckEvaluatorCrosscheck(instance, options, &violations);
  if (options.check_serialization) {
    CheckSerializeRoundTrip(instance, &violations);
  }
  CheckPlanRoundTrip(instance, &violations);
  CheckPlanGreedyDifferential(instance, &violations);
  CheckTrackerReference(instance, options, &violations);

  // Every approximation solver must produce a feasible, internally consistent
  // solution whether or not the exact optimum is computable.
  std::vector<std::unique_ptr<VseSolver>> approximations =
      StandardApproximationSolvers();
  std::vector<SolverOutcome> outcomes;
  outcomes.reserve(approximations.size());
  for (const auto& solver : approximations) {
    outcomes.push_back(RunSolver(*solver, instance, &violations));
  }

  // Exact-optimum-based oracles, gated on instance size.
  if (instance.CandidateTuples().size() > options.max_candidates_for_exact) {
    return violations;
  }
  ExactSolver exact(options.exact_node_budget);
  SolverOutcome optimal = RunSolver(exact, instance, &violations);
  // Budget exhaustion now returns the incumbent with gap.optimal == false;
  // only a proven optimum may anchor the OPT-based oracles.
  const bool have_opt = optimal.ran && optimal.solution.gap.optimal;

  // The ILP runs with its deadline disabled (wall-clock aborts would make
  // the violation set machine-dependent) and the exact solver's node budget.
  IlpOptions ilp_options;
  ilp_options.node_budget = options.exact_node_budget;
  IlpSolver ilp_solver(Objective::kStandard, ilp_options);
  SolverOutcome ilp = RunSolver(ilp_solver, instance, &violations);
  if (ilp.ran) {
    const OptimalityGap& gap = ilp.solution.gap;
    // The certificate itself must be coherent before anything leans on it.
    if (!gap.has_bound ||
        gap.lower_bound > gap.upper_bound + options.cost_epsilon ||
        std::abs(gap.upper_bound - ilp.solution.Cost()) >
            options.cost_epsilon ||
        (gap.optimal &&
         gap.upper_bound - gap.lower_bound > options.cost_epsilon)) {
      violations.push_back(
          {"ilp-bound-sandwich:ilp",
           "inconsistent certificate: lower " + FormatCost(gap.lower_bound) +
               ", upper " + FormatCost(gap.upper_bound) + ", cost " +
               FormatCost(ilp.solution.Cost()) +
               (gap.optimal ? " (claimed optimal)" : "")});
    }
    if (have_opt &&
        std::abs(ilp.solution.Cost() - optimal.solution.Cost()) >
            options.cost_epsilon) {
      violations.push_back(
          {"ilp-vs-exact",
           "ilp cost " + FormatCost(ilp.solution.Cost()) +
               " != exact optimum " + FormatCost(optimal.solution.Cost())});
    }
    if (have_opt &&
        optimal.solution.Cost() < gap.lower_bound - options.cost_epsilon) {
      violations.push_back(
          {"ilp-bound-sandwich:exact",
           "exact optimum " + FormatCost(optimal.solution.Cost()) +
               " beats the ilp lower bound " + FormatCost(gap.lower_bound)});
    }
    // Every feasible solution costs at least OPT >= the certified lower
    // bound; a ratio solver additionally stays within ratio * upper (since
    // OPT <= upper, this holds even when the optimum itself is unknown).
    // The guarantee-vs-upper checks only run when the proven optimum is
    // missing: with OPT in hand the ratio-primal-dual / ratio-lowdeg
    // oracles below check the tighter bound, and duplicating them here
    // would double-fire under the lowdeg_ratio_scale bug injection.
    for (size_t i = 0; i < approximations.size(); ++i) {
      if (!outcomes[i].ran) continue;
      const std::string& name = approximations[i]->name();
      double cost = outcomes[i].solution.Cost();
      if (cost < gap.lower_bound - options.cost_epsilon) {
        violations.push_back(
            {"ilp-bound-sandwich:" + name,
             name + " cost " + FormatCost(cost) +
                 " beats the certified lower bound " +
                 FormatCost(gap.lower_bound)});
      }
      if (have_opt) continue;
      if (name == "primal-dual") {
        double l = static_cast<double>(instance.max_arity());
        if (cost > l * gap.upper_bound + options.cost_epsilon) {
          violations.push_back(
              {"ilp-bound-sandwich:" + name,
               name + " cost " + FormatCost(cost) + " > l=" + FormatCost(l) +
                   " * ilp incumbent " + FormatCost(gap.upper_bound)});
        }
      }
      if (name == "lowdeg-tree") {
        double bound =
            options.lowdeg_ratio_scale * 2.0 *
            std::sqrt(static_cast<double>(instance.TotalViewTuples())) *
            std::max(gap.upper_bound, 1.0);
        if (cost > bound + options.cost_epsilon) {
          violations.push_back(
              {"ilp-bound-sandwich:" + name,
               name + " cost " + FormatCost(cost) +
                   " > ratio bound off the ilp incumbent " +
                   FormatCost(bound)});
        }
      }
    }
  }
  if (have_opt) {
    double opt = optimal.solution.Cost();
    for (size_t i = 0; i < approximations.size(); ++i) {
      if (!outcomes[i].ran) continue;
      const std::string& name = approximations[i]->name();
      double cost = outcomes[i].solution.Cost();
      if (cost < opt - options.cost_epsilon) {
        violations.push_back(
            {"cost-vs-exact:" + name,
             name + " cost " + FormatCost(cost) +
                 " beats the exact optimum " + FormatCost(opt)});
      }
      if (name == "dp-tree" &&
          std::abs(cost - opt) > options.cost_epsilon) {
        violations.push_back(
            {"dp-tree-exact", "Algorithm 4 cost " + FormatCost(cost) +
                                  " != exact optimum " + FormatCost(opt)});
      }
      if (name == "primal-dual") {
        double l = static_cast<double>(instance.max_arity());
        if (cost > l * opt + options.cost_epsilon) {
          violations.push_back(
              {"ratio-primal-dual",
               "Theorem 3: cost " + FormatCost(cost) + " > l=" +
                   FormatCost(l) + " * OPT=" + FormatCost(opt)});
        }
      }
      if (name == "lowdeg-tree") {
        double bound =
            options.lowdeg_ratio_scale * 2.0 *
            std::sqrt(static_cast<double>(instance.TotalViewTuples())) *
            std::max(opt, 1.0);
        if (cost > bound + options.cost_epsilon) {
          violations.push_back(
              {"ratio-lowdeg", "Theorem 4: cost " + FormatCost(cost) +
                                   " > bound " + FormatCost(bound) +
                                   " (OPT=" + FormatCost(opt) + ")"});
        }
      }
      if (name == "rbsc-lowdeg" && instance.all_unique_witness()) {
        double l = static_cast<double>(instance.max_arity());
        double v = static_cast<double>(instance.TotalViewTuples());
        double dv = static_cast<double>(instance.TotalDeletionTuples());
        double bound = 2.0 * std::sqrt(l * v * std::log(std::max(2.0, dv))) *
                       std::max(opt, 1.0);
        if (cost > bound + options.cost_epsilon) {
          violations.push_back(
              {"ratio-claim1", "Claim 1: cost " + FormatCost(cost) +
                                   " > bound " + FormatCost(bound) +
                                   " (OPT=" + FormatCost(opt) + ")"});
        }
      }
    }
  }

  // Balanced objective: Algorithm 4's balanced variant must match the exact
  // balanced optimum, and the pnpsc heuristic must not beat it.
  ExactBalancedSolver exact_balanced(options.exact_node_budget);
  SolverOutcome balanced_opt = RunSolver(exact_balanced, instance, &violations);
  const bool have_balanced_opt =
      balanced_opt.ran && balanced_opt.solution.gap.optimal;
  IlpSolver ilp_balanced_solver(Objective::kBalanced, ilp_options);
  SolverOutcome ilp_balanced =
      RunSolver(ilp_balanced_solver, instance, &violations);
  if (ilp_balanced.ran) {
    const OptimalityGap& gap = ilp_balanced.solution.gap;
    double cost = ilp_balanced.solution.BalancedCost();
    if (!gap.has_bound ||
        gap.lower_bound > gap.upper_bound + options.cost_epsilon ||
        std::abs(gap.upper_bound - cost) > options.cost_epsilon ||
        (gap.optimal &&
         gap.upper_bound - gap.lower_bound > options.cost_epsilon)) {
      violations.push_back(
          {"ilp-bound-sandwich:ilp-balanced",
           "inconsistent certificate: lower " + FormatCost(gap.lower_bound) +
               ", upper " + FormatCost(gap.upper_bound) + ", cost " +
               FormatCost(cost) +
               (gap.optimal ? " (claimed optimal)" : "")});
    }
    if (have_balanced_opt &&
        std::abs(cost - balanced_opt.solution.BalancedCost()) >
            options.cost_epsilon) {
      violations.push_back(
          {"ilp-vs-exact:ilp-balanced",
           "ilp-balanced cost " + FormatCost(cost) +
               " != exact balanced optimum " +
               FormatCost(balanced_opt.solution.BalancedCost())});
    }
  }
  if (have_balanced_opt) {
    double opt = balanced_opt.solution.BalancedCost();
    std::unique_ptr<VseSolver> dp_balanced = MakeSolver("dp-tree-balanced");
    SolverOutcome dp = RunSolver(*dp_balanced, instance, &violations);
    if (dp.ran &&
        std::abs(dp.solution.BalancedCost() - opt) > options.cost_epsilon) {
      violations.push_back(
          {"dp-tree-balanced-exact",
           "balanced Algorithm 4 cost " +
               FormatCost(dp.solution.BalancedCost()) +
               " != exact balanced optimum " + FormatCost(opt)});
    }
    std::unique_ptr<VseSolver> pnpsc = MakeSolver("balanced-pnpsc");
    SolverOutcome heuristic = RunSolver(*pnpsc, instance, &violations);
    if (heuristic.ran &&
        heuristic.solution.BalancedCost() < opt - options.cost_epsilon) {
      violations.push_back(
          {"balanced-cost-vs-exact:balanced-pnpsc",
           "balanced-pnpsc cost " +
               FormatCost(heuristic.solution.BalancedCost()) +
               " beats the exact balanced optimum " + FormatCost(opt)});
    }
  }
  return violations;
}

}  // namespace testing
}  // namespace delprop
