#include "dp/solver.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "plan/compiled_instance.h"

namespace delprop {

namespace {

// Candidate states of the classification pass.
constexpr uint8_t kUnchanged = 0;  // preserved survivor or eliminated ΔV
constexpr uint8_t kSurvivingDeletion = 1;
constexpr uint8_t kKilledPreserved = 2;

// Under kAuto, requests whose candidate rows hold at least 1/kSweepRatio of
// the view tuples mark them in per-tuple and per-base arrays and sweep the
// tuple marks in ascending order: one sequential pass, about the cost of
// EvaluateDeletion's scan, and still proportional to the request. Smaller
// requests sort their candidates and binary-search the deleted bases, which
// touches nothing else but costs far more per candidate than the sweep per
// tuple (on a shared 4-core Xeon at 364,500 tuples, ~300 ns against ~6 ns).
constexpr size_t kSweepRatio = 32;

}  // namespace

namespace internal {

// The report of `deletion`, built from the request instead of a scan over
// every view tuple. Every view tuple has at least one non-empty witness
// (ValidateWitnesses and ApplyDelta keep this), so a tuple outside ΔV and
// outside the kill rows of the deleted bases keeps an unhit witness: it
// survives as a preserved tuple and never appears in the report. The
// remaining candidates are visited in ascending dense id, the order of
// EvaluateDeletion's full scan, so every list comes out in the same order
// and every sum adds the same weights in the same order: the report equals
// EvaluateDeletion's field for field, doubles bit for bit.
SideEffectReport RequestReport(const VseInstance& instance,
                               const DeletionSet& deletion,
                               CandidateOrder order) {
  SideEffectReport report;
  report.source_deletion_count = deletion.size();
  report.per_view_side_effect.assign(instance.view_count(), 0);

  std::shared_ptr<const CompiledInstance> plan = instance.compiled();
  const std::vector<uint32_t>& delta_v = plan->deletion_dense();
  // Refs outside every witness cannot affect any view tuple; they count
  // only toward source_deletion_count above.
  std::vector<uint32_t> deleted;
  deleted.reserve(deletion.size());
  size_t candidate_rows = delta_v.size();
  for (const TupleRef& ref : deletion) {
    uint32_t base = plan->FindBase(ref);
    if (base == CompiledInstance::kNpos) continue;
    deleted.push_back(base);
    candidate_rows += plan->kill_end(base) - plan->kill_begin(base);
  }
  std::sort(deleted.begin(), deleted.end());

  // The candidates, ascending and deduplicated, and a membership test for
  // the deleted bases. Both ways yield the same list and the same answers.
  std::vector<uint32_t> candidates;
  std::vector<uint8_t> base_marks;  // the sweep's per-base marks
  if (order == CandidateOrder::kAuto) {
    order = candidate_rows * kSweepRatio < plan->tuple_count()
                ? CandidateOrder::kSort
                : CandidateOrder::kSweep;
  }
  if (order == CandidateOrder::kSort) {
    candidates.reserve(candidate_rows);
    candidates.assign(delta_v.begin(), delta_v.end());
    for (uint32_t base : deleted) {
      for (uint32_t slot = plan->kill_begin(base); slot < plan->kill_end(base);
           ++slot) {
        candidates.push_back(plan->kill_tuple(slot));
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
  } else {
    std::vector<uint8_t> tuple_marks(plan->tuple_count(), 0);
    size_t marked = 0;
    auto mark = [&](uint32_t dense) {
      marked += tuple_marks[dense] == 0;
      tuple_marks[dense] = 1;
    };
    for (uint32_t dense : delta_v) mark(dense);
    for (uint32_t base : deleted) {
      for (uint32_t slot = plan->kill_begin(base); slot < plan->kill_end(base);
           ++slot) {
        mark(plan->kill_tuple(slot));
      }
    }
    candidates.reserve(marked);
    for (uint32_t dense = 0; dense < plan->tuple_count(); ++dense) {
      if (tuple_marks[dense] != 0) candidates.push_back(dense);
    }
    base_marks.assign(plan->base_count(), 0);
    for (uint32_t base : deleted) base_marks[base] = 1;
  }
  auto is_deleted = [&](uint32_t base) {
    return base_marks.empty()
               ? std::binary_search(deleted.begin(), deleted.end(), base)
               : base_marks[base] != 0;
  };

  // Classify first, so the two id lists callers keep are sized exactly.
  std::vector<uint8_t> state(candidates.size(), kUnchanged);
  size_t surviving_count = 0;
  size_t killed_count = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    uint32_t dense = candidates[i];
    // Survives iff some witness is disjoint from ΔD.
    bool survives = false;
    uint32_t wend = plan->tuple_witness_end(dense);
    for (uint32_t w = plan->tuple_witness_begin(dense); w < wend; ++w) {
      bool hit = false;
      uint32_t mend = plan->member_end(w);
      for (uint32_t slot = plan->member_begin(w); slot < mend; ++slot) {
        if (is_deleted(plan->member_base(slot))) {
          hit = true;
          break;
        }
      }
      if (!hit) {
        survives = true;
        break;
      }
    }
    if (plan->is_deletion(dense)) {
      if (survives) {
        state[i] = kSurvivingDeletion;
        ++surviving_count;
      }
    } else if (!survives) {
      state[i] = kKilledPreserved;
      ++killed_count;
    }
  }

  report.surviving_deletions.reserve(surviving_count);
  report.killed_preserved.reserve(killed_count);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (state[i] == kUnchanged) continue;
    uint32_t dense = candidates[i];
    ViewTupleId id = plan->IdOf(dense);
    if (state[i] == kSurvivingDeletion) {
      report.surviving_deletions.push_back(id);
      report.balanced_cost += plan->weight(dense);
    } else {
      report.killed_preserved.push_back(id);
      report.side_effect_count += 1;
      report.side_effect_weight += plan->weight(dense);
      report.balanced_cost += plan->weight(dense);
      report.per_view_side_effect[id.view] += 1;
    }
  }
  report.eliminates_all_deletions = report.surviving_deletions.empty();
  return report;
}

}  // namespace internal

// Result materialization: runs once per solve to evaluate and package the
// final deletion set, after the solver's inner loops have finished.
// delprop-hot-stop
VseSolution MakeSolution(const VseInstance& instance, DeletionSet deletion,
                         std::string solver_name) {
  VseSolution solution;
  solution.report = internal::RequestReport(instance, deletion,
                                            internal::CandidateOrder::kAuto);
  solution.deletion = std::move(deletion);
  solution.solver_name = std::move(solver_name);
  return solution;
}

}  // namespace delprop
