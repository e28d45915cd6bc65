#include "ilp/covering_model.h"

#include <algorithm>

namespace delprop {

namespace {
constexpr uint32_t kNpos = CompiledInstance::kNpos;
}  // namespace

uint32_t CoveringModel::Find(uint32_t base) {
  // Path halving: every candidate's parent chain ends at its root.
  while (parent_[base] != base) {
    parent_[base] = parent_[parent_[base]];
    base = parent_[base];
  }
  return base;
}

void CoveringModel::Union(uint32_t a, uint32_t b) {
  uint32_t ra = Find(a);
  uint32_t rb = Find(b);
  if (ra == rb) return;
  // Attach the larger root under the smaller: roots stay the minimal dense
  // id of their component, independent of union order.
  if (ra < rb) {
    parent_[rb] = ra;
  } else {
    parent_[ra] = rb;
  }
}

void CoveringModel::Decompose(const CompiledInstance& plan) {
  const uint32_t base_count = plan.base_count();
  const uint32_t tuple_count = plan.tuple_count();
  const std::vector<uint32_t>& candidates = plan.candidate_bases();
  const std::vector<uint32_t>& deltas = plan.deletion_dense();
  standard_infeasible_ = false;
  orphan_delta_weight_ = 0.0;
  tuples_visited_ = deltas.size();

  // The per-base arrays are all kNpos between calls, so only a new base
  // count refills them; the visit stamps start over with a new tuple count
  // and are refilled when the epoch wraps.
  if (parent_.size() != base_count) {
    parent_.assign(base_count, kNpos);
    comp_of_base_.assign(base_count, kNpos);
  }
  if (visit_stamp_.size() != tuple_count) {
    visit_stamp_.assign(tuple_count, 0);
    visit_epoch_ = 0;
  }
  if (++visit_epoch_ == 0) {
    std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0);
    visit_epoch_ = 1;
  }

  // Singleton sets over the candidates.
  for (uint32_t b : candidates) parent_[b] = b;

  // Constraint rows: every ΔV tuple unions the members of all its witnesses
  // (they are all candidates by definition of the candidate set). A witness
  // with no members can never be hit — the standard objective is infeasible.
  for (uint32_t dense : deltas) {
    uint32_t anchor = kNpos;
    uint32_t wend = plan.tuple_witness_end(dense);
    for (uint32_t w = plan.tuple_witness_begin(dense); w < wend; ++w) {
      if (plan.member_begin(w) == plan.member_end(w)) {
        standard_infeasible_ = true;
      }
      for (uint32_t slot = plan.member_begin(w); slot < plan.member_end(w);
           ++slot) {
        uint32_t b = plan.member_base(slot);
        if (anchor == kNpos) {
          anchor = b;
        } else {
          Union(anchor, b);
        }
      }
    }
  }

  // Objective terms: a preserved tuple couples its candidate members only
  // when a candidate deletion can actually kill it, i.e. when every witness
  // holds at least one candidate. Checked first, unioned second — unioning
  // through an unkillable tuple would merge components that never interact.
  // Such a tuple lies in some candidate's kill row, so the kill rows are the
  // only tuples to visit; the stamp visits each once.
  for (uint32_t candidate : candidates) {
    plan.ForEachKilled(candidate, [&](uint32_t t) {
      if (plan.is_deletion(t) || visit_stamp_[t] == visit_epoch_) return;
      visit_stamp_[t] = visit_epoch_;
      ++tuples_visited_;
      uint32_t wend = plan.tuple_witness_end(t);
      bool killable = true;
      for (uint32_t w = plan.tuple_witness_begin(t); killable && w < wend;
           ++w) {
        bool has_candidate = false;
        for (uint32_t slot = plan.member_begin(w);
             !has_candidate && slot < plan.member_end(w); ++slot) {
          has_candidate = parent_[plan.member_base(slot)] != kNpos;
        }
        killable = has_candidate;
      }
      if (!killable) return;
      uint32_t anchor = kNpos;
      for (uint32_t w = plan.tuple_witness_begin(t); w < wend; ++w) {
        for (uint32_t slot = plan.member_begin(w); slot < plan.member_end(w);
             ++slot) {
          uint32_t b = plan.member_base(slot);
          if (parent_[b] == kNpos) continue;
          if (anchor == kNpos) {
            anchor = b;
          } else {
            Union(anchor, b);
          }
        }
      }
    });
  }

  // Number the components by first appearance over ascending candidate id;
  // comp_of_base_ doubles as the root -> component map. Union keeps every
  // root at its component's minimal dense id whatever the union order, so
  // the numbering depends only on the components.
  uint32_t comp_count = 0;
  for (uint32_t b : candidates) {
    uint32_t root = Find(b);
    if (comp_of_base_[root] == kNpos) comp_of_base_[root] = comp_count++;
  }
  for (uint32_t b : candidates) comp_of_base_[b] = comp_of_base_[Find(b)];

  // Bucket the candidate bases (ascending within each component: the fill
  // pass walks candidates in ascending dense order).
  cursor_.assign(comp_count, 0);
  for (uint32_t b : candidates) ++cursor_[comp_of_base_[b]];
  comp_base_first_.resize(comp_count + 1);
  comp_base_first_[0] = 0;
  for (uint32_t c = 0; c < comp_count; ++c) {
    comp_base_first_[c + 1] = comp_base_first_[c] + cursor_[c];
    cursor_[c] = comp_base_first_[c];
  }
  comp_bases_.resize(candidates.size());
  for (uint32_t b : candidates) comp_bases_[cursor_[comp_of_base_[b]]++] = b;

  // Bucket the ΔV tuples (ascending dense within each component). A tuple's
  // component is that of any witness member — Decompose unioned them all.
  cursor_.assign(comp_count, 0);
  uint32_t orphan_count = 0;
  for (uint32_t dense : deltas) {
    uint32_t c = kNpos;
    uint32_t wend = plan.tuple_witness_end(dense);
    for (uint32_t w = plan.tuple_witness_begin(dense);
         c == kNpos && w < wend; ++w) {
      if (plan.member_begin(w) < plan.member_end(w)) {
        c = comp_of_base_[plan.member_base(plan.member_begin(w))];
      }
    }
    if (c == kNpos) {
      // No candidate in any witness: the tuple survives every deletion.
      orphan_delta_weight_ += plan.weight(dense);
      ++orphan_count;
    } else {
      ++cursor_[c];
    }
  }
  comp_tuple_first_.resize(comp_count + 1);
  comp_tuple_first_[0] = 0;
  for (uint32_t c = 0; c < comp_count; ++c) {
    comp_tuple_first_[c + 1] = comp_tuple_first_[c] + cursor_[c];
    cursor_[c] = comp_tuple_first_[c];
  }
  comp_tuples_.resize(deltas.size() - orphan_count);
  comp_delta_weight_.assign(comp_count, 0.0);
  for (uint32_t dense : deltas) {
    uint32_t c = kNpos;
    uint32_t wend = plan.tuple_witness_end(dense);
    for (uint32_t w = plan.tuple_witness_begin(dense);
         c == kNpos && w < wend; ++w) {
      if (plan.member_begin(w) < plan.member_end(w)) {
        c = comp_of_base_[plan.member_base(plan.member_begin(w))];
      }
    }
    if (c == kNpos) continue;
    comp_tuples_[cursor_[c]++] = dense;
    comp_delta_weight_[c] += plan.weight(dense);
  }

  // Restore the all-kNpos invariant: only candidates were written.
  for (uint32_t b : candidates) {
    parent_[b] = kNpos;
    comp_of_base_[b] = kNpos;
  }
}

}  // namespace delprop
