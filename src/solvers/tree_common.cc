#include "solvers/tree_common.h"

#include <algorithm>

namespace delprop {

namespace {

constexpr uint32_t kNpos = CompiledInstance::kNpos;

// The refusal of a ΔV witness that is not a path, off the solvers' hot
// path: it renders the view tuple into its message.
// delprop-hot-stop
Status NotAPath(const VseInstance& instance, const ViewTupleId& id) {
  return Status::FailedPrecondition("witness of " +
                                    instance.RenderViewTuple(id) +
                                    " is not a path in the data dual graph");
}

}  // namespace

void TreeStructure::CollectTouched(const CompiledInstance& plan) {
  // Clear the previous build's marks first: its ids index the arrays as
  // they were sized then, whatever the core is now.
  for (uint32_t w : witnesses_) forest_witness_[w] = kNpos;
  for (uint32_t b : bases_) base_seen_[b] = 0;
  witnesses_.clear();
  bases_.clear();
  forest_witness_.resize(plan.witness_count(), kNpos);
  base_seen_.resize(plan.base_count(), 0);

  // Breadth-first over the base-witness incidence from ΔV's witnesses: a
  // witness reaches its members, a base every witness of its occurrence
  // row. witnesses_ doubles as the queue; a visited witness is marked 0
  // until the numbering below.
  auto visit = [&](uint32_t w) {
    if (forest_witness_[w] != kNpos) return;
    forest_witness_[w] = 0;
    // delprop-lint: hot-path-allocation-ok grows to the largest request, then keeps its capacity
    witnesses_.push_back(w);
  };
  for (uint32_t dense : plan.deletion_dense()) {
    for (uint32_t w = plan.tuple_witness_begin(dense);
         w < plan.tuple_witness_end(dense); ++w) {
      visit(w);
    }
  }
  for (size_t head = 0; head < witnesses_.size(); ++head) {
    uint32_t w = witnesses_[head];
    for (uint32_t slot = plan.member_begin(w); slot < plan.member_end(w);
         ++slot) {
      uint32_t b = plan.member_base(slot);
      if (base_seen_[b]) continue;
      base_seen_[b] = 1;
      // delprop-lint: hot-path-allocation-ok grows to the largest request, then keeps its capacity
      bases_.push_back(b);
      for (uint32_t occ = plan.occ_begin(b); occ < plan.occ_end(b); ++occ) {
        visit(plan.occ_witness(occ));
      }
    }
  }

  // Ascending witness id is the (view, tuple, witness) walk order.
  std::sort(witnesses_.begin(), witnesses_.end());
  for (size_t i = 0; i < witnesses_.size(); ++i) {
    forest_witness_[witnesses_[i]] = static_cast<uint32_t>(i);
  }
}

void TreeStructure::BuildForest(const VseInstance& instance,
                                const CompiledInstance& plan) {
  plan_ = &plan;
  CollectTouched(plan);

  // The forest over the touched witnesses, in witness order, each member
  // keyed by its core base id.
  joined_.clear();
  joined_first_.clear();
  joined_first_.reserve(instance.view_count() + 1);
  for (size_t v = 0; v < instance.view_count(); ++v) {
    joined_first_.push_back(static_cast<uint32_t>(joined_.size()));
    DataForest::AppendJoinedAtoms(instance.view(v).query(), &joined_);
  }
  joined_first_.push_back(static_cast<uint32_t>(joined_.size()));
  const std::vector<uint32_t>& member_base = plan.core()->witness_member_base;
  forest.Reset(plan.base_count(), bases_.size());
  for (uint32_t w : witnesses_) {
    uint32_t dense = plan.witness_owner(w);
    ViewTupleId id = plan.IdOf(dense);
    uint32_t begin = plan.member_begin(w);
    uint32_t end = plan.member_end(w);
    member_refs_.clear();
    member_refs_.reserve(end - begin);
    for (uint32_t slot = begin; slot < end; ++slot) {
      member_refs_.push_back(plan.base_ref(member_base[slot]));
    }
    std::span<const JoinedAtoms> joined(
        joined_.data() + joined_first_[id.view],
        joined_first_[id.view + 1] - joined_first_[id.view]);
    forest.AddWitness(id.view, id.tuple, w - plan.tuple_witness_begin(dense),
                      std::span<const uint32_t>(member_base.data() + begin,
                                                end - begin),
                      member_refs_, joined);
  }
  forest.Finish();
}

Status TreeStructure::Build(const VseInstance& instance,
                            const CompiledInstance& plan, TreeMode mode) {
  if (!instance.all_unique_witness()) {
    return Status::FailedPrecondition(
        "tree algorithms require unique-witness (key-preserving) views");
  }
  BuildForest(instance, plan);
  if (!forest.is_forest()) {
    return Status::FailedPrecondition(
        "data dual graph has a cycle: not a tree case");
  }

  if (mode == TreeMode::kVerticalAll) {
    // The pivot search checks every witness vertical under the pivot
    // rooting, so no witness needs checking again below.
    if (!forest.RootAtPivots(&rooting, &scratch_)) {
      return Status::FailedPrecondition(
          "no pivot rooting exists: Algorithm 4 does not apply");
    }
  } else {
    forest.RootAt({}, &rooting, &scratch_);
  }
  const std::vector<size_t>& depth = rooting.depth;

  // Path records for the ΔV witnesses, in witness order (ΔV is ascending
  // dense id), and the count of each node's through row.
  size_t n = forest.node_count();
  delta_paths.clear();
  delta_paths.reserve(plan.deletion_dense().size());
  delta_through_first.assign(n + 1, 0);
  for (uint32_t dense : plan.deletion_dense()) {
    const ForestWitness& witness =
        forest.witnesses()[forest_witness_[plan.tuple_witness_begin(dense)]];
    if (mode == TreeMode::kDeltaPaths &&
        !forest.WitnessIsPath(witness, rooting)) {
      return NotAPath(instance,
                      ViewTupleId{witness.view_index, witness.tuple_index});
    }
    PathInfo info;
    info.nodes = witness.nodes;
    info.weight = plan.weight(dense);
    info.top_depth = depth[info.nodes[0]];
    info.bottom_node = info.nodes[0];
    info.lca_node = info.nodes[0];
    for (size_t node : info.nodes) {
      if (depth[node] < info.top_depth) {
        info.top_depth = depth[node];
        info.lca_node = node;
      }
      if (depth[node] > depth[info.bottom_node]) info.bottom_node = node;
      ++delta_through_first[node + 1];
    }
    delta_paths.push_back(info);
  }
  for (size_t node = 0; node < n; ++node) {
    delta_through_first[node + 1] += delta_through_first[node];
  }

  // Each path appended to the through rows of its nodes, in path order.
  delta_through_paths.resize(delta_through_first[n]);
  cursor_.assign(delta_through_first.begin(), delta_through_first.end() - 1);
  for (size_t p = 0; p < delta_paths.size(); ++p) {
    for (uint32_t node : delta_paths[p].nodes) {
      delta_through_paths[cursor_[node]++] = static_cast<uint32_t>(p);
    }
  }
  return Status::Ok();
}

}  // namespace delprop
