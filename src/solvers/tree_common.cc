#include "solvers/tree_common.h"

#include <algorithm>

#include "plan/compiled_instance.h"

namespace delprop {

// Per-solve materialization: builds the data forest, rooting, and path
// tables once before a tree solver's DP/primal-dual loops run over them.
// delprop-hot-stop
Result<TreeStructure> BuildTreeStructure(const VseInstance& instance,
                                         TreeMode mode) {
  if (!instance.all_unique_witness()) {
    return Status::FailedPrecondition(
        "tree algorithms require unique-witness (key-preserving) views");
  }
  TreeStructure structure(DataForest::Build(instance.ViewPointers()));
  const DataForest& forest = structure.forest;
  if (!forest.is_forest()) {
    return Status::FailedPrecondition(
        "data dual graph has a cycle: not a tree case");
  }

  if (mode == TreeMode::kVerticalAll) {
    // FindPivotRoots checks every witness vertical under the pivot rooting,
    // so no witness needs checking again below.
    std::optional<std::vector<size_t>> pivots = forest.FindPivotRoots();
    if (!pivots.has_value()) {
      return Status::FailedPrecondition(
          "no pivot rooting exists: Algorithm 4 does not apply");
    }
    structure.rooting = forest.RootAt(*pivots);
  } else {
    structure.rooting = forest.RootAt();
  }
  const std::vector<size_t>& depth = structure.rooting.depth;

  // Count pass: classify each witness (one per view tuple) and size the
  // per-node through rows.
  std::shared_ptr<const CompiledInstance> plan = instance.compiled();
  const std::vector<ForestWitness>& witnesses = forest.witnesses();
  size_t n = forest.node_count();
  structure.delta_through_first.assign(n + 1, 0);
  structure.preserved_through_first.assign(n + 1, 0);
  size_t delta_count = 0;
  for (const ForestWitness& witness : witnesses) {
    ViewTupleId id{witness.view_index, witness.tuple_index};
    bool is_deletion = plan->is_deletion(plan->DenseOf(id));
    if (is_deletion && mode == TreeMode::kDeltaPaths &&
        !forest.WitnessIsPath(witness, structure.rooting)) {
      return Status::FailedPrecondition(
          "witness of " + instance.RenderViewTuple(id) +
          " is not a path in the data dual graph");
    }
    delta_count += is_deletion;
    std::vector<uint32_t>& first = is_deletion
                                       ? structure.delta_through_first
                                       : structure.preserved_through_first;
    for (uint32_t node : witness.nodes) ++first[node + 1];
  }
  for (size_t node = 0; node < n; ++node) {
    structure.delta_through_first[node + 1] +=
        structure.delta_through_first[node];
    structure.preserved_through_first[node + 1] +=
        structure.preserved_through_first[node];
  }

  // Fill pass: path records in witness order, each appended to the through
  // rows of its nodes.
  structure.delta_paths.reserve(delta_count);
  structure.preserved_paths.reserve(witnesses.size() - delta_count);
  structure.delta_through_paths.resize(structure.delta_through_first[n]);
  structure.preserved_through_paths.resize(
      structure.preserved_through_first[n]);
  std::vector<uint32_t> delta_cursor(structure.delta_through_first.begin(),
                                     structure.delta_through_first.end() - 1);
  std::vector<uint32_t> preserved_cursor(
      structure.preserved_through_first.begin(),
      structure.preserved_through_first.end() - 1);
  for (const ForestWitness& witness : witnesses) {
    ViewTupleId id{witness.view_index, witness.tuple_index};
    uint32_t dense = plan->DenseOf(id);
    bool is_deletion = plan->is_deletion(dense);

    TreeStructure::PathInfo info;
    info.id = id;
    info.nodes = witness.nodes;
    info.weight = plan->weight(dense);
    info.top_depth = depth[info.nodes[0]];
    info.bottom_node = info.nodes[0];
    info.lca_node = info.nodes[0];
    for (size_t node : info.nodes) {
      if (depth[node] < info.top_depth) {
        info.top_depth = depth[node];
        info.lca_node = node;
      }
      if (depth[node] > depth[info.bottom_node]) info.bottom_node = node;
    }

    auto& list = is_deletion ? structure.delta_paths
                             : structure.preserved_paths;
    std::vector<uint32_t>& rows = is_deletion
                                      ? structure.delta_through_paths
                                      : structure.preserved_through_paths;
    std::vector<uint32_t>& cursor = is_deletion ? delta_cursor
                                                : preserved_cursor;
    for (uint32_t node : info.nodes) {
      rows[cursor[node]++] = static_cast<uint32_t>(list.size());
    }
    list.push_back(info);
  }
  return structure;
}

}  // namespace delprop
