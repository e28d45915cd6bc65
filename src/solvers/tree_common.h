#ifndef DELPROP_SOLVERS_TREE_COMMON_H_
#define DELPROP_SOLVERS_TREE_COMMON_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "dp/vse_instance.h"
#include "hypergraph/data_forest.h"

namespace delprop {

/// How strictly BuildTreeStructure checks the instance's shape.
enum class TreeMode {
  /// Forest + every ΔV witness a path (precondition of Algorithms 1-3; the
  /// forest is rooted at default roots).
  kDeltaPaths,
  /// Forest + a pivot rooting making every witness vertical (precondition of
  /// Algorithm 4).
  kVerticalAll,
};

/// The tree-case view of a VseInstance: the data forest, a rooting, and every
/// view tuple's witness as a node path with precomputed LCA/top/bottom.
/// Move-only, since the paths' node spans point into the forest.
struct TreeStructure {
  struct PathInfo {
    ViewTupleId id;
    /// The witness's nodes, ascending (a view into the forest).
    std::span<const uint32_t> nodes;
    double weight = 1.0;
    /// Depth of the shallowest node (the path's top end).
    size_t top_depth = 0;
    /// Deepest node of the path.
    size_t bottom_node = 0;
    /// Shallowest node of the path (its LCA in the tree).
    size_t lca_node = 0;
  };

  explicit TreeStructure(DataForest built) : forest(std::move(built)) {}
  TreeStructure(TreeStructure&&) = default;
  TreeStructure& operator=(TreeStructure&&) = default;
  TreeStructure(const TreeStructure&) = delete;
  TreeStructure& operator=(const TreeStructure&) = delete;

  /// Indices into delta_paths / preserved_paths of the paths containing a
  /// forest node, ascending.
  std::span<const uint32_t> delta_through(size_t node) const {
    return Row(delta_through_first, delta_through_paths, node);
  }
  std::span<const uint32_t> preserved_through(size_t node) const {
    return Row(preserved_through_first, preserved_through_paths, node);
  }

  DataForest forest;
  DataForest::Rooting rooting;
  std::vector<PathInfo> delta_paths;
  std::vector<PathInfo> preserved_paths;
  /// CSR arrays behind delta_through / preserved_through: node n's row is
  /// *_paths[*_first[n] .. *_first[n + 1]).
  std::vector<uint32_t> delta_through_first;
  std::vector<uint32_t> delta_through_paths;
  std::vector<uint32_t> preserved_through_first;
  std::vector<uint32_t> preserved_through_paths;

 private:
  static std::span<const uint32_t> Row(const std::vector<uint32_t>& first,
                                       const std::vector<uint32_t>& paths,
                                       size_t node) {
    return std::span<const uint32_t>(paths).subspan(
        first[node], first[node + 1] - first[node]);
  }
};

/// Builds the structure, failing with FailedPrecondition when the instance is
/// not a tree case of the requested mode (multiple witnesses, cycles in the
/// data dual graph, non-path ΔV witnesses, or no pivot rooting). ΔV marks
/// and weights are read from the instance's compiled plan.
Result<TreeStructure> BuildTreeStructure(const VseInstance& instance,
                                         TreeMode mode);

}  // namespace delprop

#endif  // DELPROP_SOLVERS_TREE_COMMON_H_
