#ifndef DELPROP_HYPERGRAPH_DATA_FOREST_H_
#define DELPROP_HYPERGRAPH_DATA_FOREST_H_

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "query/view.h"
#include "relational/tuple_ref.h"

namespace delprop {

/// One view tuple's witness mapped onto forest nodes (the paper's "view tuple
/// as a path in the data dual graph").
struct ForestWitness {
  /// Which view (index into the views vector given to Build) and which view
  /// tuple inside it this witness belongs to.
  size_t view_index = 0;
  size_t tuple_index = 0;
  /// Which witness of the view tuple (key-preserving queries have exactly 1).
  size_t witness_index = 0;
  /// Dense node ids of the base tuples in the witness, ascending and
  /// deduplicated: a view into the forest's flat witness-node array, valid
  /// as long as the forest it came from.
  std::span<const uint32_t> nodes;
};

/// Two atoms of one query that share a variable: witness tuples matched by
/// them are adjacent in the data dual graph.
using JoinedAtoms = std::pair<uint32_t, uint32_t>;

/// The data dual graph of Section IV.E, specialized to the tree algorithms:
/// vertices are the base tuples occurring in some witness; for every witness,
/// tuples matched by atoms that share a query variable are connected. The
/// tree algorithms require the graph to be a forest and witnesses to be
/// paths.
///
/// Storage is flat: nodes are interned through a key table (one slot per
/// dense key a witness member can carry), and witness node lists and
/// adjacency are CSR arrays. `Build` keys a base tuple by its slot in a row
/// table (one slot per (relation, row) up to the largest row any witness
/// names); an owner that rebuilds a forest in place (Reset, AddWitness,
/// Finish) supplies its own keys, such as the compiled core's base ids.
/// The forest is move-only, since its witnesses' spans point into its own
/// arrays.
class DataForest {
 public:
  /// A rooting of the forest: parent node per node (-1 at roots), depths, and
  /// the chosen root per component.
  struct Rooting {
    std::vector<long> parent;
    std::vector<size_t> depth;
    /// Root node id per component id.
    std::vector<size_t> roots;
  };

  /// Reusable storage of the in-place rooting and pivot search below.
  struct Scratch {
    std::vector<uint8_t> visited;
    std::vector<uint32_t> queue;
    std::vector<uint32_t> node_first;
    std::vector<uint32_t> nodes_by_component;
    std::vector<uint32_t> witness_first;
    std::vector<uint32_t> witnesses_by_component;
    std::vector<uint32_t> cursor;
  };

  /// Builds the graph from materialized views (all witnesses of all tuples).
  /// Node ids are handed out in first-touch order over (view, tuple,
  /// witness, member); each node's neighbors are listed in the order their
  /// edges were first seen in the same walk.
  static DataForest Build(const std::vector<const View*>& views);

  /// Appends the atom pairs of `query` that share a variable to `pairs`.
  static void AppendJoinedAtoms(const ConjunctiveQuery& query,
                                std::vector<JoinedAtoms>* pairs);

  /// An empty forest, for an owner that rebuilds it in place.
  DataForest() = default;
  DataForest(DataForest&&) = default;
  DataForest& operator=(DataForest&&) = default;
  DataForest(const DataForest&) = delete;
  DataForest& operator=(const DataForest&) = delete;

  /// In-place construction, the one builder behind `Build`: Reset, then
  /// AddWitness once per witness in (view, tuple, witness) order, then
  /// Finish. Every array keeps its capacity from build to build, so a
  /// rebuild of no larger a forest allocates nothing.
  ///
  /// Reset empties the forest for members keyed below `key_count`; it
  /// clears only the previous build's key slots, so it costs that build's
  /// nodes plus any growth of the key table, not `key_count`. `node_bound`
  /// (an upper bound on the nodes to come) sizes the edge set.
  void Reset(size_t key_count, size_t node_bound);
  /// Adds one witness: `keys[i]` and `refs[i]` name the tuple matched by
  /// atom i, and `joined` lists the atom pairs that share a variable.
  /// Members are interned on first touch.
  void AddWitness(size_t view_index, size_t tuple_index, size_t witness_index,
                  std::span<const uint32_t> keys,
                  std::span<const TupleRef> refs,
                  std::span<const JoinedAtoms> joined);
  /// Derives the witness spans, the cycle check, adjacency and components.
  void Finish();

  /// True if no cycle was formed (a precondition of Algorithms 1-4).
  bool is_forest() const { return is_forest_; }

  size_t node_count() const { return refs_.size(); }
  const TupleRef& node_ref(size_t node) const { return refs_[node]; }
  /// The key `node` was interned under (a core base id for an in-place
  /// build over the compiled core).
  uint32_t node_key(size_t node) const { return keys_[node]; }
  /// The node of `ref`, for a forest built from views by `Build`.
  std::optional<size_t> NodeOf(const TupleRef& ref) const;
  std::span<const uint32_t> neighbors(size_t node) const {
    return std::span<const uint32_t>(adjacency_).subspan(
        adjacency_first_[node],
        adjacency_first_[node + 1] - adjacency_first_[node]);
  }
  size_t component(size_t node) const { return component_[node]; }
  size_t component_count() const { return component_count_; }
  const std::vector<ForestWitness>& witnesses() const { return witnesses_; }

  /// Roots every component at the given node (one per component id), into
  /// `rooting`'s storage; if `roots` is empty, the lowest node id of each
  /// component is used.
  void RootAt(std::span<const size_t> roots, Rooting* rooting,
              Scratch* scratch) const;

  /// Lowest common ancestor of two nodes in the same component.
  size_t Lca(const Rooting& rooting, size_t a, size_t b) const;

  /// True if the witness's nodes form a contiguous path in the forest.
  bool WitnessIsPath(const ForestWitness& witness,
                     const Rooting& rooting) const;

  /// True if the witness's nodes form an ancestor chain (a vertical path)
  /// under `rooting` — the pivot-tuple condition of Algorithm 4.
  bool WitnessIsVerticalPath(const ForestWitness& witness,
                             const Rooting& rooting) const;

  /// Searches each component for a pivot node whose rooting makes every
  /// witness of that component vertical. Returns one pivot per component, or
  /// nullopt if some component has none. Candidates are tried in node-id
  /// order, and each try re-roots only the candidate's component, so a
  /// component of c nodes costs O(c) per candidate tried.
  std::optional<std::vector<size_t>> FindPivotRoots() const;
  /// The same search, in place: on success `rooting` is the pivot rooting
  /// (what RootAt gives for the pivots) and the function returns true.
  bool RootAtPivots(Rooting* rooting, Scratch* scratch) const;

 private:
  /// Breadth-first rooting of `root`'s component into `rooting`'s parent and
  /// depth arrays; other components' entries are left untouched. Marks the
  /// component in `visited` (whose other marks must be clear there) and
  /// leaves it, in visiting order, in `queue`.
  void RootComponent(size_t root, Rooting* rooting,
                     std::vector<uint8_t>* visited,
                     std::vector<uint32_t>* queue) const;

  // Union-find over the nodes while Finish runs.
  uint32_t Find(uint32_t node);

  std::vector<TupleRef> refs_;
  std::vector<uint32_t> keys_;  // per node: its key
  // Key table: node id per key, kNoNode for a key no witness named. Between
  // builds only the current nodes' keys hold a node.
  std::vector<uint32_t> node_of_key_;
  // Row table of a Build from views: relation r's rows are keys
  // [row_first_[r], row_first_[r + 1]). Empty for an in-place build.
  std::vector<size_t> row_first_;
  // CSR adjacency: node n's neighbors are adjacency_[adjacency_first_[n] ..
  // adjacency_first_[n + 1]).
  std::vector<uint32_t> adjacency_first_;
  std::vector<uint32_t> adjacency_;
  std::vector<uint32_t> component_;
  size_t component_count_ = 0;
  bool is_forest_ = true;
  // Every witness's sorted node list, back to back; witnesses_ spans it.
  std::vector<uint32_t> witness_nodes_;
  std::vector<ForestWitness> witnesses_;

  // Build scratch, kept for the next in-place build: each witness's first
  // slot in witness_nodes_, one witness's nodes in atom order, the edges in
  // first-seen order, the open-addressing edge set (edges packed as
  // min << 32 | max), the union-find parents and the component numbering.
  std::vector<uint32_t> witness_first_;
  std::vector<uint32_t> atom_nodes_;
  std::vector<std::pair<uint32_t, uint32_t>> edges_;
  std::vector<uint64_t> edge_slots_;
  std::vector<uint32_t> union_parent_;
  std::vector<uint32_t> dense_of_root_;
};

}  // namespace delprop

#endif  // DELPROP_HYPERGRAPH_DATA_FOREST_H_
