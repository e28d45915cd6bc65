#include "hypergraph/data_forest.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace delprop {
namespace {

// Key-table slot of a key that no witness names.
constexpr uint32_t kNoNode = 0xFFFFFFFFu;

// The edge set is open-addressed over a power-of-two slot array, each
// undirected edge packed as (min << 32 | max). No edge packs to kNoEdge: it
// would need min == max.
constexpr uint64_t kNoEdge = ~uint64_t{0};

size_t EdgeHome(uint64_t key, size_t mask) {
  uint64_t h = key * 0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>(h ^ (h >> 32)) & mask;
}

// Empties `slots` with room for `expected` edges at half load, keeping the
// vector's capacity.
void ClearEdgeSet(size_t expected, std::vector<uint64_t>* slots) {
  size_t capacity = 16;
  while (capacity < 2 * expected) capacity *= 2;
  slots->assign(capacity, kNoEdge);
}

void PlaceEdge(uint64_t key, std::vector<uint64_t>* slots) {
  size_t mask = slots->size() - 1;
  size_t slot = EdgeHome(key, mask);
  while ((*slots)[slot] != kNoEdge) slot = (slot + 1) & mask;
  (*slots)[slot] = key;
}

// Adds the edge {a, b}, a != b, unless `slots` holds it; `edges` lists the
// edges added so far, from which a full set is regrown.
bool InsertEdge(uint32_t a, uint32_t b,
                const std::vector<std::pair<uint32_t, uint32_t>>& edges,
                std::vector<uint64_t>* slots) {
  if (2 * (edges.size() + 1) > slots->size()) {
    ClearEdgeSet(edges.size() + 1, slots);
    for (auto [x, y] : edges) {
      PlaceEdge(x < y ? (uint64_t{x} << 32 | y) : (uint64_t{y} << 32 | x),
                slots);
    }
  }
  uint64_t key = a < b ? (uint64_t{a} << 32 | b) : (uint64_t{b} << 32 | a);
  size_t mask = slots->size() - 1;
  for (size_t slot = EdgeHome(key, mask);; slot = (slot + 1) & mask) {
    if ((*slots)[slot] == key) return false;
    if ((*slots)[slot] == kNoEdge) {
      (*slots)[slot] = key;
      return true;
    }
  }
}

}  // namespace

void DataForest::AppendJoinedAtoms(const ConjunctiveQuery& query,
                                   std::vector<JoinedAtoms>* pairs) {
  const auto& atoms = query.atoms();
  pairs->reserve(pairs->size() + atoms.size() * atoms.size() / 2);
  for (size_t i = 0; i < atoms.size(); ++i) {
    for (size_t j = i + 1; j < atoms.size(); ++j) {
      bool shared = false;
      for (const Term& a : atoms[i].terms) {
        if (!a.is_variable()) continue;
        for (const Term& b : atoms[j].terms) {
          if (b.is_variable() && b.id == a.id) {
            shared = true;
            break;
          }
        }
        if (shared) break;
      }
      if (shared) {
        pairs->emplace_back(static_cast<uint32_t>(i),
                            static_cast<uint32_t>(j));
      }
    }
  }
}

// A one-shot build for the tools and probes; the tree solvers rebuild their
// own forest in place.
// delprop-hot-stop
DataForest DataForest::Build(const std::vector<const View*>& views) {
  DataForest forest;

  // Sizing pass: the row table's extent (per relation, one past the largest
  // row any witness names) and the witness and member totals.
  std::vector<uint32_t> row_count;
  size_t witness_count = 0;
  size_t member_count = 0;
  for (const View* view : views) {
    for (size_t t = 0; t < view->size(); ++t) {
      for (const Witness& witness : view->tuple(t).witnesses) {
        ++witness_count;
        member_count += witness.size();
        for (const TupleRef& ref : witness) {
          if (ref.relation >= row_count.size()) {
            row_count.resize(static_cast<size_t>(ref.relation) + 1, 0);
          }
          row_count[ref.relation] =
              std::max(row_count[ref.relation], ref.row + 1);
        }
      }
    }
  }
  std::vector<size_t> row_first(row_count.size() + 1, 0);
  for (size_t r = 0; r < row_count.size(); ++r) {
    row_first[r + 1] = row_first[r] + row_count[r];
  }

  // Main pass, in (view, tuple, witness, member) order, each member keyed
  // by its row-table slot. A forest has fewer edges than nodes, and there
  // are no more nodes than row-table slots or witness members.
  size_t node_bound = std::min(row_first.back(), member_count);
  forest.Reset(row_first.back(), node_bound);
  forest.row_first_ = std::move(row_first);
  forest.witness_first_.reserve(witness_count + 1);
  forest.witnesses_.reserve(witness_count);
  forest.witness_nodes_.reserve(member_count);
  forest.edges_.reserve(node_bound);
  std::vector<JoinedAtoms> joined;
  std::vector<uint32_t> keys;
  for (size_t v = 0; v < views.size(); ++v) {
    const View& view = *views[v];
    joined.clear();
    AppendJoinedAtoms(view.query(), &joined);
    for (size_t t = 0; t < view.size(); ++t) {
      const ViewTuple& tuple = view.tuple(t);
      for (size_t w = 0; w < tuple.witnesses.size(); ++w) {
        keys.clear();
        for (const TupleRef& ref : tuple.witnesses[w]) {
          keys.push_back(
              static_cast<uint32_t>(forest.row_first_[ref.relation] + ref.row));
        }
        forest.AddWitness(v, t, w, keys, tuple.witnesses[w], joined);
      }
    }
  }
  forest.Finish();
  return forest;
}

void DataForest::Reset(size_t key_count, size_t node_bound) {
  for (uint32_t key : keys_) node_of_key_[key] = kNoNode;
  node_of_key_.resize(key_count, kNoNode);
  refs_.clear();
  keys_.clear();
  row_first_.clear();
  witness_nodes_.clear();
  witnesses_.clear();
  witness_first_.clear();
  edges_.clear();
  refs_.reserve(node_bound);
  keys_.reserve(node_bound);
  ClearEdgeSet(node_bound, &edge_slots_);
  component_count_ = 0;
  is_forest_ = true;
}

void DataForest::AddWitness(size_t view_index, size_t tuple_index,
                            size_t witness_index,
                            std::span<const uint32_t> keys,
                            std::span<const TupleRef> refs,
                            std::span<const JoinedAtoms> joined) {
  // Intern on first touch, then record the edges between tuples matched by
  // joined atoms in first-seen order and the witness's sorted node list.
  atom_nodes_.clear();
  atom_nodes_.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    uint32_t& node = node_of_key_[keys[i]];
    if (node == kNoNode) {
      node = static_cast<uint32_t>(refs_.size());
      refs_.push_back(refs[i]);
      keys_.push_back(keys[i]);
    }
    atom_nodes_.push_back(node);
  }
  for (auto [i, j] : joined) {
    uint32_t a = atom_nodes_[i];
    uint32_t b = atom_nodes_[j];
    if (a != b && InsertEdge(a, b, edges_, &edge_slots_)) {
      edges_.emplace_back(a, b);
    }
  }
  witness_first_.push_back(static_cast<uint32_t>(witness_nodes_.size()));
  witness_nodes_.insert(witness_nodes_.end(), atom_nodes_.begin(),
                        atom_nodes_.end());
  auto first = witness_nodes_.begin() + witness_first_.back();
  std::sort(first, witness_nodes_.end());
  witness_nodes_.erase(std::unique(first, witness_nodes_.end()),
                       witness_nodes_.end());
  witnesses_.push_back(
      ForestWitness{view_index, tuple_index, witness_index, {}});
}

uint32_t DataForest::Find(uint32_t node) {
  while (union_parent_[node] != node) {
    union_parent_[node] = union_parent_[union_parent_[node]];
    node = union_parent_[node];
  }
  return node;
}

void DataForest::Finish() {
  witness_first_.push_back(static_cast<uint32_t>(witness_nodes_.size()));
  const std::span<const uint32_t> all_nodes(witness_nodes_);
  for (size_t i = 0; i < witnesses_.size(); ++i) {
    witnesses_[i].nodes = all_nodes.subspan(
        witness_first_[i], witness_first_[i + 1] - witness_first_[i]);
  }

  size_t n = refs_.size();
  union_parent_.resize(n);
  std::iota(union_parent_.begin(), union_parent_.end(), uint32_t{0});
  for (auto [a, b] : edges_) {
    uint32_t ra = Find(a);
    uint32_t rb = Find(b);
    if (ra == rb) {
      is_forest_ = false;
    } else {
      union_parent_[ra] = rb;
    }
  }

  // Adjacency, each node's neighbors in edge first-seen order;
  // dense_of_root_ serves as the fill cursor first.
  adjacency_first_.assign(n + 1, 0);
  for (auto [a, b] : edges_) {
    ++adjacency_first_[a + 1];
    ++adjacency_first_[b + 1];
  }
  for (size_t node = 0; node < n; ++node) {
    adjacency_first_[node + 1] += adjacency_first_[node];
  }
  adjacency_.resize(2 * edges_.size());
  dense_of_root_.assign(adjacency_first_.begin(), adjacency_first_.end() - 1);
  for (auto [a, b] : edges_) {
    adjacency_[dense_of_root_[a]++] = b;
    adjacency_[dense_of_root_[b]++] = a;
  }

  // Component ids, dense, in order of each component's lowest node.
  component_.resize(n);
  dense_of_root_.assign(n, kNoNode);
  for (size_t node = 0; node < n; ++node) {
    uint32_t& dense = dense_of_root_[Find(static_cast<uint32_t>(node))];
    if (dense == kNoNode) dense = static_cast<uint32_t>(component_count_++);
    component_[node] = dense;
  }
}

std::optional<size_t> DataForest::NodeOf(const TupleRef& ref) const {
  if (ref.relation + size_t{1} >= row_first_.size()) return std::nullopt;
  size_t first = row_first_[ref.relation];
  if (ref.row >= row_first_[ref.relation + 1] - first) return std::nullopt;
  uint32_t node = node_of_key_[first + ref.row];
  if (node == kNoNode) return std::nullopt;
  return node;
}

void DataForest::RootComponent(size_t root, Rooting* rooting,
                               std::vector<uint8_t>* visited,
                               std::vector<uint32_t>* queue) const {
  queue->clear();
  queue->push_back(static_cast<uint32_t>(root));
  (*visited)[root] = 1;
  rooting->parent[root] = -1;
  rooting->depth[root] = 0;
  for (size_t head = 0; head < queue->size(); ++head) {
    uint32_t node = (*queue)[head];
    for (uint32_t next : neighbors(node)) {
      if ((*visited)[next]) continue;
      (*visited)[next] = 1;
      rooting->parent[next] = static_cast<long>(node);
      rooting->depth[next] = rooting->depth[node] + 1;
      queue->push_back(next);
    }
  }
}

void DataForest::RootAt(std::span<const size_t> roots, Rooting* rooting,
                        Scratch* scratch) const {
  size_t n = node_count();
  rooting->parent.assign(n, -1);
  rooting->depth.assign(n, 0);
  rooting->roots.assign(component_count_, n);

  if (!roots.empty()) {
    assert(roots.size() == component_count_);
    for (size_t c = 0; c < roots.size(); ++c) {
      assert(component_[roots[c]] == c);
      rooting->roots[c] = roots[c];
    }
  } else {
    // Default: lowest node id per component.
    for (size_t node = n; node-- > 0;) {
      rooting->roots[component_[node]] = node;
    }
  }

  scratch->visited.assign(n, 0);
  scratch->queue.reserve(n);
  for (size_t root : rooting->roots) {
    RootComponent(root, rooting, &scratch->visited, &scratch->queue);
  }
}

size_t DataForest::Lca(const Rooting& rooting, size_t a, size_t b) const {
  assert(component_[a] == component_[b]);
  while (a != b) {
    if (rooting.depth[a] < rooting.depth[b]) std::swap(a, b);
    a = static_cast<size_t>(rooting.parent[a]);
  }
  return a;
}

bool DataForest::WitnessIsPath(const ForestWitness& witness,
                               const Rooting& rooting) const {
  std::span<const uint32_t> nodes = witness.nodes;
  if (nodes.size() <= 1) return true;
  // All nodes must share a component.
  for (size_t n : nodes) {
    if (component_[n] != component_[nodes[0]]) return false;
  }
  // Endpoint x: the deepest node; endpoint y: the node farthest from x.
  size_t x = nodes[0];
  for (size_t n : nodes) {
    if (rooting.depth[n] > rooting.depth[x]) x = n;
  }
  auto dist = [&](size_t a, size_t b) {
    size_t l = Lca(rooting, a, b);
    return rooting.depth[a] + rooting.depth[b] - 2 * rooting.depth[l];
  };
  size_t y = x;
  for (size_t n : nodes) {
    if (dist(x, n) > dist(x, y)) y = n;
  }
  // S is a path iff every node lies on path(x, y) and the count matches.
  size_t path_len = dist(x, y);
  if (nodes.size() != path_len + 1) return false;
  for (size_t n : nodes) {
    // n lies on path(x, y) iff dist(x, n) + dist(n, y) == dist(x, y).
    if (dist(x, n) + dist(n, y) != path_len) return false;
  }
  return true;
}

bool DataForest::WitnessIsVerticalPath(const ForestWitness& witness,
                                       const Rooting& rooting) const {
  std::span<const uint32_t> nodes = witness.nodes;
  if (nodes.size() <= 1) return true;
  // Deepest node d: the witness is vertical iff its nodes are exactly d and
  // d's nearest |nodes| - 1 ancestors. A node in another component or a
  // second node at some depth can never be met on the walk up. The list is
  // sorted, so each step's membership test is a binary search.
  size_t d = nodes[0];
  for (size_t n : nodes) {
    if (rooting.depth[n] > rooting.depth[d]) d = n;
  }
  size_t walker = d;
  for (size_t i = 1; i < nodes.size(); ++i) {
    if (rooting.parent[walker] < 0) return false;
    walker = static_cast<size_t>(rooting.parent[walker]);
    if (!std::binary_search(nodes.begin(), nodes.end(), walker)) return false;
  }
  return true;
}

std::optional<std::vector<size_t>> DataForest::FindPivotRoots() const {
  Rooting rooting;
  Scratch scratch;
  if (!RootAtPivots(&rooting, &scratch)) return std::nullopt;
  return std::move(rooting.roots);
}

bool DataForest::RootAtPivots(Rooting* rooting, Scratch* scratch) const {
  if (!is_forest_) return false;
  size_t n = node_count();

  // Nodes and witnesses grouped by component (CSR), each group in id order.
  std::vector<uint32_t>& node_first = scratch->node_first;
  std::vector<uint32_t>& witness_first = scratch->witness_first;
  node_first.assign(component_count_ + 1, 0);
  for (size_t node = 0; node < n; ++node) ++node_first[component_[node] + 1];
  witness_first.assign(component_count_ + 1, 0);
  for (const ForestWitness& w : witnesses_) {
    if (w.nodes.empty()) continue;
    uint32_t c = component_[w.nodes[0]];
    for (uint32_t node : w.nodes) {
      if (component_[node] != c) return false;
    }
    ++witness_first[c + 1];
  }
  for (size_t c = 0; c < component_count_; ++c) {
    node_first[c + 1] += node_first[c];
    witness_first[c + 1] += witness_first[c];
  }
  std::vector<uint32_t>& nodes_by_component = scratch->nodes_by_component;
  std::vector<uint32_t>& witnesses_by_component =
      scratch->witnesses_by_component;
  std::vector<uint32_t>& cursor = scratch->cursor;
  nodes_by_component.resize(n);
  witnesses_by_component.resize(witness_first.back());
  cursor.assign(node_first.begin(), node_first.end() - 1);
  for (size_t node = 0; node < n; ++node) {
    nodes_by_component[cursor[component_[node]]++] =
        static_cast<uint32_t>(node);
  }
  cursor.assign(witness_first.begin(), witness_first.end() - 1);
  for (size_t i = 0; i < witnesses_.size(); ++i) {
    if (witnesses_[i].nodes.empty()) continue;
    witnesses_by_component[cursor[component_[witnesses_[i].nodes[0]]]++] =
        static_cast<uint32_t>(i);
  }

  // Each candidate roots only its own component; the walk's queue then
  // holds exactly that component, whose visited marks it clears. The
  // successful candidate's walk is the component's pivot rooting.
  rooting->parent.assign(n, -1);
  rooting->depth.assign(n, 0);
  rooting->roots.assign(component_count_, n);
  scratch->visited.assign(n, 0);
  scratch->queue.reserve(n);
  for (size_t c = 0; c < component_count_; ++c) {
    bool found = false;
    for (uint32_t slot = node_first[c]; !found && slot < node_first[c + 1];
         ++slot) {
      size_t candidate = nodes_by_component[slot];
      RootComponent(candidate, rooting, &scratch->visited, &scratch->queue);
      for (uint32_t node : scratch->queue) scratch->visited[node] = 0;
      found = std::all_of(
          witnesses_by_component.begin() + witness_first[c],
          witnesses_by_component.begin() + witness_first[c + 1],
          [&](uint32_t i) {
            return WitnessIsVerticalPath(witnesses_[i], *rooting);
          });
      if (found) rooting->roots[c] = candidate;
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace delprop
