#include "hypergraph/data_forest.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace delprop {
namespace {

// Row-table slot of a row that occurs in no witness.
constexpr uint32_t kNoNode = 0xFFFFFFFFu;

// Atom pairs of `query` that share at least one variable; witness tuples
// matched by such atom pairs are adjacent in the data dual graph.
std::vector<std::pair<size_t, size_t>> JoinedAtomPairs(
    const ConjunctiveQuery& query) {
  std::vector<std::pair<size_t, size_t>> pairs;
  const auto& atoms = query.atoms();
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
      if (shared) pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

class DisjointSets {
 public:
  explicit DisjointSets(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  // Returns false if a and b were already connected.
  bool Union(size_t a, size_t b) {
    size_t ra = Find(a), rb = Find(b);
    if (ra == rb) return false;
    parent_[ra] = rb;
    return true;
  }

 private:
  std::vector<size_t> parent_;
};

// Open-addressing set of undirected edges, each packed as (min << 32 | max).
class EdgeSet {
 public:
  // Sized for `expected` edges without a rehash.
  explicit EdgeSet(size_t expected) { Rehash(expected); }

  // Adds the edge {a, b}, a != b; false if it was present already.
  bool Insert(uint32_t a, uint32_t b) {
    if (2 * (size_ + 1) > slots_.size()) Rehash(size_ + 1);
    uint64_t key = a < b ? (uint64_t{a} << 32 | b) : (uint64_t{b} << 32 | a);
    size_t mask = slots_.size() - 1;
    for (size_t slot = HomeSlot(key);; slot = (slot + 1) & mask) {
      if (slots_[slot] == key) return false;
      if (slots_[slot] == kEmpty) {
        slots_[slot] = key;
        ++size_;
        return true;
      }
    }
  }

 private:
  // No edge packs to this: it would need min == max.
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  size_t HomeSlot(uint64_t key) const {
    uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(h ^ (h >> 32)) & (slots_.size() - 1);
  }

  void Rehash(size_t size) {
    size_t capacity = 16;
    while (capacity < 2 * size) capacity *= 2;
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(capacity, kEmpty);
    size_t mask = capacity - 1;
    for (uint64_t key : old) {
      if (key == kEmpty) continue;
      size_t slot = HomeSlot(key);
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = key;
    }
  }

  std::vector<uint64_t> slots_;
  size_t size_ = 0;
};

}  // namespace

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
  forest.row_first_.assign(row_count.size() + 1, 0);
  for (size_t r = 0; r < row_count.size(); ++r) {
    forest.row_first_[r + 1] = forest.row_first_[r] + row_count[r];
  }
  forest.node_of_row_.assign(forest.row_first_.back(), kNoNode);

  // Main pass, in (view, tuple, witness, member) order: intern nodes on
  // first touch, record each witness's sorted node list, and collect the
  // edges between tuples matched by joined atoms in first-seen order. A
  // forest has fewer edges than nodes, and there are no more nodes than
  // row-table slots or witness members.
  std::vector<uint32_t> witness_first;
  witness_first.reserve(witness_count + 1);
  forest.witnesses_.reserve(witness_count);
  forest.witness_nodes_.reserve(member_count);
  size_t node_bound = std::min(forest.node_of_row_.size(), member_count);
  EdgeSet edge_set(node_bound);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(node_bound);
  std::vector<uint32_t> atom_nodes;  // one witness's nodes, in atom order
  for (size_t v = 0; v < views.size(); ++v) {
    const View& view = *views[v];
    auto joined_pairs = JoinedAtomPairs(view.query());
    for (size_t t = 0; t < view.size(); ++t) {
      const ViewTuple& tuple = view.tuple(t);
      for (size_t w = 0; w < tuple.witnesses.size(); ++w) {
        atom_nodes.clear();
        for (const TupleRef& ref : tuple.witnesses[w]) {
          uint32_t& node =
              forest.node_of_row_[forest.row_first_[ref.relation] + ref.row];
          if (node == kNoNode) {
            node = static_cast<uint32_t>(forest.refs_.size());
            forest.refs_.push_back(ref);
          }
          atom_nodes.push_back(node);
        }
        for (auto [i, j] : joined_pairs) {
          uint32_t a = atom_nodes[i];
          uint32_t b = atom_nodes[j];
          if (a != b && edge_set.Insert(a, b)) edges.emplace_back(a, b);
        }
        std::vector<uint32_t>& all = forest.witness_nodes_;
        witness_first.push_back(static_cast<uint32_t>(all.size()));
        all.insert(all.end(), atom_nodes.begin(), atom_nodes.end());
        auto first = all.begin() + witness_first.back();
        std::sort(first, all.end());
        all.erase(std::unique(first, all.end()), all.end());
        forest.witnesses_.push_back(ForestWitness{v, t, w, {}});
      }
    }
  }
  witness_first.push_back(static_cast<uint32_t>(forest.witness_nodes_.size()));
  const std::span<const uint32_t> all_nodes(forest.witness_nodes_);
  for (size_t i = 0; i < forest.witnesses_.size(); ++i) {
    forest.witnesses_[i].nodes = all_nodes.subspan(
        witness_first[i], witness_first[i + 1] - witness_first[i]);
  }

  size_t n = forest.refs_.size();
  DisjointSets sets(n);
  for (auto [a, b] : edges) {
    if (!sets.Union(a, b)) forest.is_forest_ = false;
  }

  // Adjacency, each node's neighbors in edge first-seen order.
  forest.adjacency_first_.assign(n + 1, 0);
  for (auto [a, b] : edges) {
    ++forest.adjacency_first_[a + 1];
    ++forest.adjacency_first_[b + 1];
  }
  for (size_t node = 0; node < n; ++node) {
    forest.adjacency_first_[node + 1] += forest.adjacency_first_[node];
  }
  forest.adjacency_.resize(2 * edges.size());
  {
    std::vector<uint32_t> cursor(forest.adjacency_first_.begin(),
                                 forest.adjacency_first_.end() - 1);
    for (auto [a, b] : edges) {
      forest.adjacency_[cursor[a]++] = b;
      forest.adjacency_[cursor[b]++] = a;
    }
  }

  // Component ids, dense, in order of each component's lowest node.
  forest.component_.resize(n);
  std::vector<uint32_t> dense_of_root(n, kNoNode);
  for (size_t node = 0; node < n; ++node) {
    uint32_t& dense = dense_of_root[sets.Find(node)];
    if (dense == kNoNode) {
      dense = static_cast<uint32_t>(forest.component_count_++);
    }
    forest.component_[node] = dense;
  }
  return forest;
}

std::optional<size_t> DataForest::NodeOf(const TupleRef& ref) const {
  if (ref.relation + size_t{1} >= row_first_.size()) return std::nullopt;
  size_t first = row_first_[ref.relation];
  if (ref.row >= row_first_[ref.relation + 1] - first) return std::nullopt;
  uint32_t node = node_of_row_[first + ref.row];
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

DataForest::Rooting DataForest::RootAt(const std::vector<size_t>& roots) const {
  Rooting rooting;
  rooting.parent.assign(node_count(), -1);
  rooting.depth.assign(node_count(), 0);
  rooting.roots.assign(component_count_, node_count());

  if (!roots.empty()) {
    assert(roots.size() == component_count_);
    for (size_t c = 0; c < roots.size(); ++c) {
      assert(component_[roots[c]] == c);
      rooting.roots[c] = roots[c];
    }
  } else {
    // Default: lowest node id per component.
    for (size_t n = node_count(); n-- > 0;) {
      rooting.roots[component_[n]] = n;
    }
  }

  std::vector<uint8_t> visited(node_count(), 0);
  std::vector<uint32_t> queue;
  queue.reserve(node_count());
  for (size_t root : rooting.roots) {
    RootComponent(root, &rooting, &visited, &queue);
  }
  return rooting;
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
  if (!is_forest_) return std::nullopt;
  size_t n = node_count();

  // Nodes and witnesses grouped by component (CSR), each group in id order.
  std::vector<uint32_t> node_first(component_count_ + 1, 0);
  for (size_t node = 0; node < n; ++node) ++node_first[component_[node] + 1];
  std::vector<uint32_t> witness_first(component_count_ + 1, 0);
  for (const ForestWitness& w : witnesses_) {
    if (w.nodes.empty()) continue;
    uint32_t c = component_[w.nodes[0]];
    for (uint32_t node : w.nodes) {
      if (component_[node] != c) return std::nullopt;
    }
    ++witness_first[c + 1];
  }
  for (size_t c = 0; c < component_count_; ++c) {
    node_first[c + 1] += node_first[c];
    witness_first[c + 1] += witness_first[c];
  }
  std::vector<uint32_t> nodes_by_component(n);
  std::vector<uint32_t> witnesses_by_component(witness_first.back());
  {
    std::vector<uint32_t> cursor(node_first.begin(), node_first.end() - 1);
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
  }

  // Each candidate roots only its own component; the walk's queue then
  // holds exactly that component, whose visited marks it clears.
  Rooting rooting;
  rooting.parent.assign(n, -1);
  rooting.depth.assign(n, 0);
  std::vector<uint8_t> visited(n, 0);
  std::vector<uint32_t> queue;
  queue.reserve(n);
  std::vector<size_t> pivots(component_count_);
  for (size_t c = 0; c < component_count_; ++c) {
    bool found = false;
    for (uint32_t slot = node_first[c]; !found && slot < node_first[c + 1];
         ++slot) {
      size_t candidate = nodes_by_component[slot];
      RootComponent(candidate, &rooting, &visited, &queue);
      for (uint32_t node : queue) visited[node] = 0;
      found = std::all_of(
          witnesses_by_component.begin() + witness_first[c],
          witnesses_by_component.begin() + witness_first[c + 1],
          [&](uint32_t i) {
            return WitnessIsVerticalPath(witnesses_[i], rooting);
          });
      if (found) pivots[c] = candidate;
    }
    if (!found) return std::nullopt;
  }
  return pivots;
}

}  // namespace delprop
