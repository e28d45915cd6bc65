#include "query/view.h"

#include <algorithm>

#include "common/hash.h"

namespace delprop {
namespace {

// Smallest table Rehash ever allocates.
constexpr size_t kMinSlots = 16;

}  // namespace

size_t View::HomeSlot(const Tuple& values) const {
  // std::hash<uint32_t> is the identity, so VectorHash's combine leaves the
  // low bits weakly mixed: finish with a multiplicative (Fibonacci) mix and
  // fold its well-mixed high half into the bits the mask keeps.
  uint64_t h = static_cast<uint64_t>(VectorHash<ValueId>()(values)) *
               0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>(h ^ (h >> 32)) & (slots_.size() - 1);
}

size_t View::Probe(const Tuple& values) const {
  size_t mask = slots_.size() - 1;
  for (size_t slot = HomeSlot(values);; slot = (slot + 1) & mask) {
    uint32_t index = slots_[slot];
    if (index == kEmptySlot || tuples_[index].values == values) return slot;
  }
}

void View::Rehash(size_t size) {
  size_t capacity = kMinSlots;
  while (capacity < 2 * size) capacity *= 2;
  slots_.assign(capacity, kEmptySlot);
  size_t mask = capacity - 1;
  for (size_t i = 0; i < tuples_.size(); ++i) {
    size_t slot = HomeSlot(tuples_[i].values);
    while (slots_[slot] != kEmptySlot) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<uint32_t>(i);
  }
}

void View::EraseSlot(size_t hole) {
  size_t mask = slots_.size() - 1;
  for (size_t next = (hole + 1) & mask; slots_[next] != kEmptySlot;
       next = (next + 1) & mask) {
    // The entry at `next` may fill the hole iff the hole lies on its probe
    // path, i.e. cyclically in [home, next).
    size_t home = HomeSlot(tuples_[slots_[next]].values);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole] = kEmptySlot;
}

size_t View::AddMatch(const Tuple& values, Witness witness) {
  // Grow before probing, so the probed slot can take a new key.
  if (2 * (tuples_.size() + 1) > slots_.size()) Rehash(tuples_.size() + 1);
  size_t slot = Probe(values);
  if (slots_[slot] == kEmptySlot) {
    slots_[slot] = static_cast<uint32_t>(tuples_.size());
    ViewTuple vt;
    vt.values = values;
    tuples_.push_back(std::move(vt));
  }
  std::vector<Witness>& witnesses = tuples_[slots_[slot]].witnesses;
  if (std::find(witnesses.begin(), witnesses.end(), witness) ==
      witnesses.end()) {
    witnesses.push_back(std::move(witness));
  }
  return slots_[slot];
}

void View::RemoveTuples(const std::vector<size_t>& sorted_indices) {
  if (sorted_indices.empty()) return;
  // Erase while every removed tuple's values are still readable.
  for (size_t index : sorted_indices) {
    EraseSlot(Probe(tuples_[index].values));
  }
  size_t next_removed = 0;
  size_t write = 0;
  for (size_t read = 0; read < tuples_.size(); ++read) {
    if (next_removed < sorted_indices.size() &&
        sorted_indices[next_removed] == read) {
      ++next_removed;
      continue;
    }
    if (write != read) tuples_[write] = std::move(tuples_[read]);
    ++write;
  }
  tuples_.resize(write);
  // Re-point without rehashing any key: a survivor's index drops by the
  // number of removed indices below it. One sequential pass over the table
  // with no branch on the slot's contents: the count is a binary search
  // whose steps depend only on the number removed, and an empty slot
  // selects a zero shift. O(slots · log removed).
  const size_t* removed = sorted_indices.data();
  size_t removed_count = sorted_indices.size();
  for (uint32_t& index : slots_) {
    const size_t* base = removed;
    for (size_t n = removed_count; n > 1; n -= n / 2) {
      base += base[n / 2] < index ? n / 2 : 0;
    }
    uint32_t below = static_cast<uint32_t>(base - removed) + (*base < index);
    // A mask, not a conditional: compilers turn `? :` here into a branch.
    index -= below & (0u - static_cast<uint32_t>(index != kEmptySlot));
  }
}

std::optional<size_t> View::Find(const Tuple& values) const {
  if (slots_.empty()) return std::nullopt;
  uint32_t index = slots_[Probe(values)];
  if (index == kEmptySlot) return std::nullopt;
  return index;
}

bool View::Survives(size_t index, const DeletionSet& deletion) const {
  for (const Witness& witness : tuples_[index].witnesses) {
    bool hit = false;
    for (const TupleRef& ref : witness) {
      if (deletion.Contains(ref)) {
        hit = true;
        break;
      }
    }
    if (!hit) return true;
  }
  return false;
}

std::string View::RenderTuple(size_t index) const {
  const ValueDictionary& dict = database_->dict();
  std::string out = query_->name();
  out += '(';
  const Tuple& values = tuples_[index].values;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += dict.Text(values[i]);
  }
  out += ')';
  return out;
}

}  // namespace delprop
