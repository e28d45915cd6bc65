#include "query/evaluator.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

namespace delprop {
namespace {

constexpr ValueId kUnbound = std::numeric_limits<ValueId>::max();

class JoinContext {
 public:
  JoinContext(const Database& db, const ConjunctiveQuery& query,
              const DeletionSet* mask, EvalStats* stats, size_t max_matches,
              IndexCache* cache, View* out)
      : db_(db),
        query_(query),
        mask_(mask),
        stats_(stats),
        max_matches_(max_matches),
        cache_(cache),
        out_(out) {
    assignment_.assign(query.variable_count(), kUnbound);
    witness_.resize(query.atoms().size());
    // Scratch sized once: each variable is bound at most once along a
    // branch, and each depth collects at most its atom's terms.
    bound_vars_.reserve(query.variable_count());
    bound_positions_.resize(query.atoms().size());
    for (size_t a = 0; a < query.atoms().size(); ++a) {
      bound_positions_[a].reserve(query.atoms()[a].terms.size());
    }
    head_values_.reserve(query.head().size());
    OrderAtoms();
    if (stats_ != nullptr) stats_->atom_order = order_;
  }

  void Run() { Descend(0); }

  const std::vector<size_t>& order() const { return order_; }
  bool overflowed() const { return overflowed_; }

 private:
  struct BoundPosition {
    size_t pos;
    ValueId value;
  };

  /// Greedy ordering: repeatedly pick the unplaced atom with the most terms
  /// bound by constants or previously placed atoms; break ties towards the
  /// smaller relation.
  void OrderAtoms() {
    const auto& atoms = query_.atoms();
    std::vector<bool> placed(atoms.size(), false);
    std::vector<bool> bound(query_.variable_count(), false);
    for (size_t step = 0; step < atoms.size(); ++step) {
      size_t best = atoms.size();
      size_t best_bound = 0;
      size_t best_rows = 0;
      for (size_t a = 0; a < atoms.size(); ++a) {
        if (placed[a]) continue;
        size_t bound_terms = 0;
        for (const Term& t : atoms[a].terms) {
          if (t.is_constant() || bound[t.id]) ++bound_terms;
        }
        size_t rows = db_.relation(atoms[a].relation).row_count();
        if (best == atoms.size() || bound_terms > best_bound ||
            (bound_terms == best_bound && rows < best_rows)) {
          best = a;
          best_bound = bound_terms;
          best_rows = rows;
        }
      }
      order_.push_back(best);
      placed[best] = true;
      for (const Term& t : atoms[best].terms) {
        if (t.is_variable()) bound[t.id] = true;
      }
    }
  }

  /// Returns the index for (relation, position) if it is already
  /// materialized — pinned by this evaluation or present in the shared cache
  /// — without building anything. Used to pick a probe position cheaply.
  const PositionIndex* FindExisting(RelationId relation, size_t position) {
    auto key = std::make_pair(relation, position);
    auto it = indexes_.find(key);
    if (it != indexes_.end()) return it->second.get();
    if (cache_ != nullptr) {
      std::shared_ptr<const PositionIndex> cached =
          cache_->Peek(db_, relation, position);
      if (cached != nullptr) {
        if (stats_ != nullptr) ++stats_->index_cache_hits;
        return indexes_.emplace(key, std::move(cached)).first->second.get();
      }
    }
    return nullptr;
  }

  const PositionIndex& IndexFor(RelationId relation, size_t position) {
    if (const PositionIndex* existing = FindExisting(relation, position)) {
      return *existing;
    }
    auto key = std::make_pair(relation, position);
    std::shared_ptr<const PositionIndex> index;
    if (cache_ != nullptr) {
      bool was_hit = false;
      index = cache_->Get(db_, relation, position, &was_hit);
      if (stats_ != nullptr) {
        // FindExisting already peeked, so a hit here means another thread
        // published the entry in between; still a reuse from our side.
        if (was_hit) {
          ++stats_->index_cache_hits;
        } else {
          ++stats_->index_cache_misses;
          ++stats_->indexes_built;
        }
      }
    } else {
      index = std::make_shared<const PositionIndex>(
          BuildPositionIndex(db_.relation(relation), position));
      if (stats_ != nullptr) ++stats_->indexes_built;
    }
    return *indexes_.emplace(key, std::move(index)).first->second;
  }

  /// Tries to extend the current partial assignment with `row` for `atom`.
  /// Every variable it binds is pushed on `bound_vars_`, also on a mismatch,
  /// so the caller undoes either outcome with UndoTo.
  bool TryBind(const Atom& atom, const Tuple& row) {
    for (size_t pos = 0; pos < atom.terms.size(); ++pos) {
      const Term& t = atom.terms[pos];
      if (t.is_constant()) {
        if (row[pos] != t.id) return false;
      } else if (assignment_[t.id] != kUnbound) {
        if (row[pos] != assignment_[t.id]) return false;
      } else {
        assignment_[t.id] = row[pos];
        bound_vars_.push_back(t.id);
      }
    }
    return true;
  }

  /// Unbinds every variable pushed on `bound_vars_` since `mark`.
  void UndoTo(size_t mark) {
    while (bound_vars_.size() > mark) {
      assignment_[bound_vars_.back()] = kUnbound;
      bound_vars_.pop_back();
    }
  }

  void Descend(size_t depth) {
    if (overflowed_) return;
    if (depth == order_.size()) {
      Emit();
      return;
    }
    size_t atom_index = order_[depth];
    const Atom& atom = query_.atoms()[atom_index];
    const Relation& rel = db_.relation(atom.relation);

    // Collect the bound positions of this atom under the current assignment,
    // into this depth's scratch (deeper calls use their own).
    std::vector<BoundPosition>& bound_positions = bound_positions_[depth];
    bound_positions.clear();
    for (size_t pos = 0; pos < atom.terms.size(); ++pos) {
      const Term& t = atom.terms[pos];
      if (t.is_constant()) {
        bound_positions.push_back({pos, t.id});
      } else if (assignment_[t.id] != kUnbound) {
        bound_positions.push_back({pos, assignment_[t.id]});
      }
    }
    bool have_bound_position = !bound_positions.empty();

    // Pick a probe position lazily: compare candidate lists only across
    // indexes that are already materialized (stopping at the first empty
    // list), and build at most one new index — never one per bound position.
    // Any bound position's list is correct (TryBind re-checks every
    // position), and every list is in ascending row order, so the choice
    // cannot change the emitted view, only the rows scanned.
    const std::vector<uint32_t>* candidates = nullptr;
    std::vector<uint32_t> empty;
    for (const BoundPosition& bp : bound_positions) {
      const PositionIndex* index = FindExisting(atom.relation, bp.pos);
      if (index == nullptr) continue;
      auto it = index->find(bp.value);
      const std::vector<uint32_t>* list =
          (it == index->end()) ? &empty : &it->second;
      if (candidates == nullptr || list->size() < candidates->size()) {
        candidates = list;
        if (candidates->empty()) break;
      }
    }
    if (have_bound_position && candidates == nullptr) {
      const BoundPosition& bp = bound_positions.front();
      const PositionIndex& index = IndexFor(atom.relation, bp.pos);
      auto it = index.find(bp.value);
      candidates = (it == index.end()) ? &empty : &it->second;
    }

    auto try_row = [&](uint32_t row_index) {
      if (stats_ != nullptr) ++stats_->rows_scanned;
      TupleRef ref{atom.relation, row_index};
      if (mask_ != nullptr && mask_->Contains(ref)) return;
      size_t mark = bound_vars_.size();
      if (TryBind(atom, rel.row(row_index))) {
        witness_[atom_index] = ref;
        Descend(depth + 1);
      }
      UndoTo(mark);
    };

    if (have_bound_position) {
      for (uint32_t row_index : *candidates) try_row(row_index);
    } else {
      for (uint32_t row_index = 0; row_index < rel.row_count(); ++row_index) {
        try_row(row_index);
      }
    }
  }

  void Emit() {
    if (max_matches_ > 0 && emitted_ >= max_matches_) {
      overflowed_ = true;
      return;
    }
    ++emitted_;
    if (stats_ != nullptr) ++stats_->matches;
    head_values_.clear();
    for (const Term& t : query_.head()) {
      head_values_.push_back(t.is_constant() ? t.id : assignment_[t.id]);
    }
    out_->AddMatch(head_values_, witness_);
  }

  const Database& db_;
  const ConjunctiveQuery& query_;
  const DeletionSet* mask_;
  EvalStats* stats_;
  size_t max_matches_;
  IndexCache* cache_;
  View* out_;
  size_t emitted_ = 0;
  bool overflowed_ = false;
  std::vector<size_t> order_;
  std::vector<ValueId> assignment_;
  Witness witness_;
  // Variables bound along the current branch, innermost last.
  std::vector<VarId> bound_vars_;
  // Per depth: the bound positions of the atom placed there.
  std::vector<std::vector<BoundPosition>> bound_positions_;
  Tuple head_values_;  // Emit's scratch
  // Indexes pinned for this evaluation: locally built ones and shared-cache
  // entries alike. Pinning keeps cache entries alive even if the cache drops
  // them mid-query.
  std::unordered_map<std::pair<RelationId, size_t>,
                     std::shared_ptr<const PositionIndex>,
                     PairHash<RelationId, size_t>>
      indexes_;
};

}  // namespace

Result<View> Evaluate(const Database& database, const ConjunctiveQuery& query,
                      const EvalOptions& options) {
  if (Status s = query.Validate(database.schema()); !s.ok()) return s;
  View view(&query, &database);
  JoinContext context(database, query, options.mask, options.stats,
                      options.max_matches, options.index_cache, &view);
  context.Run();
  if (context.overflowed()) {
    return Status::OutOfRange("query '" + query.name() + "' exceeded " +
                              std::to_string(options.max_matches) +
                              " matches");
  }
  return view;
}

std::string ExplainPlan(const Database& database,
                        const ConjunctiveQuery& query) {
  View scratch(&query, &database);
  JoinContext context(database, query, nullptr, nullptr, 0, nullptr,
                      &scratch);
  std::string out = "plan for " + query.name() + ":\n";
  std::vector<bool> bound(query.variable_count(), false);
  for (size_t step = 0; step < context.order().size(); ++step) {
    size_t atom_index = context.order()[step];
    const Atom& atom = query.atoms()[atom_index];
    const RelationSchema& rel = database.schema().relation(atom.relation);
    size_t bound_terms = 0;
    for (const Term& t : atom.terms) {
      if (t.is_constant() || bound[t.id]) ++bound_terms;
    }
    out += "  " + std::to_string(step + 1) + ". " + rel.name + " (" +
           std::to_string(database.relation(atom.relation).row_count()) +
           " rows, " + std::to_string(bound_terms) + "/" +
           std::to_string(atom.terms.size()) + " terms bound, " +
           (bound_terms > 0 ? "index lookup" : "full scan") + ")\n";
    for (const Term& t : atom.terms) {
      if (t.is_variable()) bound[t.id] = true;
    }
  }
  return out;
}

}  // namespace delprop
