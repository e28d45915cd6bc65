#include "testing/reference_eval.h"

#include <cstdint>
#include <limits>

namespace delprop {
namespace testing {

ResultMap NaiveEvaluate(const Database& db, const ConjunctiveQuery& query,
                        const DeletionSet* mask) {
  ResultMap results;
  size_t atom_count = query.atoms().size();
  std::vector<uint32_t> choice(atom_count, 0);

  std::vector<size_t> row_counts(atom_count);
  for (size_t a = 0; a < atom_count; ++a) {
    row_counts[a] = db.relation(query.atoms()[a].relation).row_count();
    if (row_counts[a] == 0) return results;
  }

  constexpr ValueId kUnbound = 0xFFFFFFFF;
  for (;;) {
    // Check this combination of rows against constants and join variables.
    std::vector<ValueId> assignment(query.variable_count(), kUnbound);
    bool match = true;
    bool masked = false;
    for (size_t a = 0; a < atom_count && match; ++a) {
      const Atom& atom = query.atoms()[a];
      TupleRef ref{atom.relation, choice[a]};
      if (mask != nullptr && mask->Contains(ref)) {
        masked = true;
        break;
      }
      const Tuple& row = db.relation(atom.relation).row(choice[a]);
      for (size_t p = 0; p < atom.terms.size(); ++p) {
        const Term& t = atom.terms[p];
        if (t.is_constant()) {
          if (row[p] != t.id) match = false;
        } else if (assignment[t.id] == kUnbound) {
          assignment[t.id] = row[p];
        } else if (assignment[t.id] != row[p]) {
          match = false;
        }
        if (!match) break;
      }
    }
    if (match && !masked) {
      Tuple head;
      for (const Term& t : query.head()) {
        head.push_back(t.is_constant() ? t.id : assignment[t.id]);
      }
      Witness witness;
      for (size_t a = 0; a < atom_count; ++a) {
        witness.push_back({query.atoms()[a].relation, choice[a]});
      }
      results[head].insert(std::move(witness));
    }
    // Advance the odometer.
    size_t a = 0;
    while (a < atom_count) {
      if (++choice[a] < row_counts[a]) break;
      choice[a] = 0;
      ++a;
    }
    if (a == atom_count) break;
  }
  return results;
}

ResultMap ViewToResultMap(const View& view) {
  ResultMap map;
  for (size_t t = 0; t < view.size(); ++t) {
    for (const Witness& w : view.tuple(t).witnesses) {
      map[view.tuple(t).values].insert(w);
    }
  }
  return map;
}

size_t NaiveEvaluationCost(const Database& db, const ConjunctiveQuery& query) {
  size_t cost = 1;
  for (const Atom& atom : query.atoms()) {
    size_t rows = db.relation(atom.relation).row_count();
    if (rows == 0) return 0;
    if (cost > std::numeric_limits<size_t>::max() / rows) {
      return std::numeric_limits<size_t>::max();
    }
    cost *= rows;
  }
  return cost;
}

KillIndex ReferenceKillIndex(const VseInstance& instance) {
  KillIndex index;
  for (size_t v = 0; v < instance.view_count(); ++v) {
    const View& view = instance.view(v);
    for (size_t t = 0; t < view.size(); ++t) {
      ViewTupleId id{v, t};
      for (const Witness& witness : view.tuple(t).witnesses) {
        for (const TupleRef& ref : witness) {
          // Ids arrive ascending, so a repeat can only be the last entry.
          std::vector<ViewTupleId>& row = index[ref];
          if (row.empty() || !(row.back() == id)) row.push_back(id);
        }
      }
    }
  }
  return index;
}

}  // namespace testing
}  // namespace delprop
