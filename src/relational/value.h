#ifndef DELPROP_RELATIONAL_VALUE_H_
#define DELPROP_RELATIONAL_VALUE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"

namespace delprop {

/// Interned identifier of a constant from the paper's domain `Const`.
/// Equality of ValueIds is equality of constants.
using ValueId = uint32_t;

/// Interns constants (rendered as text) to dense ValueIds. All constants in a
/// Database share one dictionary so cross-relation joins compare ids only.
class ValueDictionary {
 public:
  ValueDictionary() = default;
  // Interned ids index into ids_by_text_; copying would be correct but is
  // almost always a bug (two dictionaries with diverging ids), so forbid it.
  ValueDictionary(const ValueDictionary&) = delete;
  ValueDictionary& operator=(const ValueDictionary&) = delete;
  ValueDictionary(ValueDictionary&&) = default;
  ValueDictionary& operator=(ValueDictionary&&) = default;

  /// Returns the id of `text`, interning it on first sight.
  ValueId Intern(std::string_view text);

  /// Interns the decimal rendering of `value`.
  ValueId InternInt(int64_t value);

  /// Returns a fresh constant guaranteed distinct from every other constant
  /// ever interned ("value invention" in the Theorem 1 reduction).
  ValueId FreshValue();

  /// Returns the id of `text` if it was interned before, without interning.
  std::optional<ValueId> Find(std::string_view text) const {
    auto it = ids_by_text_.find(text);
    if (it == ids_by_text_.end()) return std::nullopt;
    return it->second;
  }

  /// Returns the text of an interned id.
  const std::string& Text(ValueId id) const { return texts_[id]; }

  /// Number of distinct constants interned so far.
  size_t size() const { return texts_.size(); }

 private:
  std::unordered_map<std::string, ValueId, StringHash, std::equal_to<>>
      ids_by_text_;
  std::vector<std::string> texts_;
  uint64_t fresh_counter_ = 0;
};

/// A database tuple: one interned constant per attribute position.
using Tuple = std::vector<ValueId>;

}  // namespace delprop

#endif  // DELPROP_RELATIONAL_VALUE_H_
