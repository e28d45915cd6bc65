#include "relational/value.h"

#include <cassert>

namespace delprop {

ValueId ValueDictionary::Intern(std::string_view text) {
  auto it = ids_by_text_.find(text);
  if (it != ids_by_text_.end()) return it->second;
  ValueId id = static_cast<ValueId>(texts_.size());
  texts_.emplace_back(text);
  ids_by_text_.emplace(texts_.back(), id);
  return id;
}

ValueId ValueDictionary::InternInt(int64_t value) {
  return Intern(std::to_string(value));
}

ValueId ValueDictionary::FreshValue() {
  for (;;) {
    std::string candidate = "$fresh" + std::to_string(fresh_counter_++);
    if (ids_by_text_.find(candidate) == ids_by_text_.end()) {
      return Intern(candidate);
    }
  }
}

}  // namespace delprop
