#ifndef DELPROP_COMMON_HASH_H_
#define DELPROP_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace delprop {

/// Mixes `value` into `seed` (boost::hash_combine recipe, 64-bit variant).
inline void HashCombine(size_t& seed, size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// Hash functor for std::vector of hashable elements; used for tuple and
/// witness-set keys in unordered containers.
template <typename T>
struct VectorHash {
  size_t operator()(const std::vector<T>& v) const {
    size_t seed = v.size();
    std::hash<T> h;
    for (const T& x : v) HashCombine(seed, h(x));
    return seed;
  }
};

/// Transparent string hash: an unordered container keyed by std::string
/// with this hash and std::equal_to<> looks up a std::string_view without
/// building a temporary string. std::hash<std::string_view> and
/// std::hash<std::string> agree on the same characters, so switching a
/// container to it leaves its bucket order unchanged. (Not noexcept, so
/// libstdc++ keeps caching each node's hash, as it does for std::string.)
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view text) const {
    return std::hash<std::string_view>()(text);
  }
};

/// Hash functor for std::pair.
template <typename A, typename B>
struct PairHash {
  size_t operator()(const std::pair<A, B>& p) const {
    size_t seed = std::hash<A>()(p.first);
    HashCombine(seed, std::hash<B>()(p.second));
    return seed;
  }
};

}  // namespace delprop

#endif  // DELPROP_COMMON_HASH_H_
