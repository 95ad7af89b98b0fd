// 64-bit FNV-1a: the one hash behind the .pcg payload checksum, the
// graph digest (PreferenceGraph::Digest) and GreedyOptionsHash. Byte-wise
// and order-sensitive; an integrity check, not a cryptographic hash.

#ifndef PREFCOVER_UTIL_HASH_H_
#define PREFCOVER_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>

namespace prefcover {

/// \brief Incremental 64-bit FNV-1a.
class Fnv1a {
 public:
  void Update(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    uint64_t h = hash_;
    for (size_t i = 0; i < size; ++i) h = (h ^ p[i]) * kPrime;
    hash_ = h;
  }

  /// Hashes the object representation of `value`.
  template <typename T>
  void UpdateScalar(T value) {
    Update(&value, sizeof(T));
  }

  /// Feeds the same bytes to `a` and `b` in one pass. Each hash is one
  /// serial multiply chain, so the second rides along almost for free.
  static void UpdateBoth(Fnv1a* a, Fnv1a* b, const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    uint64_t ha = a->hash_, hb = b->hash_;
    for (size_t i = 0; i < size; ++i) {
      ha = (ha ^ p[i]) * kPrime;
      hb = (hb ^ p[i]) * kPrime;
    }
    a->hash_ = ha;
    b->hash_ = hb;
  }

  uint64_t digest() const { return hash_; }

 private:
  static constexpr uint64_t kPrime = 0x100000001B3ULL;
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace prefcover

#endif  // PREFCOVER_UTIL_HASH_H_
