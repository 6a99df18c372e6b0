// Content hashing of shuffled (key, value) pairs, the Dfs line checksum,
// and the byte flip that models bit rot.
//
// Sorted runs are checksummed over their encoded blocks (sort_buffer.h),
// the analogue of HDFS block checksums, so the pair hashes here serve the
// contract checker: it fingerprints keys and combiner output with them.
// The fault injector's CorruptRecord fault flips one bit of the bytes it
// hits through FlipByte — a real mutation, so undetected corruption
// genuinely changes downstream bytes rather than only tripping a flag.
//
// Custom shuffle types participate by being composed of the types handled
// here, or by providing `uint64_t FjContentHash(const T&)` found via ADL —
// the same customization-point idiom as key_traits.h and byte_size.h.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace fj::mr {

template <typename T>
uint64_t ContentHashOf(const T& value);

namespace internal {

template <typename T, typename = void>
struct HasAdlContentHash : std::false_type {};

template <typename T>
struct HasAdlContentHash<
    T, std::void_t<decltype(FjContentHash(std::declval<const T&>()))>>
    : std::true_type {};

template <typename T>
struct ContentHash;

template <>
struct ContentHash<std::string> {
  static uint64_t Of(const std::string& s) { return HashString(s); }
};

template <typename A, typename B>
struct ContentHash<std::pair<A, B>> {
  static uint64_t Of(const std::pair<A, B>& p) {
    return HashCombine(ContentHashOf(p.first), ContentHashOf(p.second));
  }
};

template <typename T>
struct ContentHash<std::vector<T>> {
  static uint64_t Of(const std::vector<T>& v) {
    uint64_t h = HashInt64(v.size());
    for (const auto& e : v) h = HashCombine(h, ContentHashOf(e));
    return h;
  }
};

template <typename T>
struct ContentHash {
  static uint64_t Of(const T& value) {
    if constexpr (HasAdlContentHash<T>::value) {
      return FjContentHash(value);
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      return HashInt64(static_cast<uint64_t>(value));
    } else if constexpr (std::is_floating_point_v<T>) {
      uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof(value) < sizeof(bits) ? sizeof(value)
                                                              : sizeof(bits));
      return HashInt64(bits);
    } else {
      static_assert(HasAdlContentHash<T>::value,
                    "provide FjContentHash(const T&) for non-trivial types");
      return 0;
    }
  }
};

}  // namespace internal

/// Order-sensitive content hash of `value` (FNV-1a based).
template <typename T>
uint64_t ContentHashOf(const T& value) {
  return internal::ContentHash<T>::Of(value);
}

/// Checksum of one shuffled pair.
template <typename K, typename V>
uint64_t ShufflePairChecksum(const std::pair<K, V>& pair) {
  return HashCombine(ContentHashOf(pair.first), ContentHashOf(pair.second));
}

/// Flips one bit of one byte of `bytes`, both picked by `salt`: the
/// CorruptRecord fault's bit rot in a run block, a reduce output line or
/// a Dfs line. XOR with a non-zero mask always changes the byte. Leaves
/// an empty string alone.
inline void FlipByte(std::string& bytes, uint64_t salt) {
  if (bytes.empty()) return;
  bytes[HashInt64(salt) % bytes.size()] ^=
      static_cast<char>(1u << (1 + salt % 7));
}

/// Per-line checksum used by the Dfs (whole-file hash is the ordered fold
/// of these with HashCombine, seeded with kFnvOffsetBasis).
inline uint64_t LineChecksum(const std::string& line) {
  return HashString(line);
}

}  // namespace fj::mr
