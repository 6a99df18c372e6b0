// Serialized-size estimation for shuffled (key, value) pairs.
//
// The map-side sort buffer charges ByteSizeOf of every emitted pair
// against JobSpec::sort_buffer_bytes, so spill points depend on these
// estimates alone, never on the run encoding or the codec; the shuffle
// meters count the encoded run blocks instead (record_format.h). Custom
// types participate by being composed of the types handled here, or by
// providing their own `size_t FjByteSize(const T&)` found via ADL.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace fj::mr {

template <typename T>
size_t ByteSizeOf(const T& value);

namespace internal {

template <typename T, typename = void>
struct HasAdlByteSize : std::false_type {};

template <typename T>
struct HasAdlByteSize<T,
                      std::void_t<decltype(FjByteSize(std::declval<const T&>()))>>
    : std::true_type {};

template <typename T>
struct ByteSize;

template <>
struct ByteSize<std::string> {
  static size_t Of(const std::string& s) { return s.size() + 4; }
};

template <typename A, typename B>
struct ByteSize<std::pair<A, B>> {
  static size_t Of(const std::pair<A, B>& p) {
    return ByteSizeOf(p.first) + ByteSizeOf(p.second);
  }
};

template <typename... Ts>
struct ByteSize<std::tuple<Ts...>> {
  static size_t Of(const std::tuple<Ts...>& t) {
    return std::apply(
        [](const Ts&... parts) { return (size_t{0} + ... + ByteSizeOf(parts)); },
        t);
  }
};

template <typename T>
struct ByteSize<std::vector<T>> {
  static size_t Of(const std::vector<T>& v) {
    size_t total = 4;
    for (const auto& e : v) total += ByteSizeOf(e);
    return total;
  }
};

template <typename T>
struct ByteSize {
  static size_t Of(const T& value) {
    if constexpr (HasAdlByteSize<T>::value) {
      return FjByteSize(value);
    } else {
      static_assert(std::is_trivially_copyable_v<T>,
                    "provide FjByteSize(const T&) for non-trivial types");
      (void)value;
      return sizeof(T);
    }
  }
};

}  // namespace internal

/// Estimated on-the-wire size of `value` in bytes.
template <typename T>
size_t ByteSizeOf(const T& value) {
  return internal::ByteSize<T>::Of(value);
}

}  // namespace fj::mr
