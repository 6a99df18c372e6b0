// LEB128-style variable-length integer encoding (the protobuf wire idiom):
// 7 value bits per byte, high bit set on every byte except the last, so
// small numbers — token ranks, record lengths, ascending-id deltas — cost
// one or two bytes instead of a fixed-width field or decimal text.
//
// Decoding is bounds-checked and never reads past the buffer: a truncated
// or overlong input returns false with the cursor untouched, so callers
// can surface a Status instead of invoking undefined behaviour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace fj {

/// Longest encoding of a uint64_t (10 bytes: ceil(64 / 7)).
inline constexpr size_t kMaxVarintBytes = 10;

/// Encoded length of `v` in bytes (1..10) without materializing it.
inline size_t VarintLen(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Appends the canonical (shortest) encoding of `v` to `*out`.
inline void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Decodes one varint starting at `*pos`. On success advances `*pos` past
/// the encoding, stores the value, and returns true. On truncation, an
/// encoding longer than kMaxVarintBytes, or a value of 2^64 or more,
/// returns false and leaves `*pos` and `*value` untouched.
inline bool DecodeVarint(std::string_view buf, size_t* pos, uint64_t* value) {
  uint64_t result = 0;
  size_t p = *pos;
  for (unsigned shift = 0; shift < 64 && p < buf.size(); shift += 7) {
    auto byte = static_cast<uint8_t>(buf[p++]);
    // The 10th byte holds bit 63 only: anything above 0x01 would be worth
    // 2^64 or more (or continue past the longest encoding).
    if (shift == 63 && byte > 0x01) return false;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *pos = p;
      *value = result;
      return true;
    }
  }
  return false;
}

/// Maps signed to unsigned so small-magnitude negatives stay short:
/// 0,-1,1,-2,... -> 0,1,2,3,... (protobuf zigzag).
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace fj
