// The binary record format for spill runs, plus the pluggable block codec
// applied on top. DFS stage files are always text lines, whatever the
// format.
//
// Two layers, bottom up:
//
//  1. Typed content codec: EncodeContent/DecodeContent serialize the
//     (key, value) types that cross the shuffle. Varints for integers
//     (zigzag for signed), length-prefixed bytes for strings, fixed
//     8-byte little-endian bit patterns for doubles (exact roundtrip),
//     and composition over pair/tuple/vector. Custom types participate
//     via ADL — `void FjEncodeContent(const T&, std::string*)` and
//     `bool FjDecodeContent(std::string_view, size_t*, T*)` — the same
//     customization-point idiom as byte_size.h and integrity.h.
//  2. Run blocks: EncodeRunBlock frames one sorted run's encoded pairs
//     as [codec byte | varint record count | varint raw size | payload],
//     optionally compressed by the block codec. Decoding returns Status:
//     a truncated or corrupted block is an error, never UB.
//
// Checksums over binary runs are defined over the *encoded* block bytes
// (see job.h): the bytes that sit in the shuffle are the bytes verified,
// exactly like HDFS checksumming compressed blocks at rest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/varint.h"

namespace fj::mr {

/// How records are represented in spill runs. Text is the compatibility
/// default: every record is a std::string line and shuffle bytes are
/// ByteSizeOf estimates. Binary makes serialization real: runs hold
/// encoded blocks and the byte meters count actual encoded sizes. Neither
/// changes a byte of a job's committed output.
enum class RecordFormat : uint8_t {
  kText = 0,
  kBinary = 1,
};

/// Block codec applied per spill-run block (binary format only).
enum class BlockCodec : uint8_t {
  kNone = 0,
  kFjlz = 1,  ///< self-contained LZ77 (LZ4-block-style token stream)
};

const char* RecordFormatName(RecordFormat format);
const char* BlockCodecName(BlockCodec codec);

/// Parses "text"/"binary" ("none"/"fjlz"). Returns false on unknown names.
bool ParseRecordFormat(std::string_view name, RecordFormat* format);
bool ParseBlockCodec(std::string_view name, BlockCodec* codec);

// ---------------------------------------------------------------------------
// Layer 1: typed content codec.

template <typename T>
void EncodeContent(const T& value, std::string* out);

/// Decodes one value starting at `*pos`. On success advances `*pos` and
/// returns true; on truncation/corruption returns false with `*pos`
/// untouched (the output value is unspecified).
template <typename T>
bool DecodeContent(std::string_view buf, size_t* pos, T* value);

namespace internal {

template <typename T, typename = void>
struct HasAdlEncodeContent : std::false_type {};

template <typename T>
struct HasAdlEncodeContent<
    T, std::void_t<decltype(FjEncodeContent(std::declval<const T&>(),
                                            std::declval<std::string*>()))>>
    : std::true_type {};

template <typename T, typename = void>
struct HasAdlDecodeContent : std::false_type {};

template <typename T>
struct HasAdlDecodeContent<
    T, std::void_t<decltype(FjDecodeContent(std::declval<std::string_view>(),
                                            std::declval<size_t*>(),
                                            std::declval<T*>()))>>
    : std::true_type {};

/// 8-byte little-endian, independent of host endianness.
inline void AppendFixed64(std::string* out, uint64_t bits) {
  for (unsigned i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
}

inline bool DecodeFixed64(std::string_view buf, size_t* pos, uint64_t* bits) {
  if (buf.size() < 8 || *pos > buf.size() - 8) return false;
  uint64_t v = 0;
  for (unsigned i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(buf[*pos + i])) << (8 * i);
  }
  *pos += 8;
  *bits = v;
  return true;
}

template <typename T>
struct ContentCodec;

template <>
struct ContentCodec<std::string> {
  static void Encode(const std::string& s, std::string* out) {
    AppendVarint(out, s.size());
    out->append(s);
  }
  static bool Decode(std::string_view buf, size_t* pos, std::string* value) {
    size_t p = *pos;
    uint64_t len = 0;
    if (!DecodeVarint(buf, &p, &len)) return false;
    if (len > buf.size() - p) return false;
    value->assign(buf.data() + p, static_cast<size_t>(len));
    *pos = p + static_cast<size_t>(len);
    return true;
  }
};

template <typename A, typename B>
struct ContentCodec<std::pair<A, B>> {
  static void Encode(const std::pair<A, B>& v, std::string* out) {
    EncodeContent(v.first, out);
    EncodeContent(v.second, out);
  }
  static bool Decode(std::string_view buf, size_t* pos, std::pair<A, B>* value) {
    size_t p = *pos;
    if (!DecodeContent(buf, &p, &value->first)) return false;
    if (!DecodeContent(buf, &p, &value->second)) return false;
    *pos = p;
    return true;
  }
};

template <typename... Ts>
struct ContentCodec<std::tuple<Ts...>> {
  static void Encode(const std::tuple<Ts...>& v, std::string* out) {
    std::apply([out](const Ts&... parts) { (EncodeContent(parts, out), ...); },
               v);
  }
  static bool Decode(std::string_view buf, size_t* pos,
                     std::tuple<Ts...>* value) {
    size_t p = *pos;
    bool ok = std::apply(
        [&buf, &p](Ts&... parts) {
          return (DecodeContent(buf, &p, &parts) && ...);
        },
        *value);
    if (!ok) return false;
    *pos = p;
    return true;
  }
};

template <typename T>
struct ContentCodec<std::vector<T>> {
  static void Encode(const std::vector<T>& v, std::string* out) {
    AppendVarint(out, v.size());
    for (const auto& e : v) EncodeContent(e, out);
  }
  static bool Decode(std::string_view buf, size_t* pos,
                     std::vector<T>* value) {
    size_t p = *pos;
    uint64_t n = 0;
    if (!DecodeVarint(buf, &p, &n)) return false;
    // Every element encoding costs at least one byte, so a count larger
    // than the remaining buffer is corruption — reject before reserving.
    if (n > buf.size() - p) return false;
    value->clear();
    value->reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      T element;
      if (!DecodeContent(buf, &p, &element)) return false;
      value->push_back(std::move(element));
    }
    *pos = p;
    return true;
  }
};

template <typename T>
struct ContentCodec {
  static void Encode(const T& value, std::string* out) {
    if constexpr (HasAdlEncodeContent<T>::value) {
      FjEncodeContent(value, out);
    } else if constexpr (std::is_same_v<T, bool>) {
      out->push_back(value ? '\x01' : '\x00');
    } else if constexpr (std::is_enum_v<T>) {
      AppendVarint(out, static_cast<uint64_t>(value));
    } else if constexpr (std::is_integral_v<T>) {
      if constexpr (std::is_signed_v<T>) {
        AppendVarint(out, ZigZagEncode(static_cast<int64_t>(value)));
      } else {
        AppendVarint(out, static_cast<uint64_t>(value));
      }
    } else if constexpr (std::is_floating_point_v<T>) {
      static_assert(sizeof(T) == 8,
                    "only double is supported; use double or FjEncodeContent");
      uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof(bits));
      AppendFixed64(out, bits);
    } else {
      static_assert(std::is_trivially_copyable_v<T>,
                    "provide FjEncodeContent/FjDecodeContent for "
                    "non-trivial types");
      const char* raw = reinterpret_cast<const char*>(&value);
      out->append(raw, sizeof(T));
    }
  }

  static bool Decode(std::string_view buf, size_t* pos, T* value) {
    if constexpr (HasAdlDecodeContent<T>::value) {
      return FjDecodeContent(buf, pos, value);
    } else if constexpr (std::is_same_v<T, bool>) {
      if (*pos >= buf.size()) return false;
      *value = buf[*pos] != '\x00';
      *pos += 1;
      return true;
    } else if constexpr (std::is_enum_v<T>) {
      size_t p = *pos;
      uint64_t raw = 0;
      if (!DecodeVarint(buf, &p, &raw)) return false;
      *value = static_cast<T>(raw);
      *pos = p;
      return true;
    } else if constexpr (std::is_integral_v<T>) {
      size_t p = *pos;
      uint64_t raw = 0;
      if (!DecodeVarint(buf, &p, &raw)) return false;
      if constexpr (std::is_signed_v<T>) {
        int64_t s = ZigZagDecode(raw);
        if constexpr (sizeof(T) < 8) {
          if (s < static_cast<int64_t>(std::numeric_limits<T>::min()) ||
              s > static_cast<int64_t>(std::numeric_limits<T>::max())) {
            return false;
          }
        }
        *value = static_cast<T>(s);
      } else {
        if constexpr (sizeof(T) < 8) {
          if (raw > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
            return false;
          }
        }
        *value = static_cast<T>(raw);
      }
      *pos = p;
      return true;
    } else if constexpr (std::is_floating_point_v<T>) {
      size_t p = *pos;
      uint64_t bits = 0;
      if (!DecodeFixed64(buf, &p, &bits)) return false;
      std::memcpy(value, &bits, sizeof(bits));
      *pos = p;
      return true;
    } else {
      static_assert(std::is_trivially_copyable_v<T>,
                    "provide FjEncodeContent/FjDecodeContent for "
                    "non-trivial types");
      if (buf.size() < sizeof(T) || *pos > buf.size() - sizeof(T)) {
        return false;
      }
      std::memcpy(value, buf.data() + *pos, sizeof(T));
      *pos += sizeof(T);
      return true;
    }
  }
};

}  // namespace internal

template <typename T>
void EncodeContent(const T& value, std::string* out) {
  internal::ContentCodec<T>::Encode(value, out);
}

template <typename T>
bool DecodeContent(std::string_view buf, size_t* pos, T* value) {
  return internal::ContentCodec<T>::Decode(buf, pos, value);
}

// ---------------------------------------------------------------------------
// Layer 2: run blocks.

class FjlzMatchTable;  // record_format.cc

/// Working memory of the block codec, reused from block to block: the
/// fjlz compressor's match table and the buffers a run block's payload
/// passes through. A task owns one for every block it encodes or decodes,
/// so a block allocates nothing once the buffers have grown, and the
/// memory is freed when the task ends.
struct CodecScratch {
  CodecScratch();
  ~CodecScratch();
  CodecScratch(const CodecScratch&) = delete;
  CodecScratch& operator=(const CodecScratch&) = delete;

  std::string payload;     ///< a run's encoded pairs (EncodeRunBlock)
  std::string compressed;  ///< fjlz output before framing (EncodeBlock)
  std::string decoded;     ///< a decompressed payload (DecodeBlock)
  /// Made by the first compression.
  std::unique_ptr<FjlzMatchTable> match_table;
};

/// Self-contained LZ77 compressor (LZ4-block-style token stream: 4-bit
/// literal/match length nibbles with 255-continuation extensions, 2-byte
/// little-endian match offsets, minimum match 4). The stream is a pure
/// function of `src`: a greedy parse over an 8,192-slot hash table of
/// 4-byte prefixes that probes every literal position and skips the
/// positions inside a match. Byte counters, checksums over encoded blocks
/// and the shuffle's bytes all depend on these exact bytes, so a faster
/// compressor must emit the same stream (record_format_test.cc keeps the
/// original byte-at-a-time codec as its oracle). Uses only
/// `scratch->match_table`.
void FjlzCompress(std::string_view src, CodecScratch* scratch,
                  std::string* out);

/// Decompresses exactly `raw_size` bytes. Every read and copy is
/// bounds-checked; malformed input yields DataLoss, never UB, and leaves
/// `*out` holding the bytes produced before the fault.
Status FjlzDecompress(std::string_view src, size_t raw_size, std::string* out);

/// Frames an already-encoded payload of `record_count` records as a run
/// block: [codec byte | varint record count | varint raw size | payload].
/// With kFjlz the payload is compressed; if compression does not shrink
/// it the block silently stores kNone (the codec byte is authoritative).
void EncodeBlock(BlockCodec codec, uint64_t record_count,
                 std::string_view raw_payload, CodecScratch* scratch,
                 std::string* out);

/// Inverse of EncodeBlock: recovers the record count and the raw payload.
/// A stored (kNone) payload is viewed in place inside `block`; a
/// compressed one is decompressed into `scratch->decoded` and viewed
/// there.
Status DecodeBlock(std::string_view block, CodecScratch* scratch,
                   uint64_t* record_count, std::string_view* raw_payload);

/// Encodes one sorted run's pairs into a framed (possibly compressed)
/// block. `*logical_bytes` reports the pre-codec payload size so callers
/// can meter the compression ratio.
template <typename K, typename V>
void EncodeRunBlock(BlockCodec codec,
                    const std::vector<std::pair<K, V>>& pairs,
                    CodecScratch* scratch, std::string* encoded,
                    uint64_t* logical_bytes) {
  std::string& payload = scratch->payload;
  payload.clear();
  for (const auto& pair : pairs) {
    EncodeContent(pair.first, &payload);
    EncodeContent(pair.second, &payload);
  }
  *logical_bytes = payload.size();
  EncodeBlock(codec, pairs.size(), payload, scratch, encoded);
}

/// Decodes a framed run block back into pairs. Truncated or trailing
/// bytes in the payload are DataLoss.
template <typename K, typename V>
Status DecodeRunBlock(std::string_view encoded, CodecScratch* scratch,
                      std::vector<std::pair<K, V>>* pairs) {
  uint64_t record_count = 0;
  std::string_view payload;
  FJ_RETURN_IF_ERROR(DecodeBlock(encoded, scratch, &record_count, &payload));
  // Every record costs at least two bytes (one per side), so a count
  // beyond half the payload size is corruption — reject before reserving.
  if (record_count > payload.size() / 2) {
    return Status::DataLoss("run block record count exceeds payload");
  }
  pairs->clear();
  pairs->reserve(static_cast<size_t>(record_count));
  size_t pos = 0;
  for (uint64_t i = 0; i < record_count; ++i) {
    std::pair<K, V> pair;
    if (!DecodeContent(payload, &pos, &pair.first) ||
        !DecodeContent(payload, &pos, &pair.second)) {
      return Status::DataLoss("truncated record in run block payload");
    }
    pairs->push_back(std::move(pair));
  }
  if (pos != payload.size()) {
    return Status::DataLoss("trailing bytes after last record in run block");
  }
  return Status::OK();
}

}  // namespace fj::mr
