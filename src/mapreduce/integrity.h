// Content hashing of shuffled keys and values, the Dfs line checksum,
// and the byte flip that models bit rot.
//
// Sorted runs are checksummed over their encoded blocks (sort_buffer.h),
// the analogue of HDFS block checksums, so the content hash here serves the
// contract checker: it fingerprints keys and combiner output with it.
// The fault injector's CorruptRecord fault flips one bit of the bytes it
// hits through FlipByte — a real mutation, so undetected corruption
// genuinely changes downstream bytes rather than only tripping a flag.
#pragma once

#include <cstdint>
#include <string>

#include "common/hash.h"
#include "mapreduce/record_format.h"

namespace fj::mr {

/// Order-sensitive content hash of `value`: the hash of its run encoding
/// (record_format.h). Every shuffle type has one, so a type describes its
/// content once, in its EncodeContent.
template <typename T>
uint64_t ContentHashOf(const T& value) {
  std::string bytes;
  EncodeContent(value, &bytes);
  return HashString(bytes);
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
