// Stage 2 — RID-Pair Generation, the "Kernel" (Sections 3.2, 4, 5).
//
// Mappers project each record onto (RID, token ids), extract its prefix
// under the stage-1 global ordering, and route one copy of the projection
// per prefix token (individual routing) or per prefix-token *group*
// (grouped routing). Reducers verify the candidates that share a routing
// key and output "rid1<TAB>rid2<TAB>similarity" lines:
//
//   BK — nested-loop verification with the length filter (plus block
//        processing when the group exceeds memory, Section 5);
//   PK — the PPJoin+ kernel: the composite key carries the projection
//        length, the partitioner ignores it, and the secondary sort hands
//        the reducer a length-ordered stream (Section 3.2.2) — for R-S
//        joins a length-*class* ordering that interleaves R before the S
//        records they may join (Section 4, Figure 6).
//
// The same pair may be produced by several reducers (records can share
// more than one prefix token); stage 3 deduplicates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/varint.h"
#include "fuzzyjoin/config.h"
#include "mapreduce/dfs.h"
#include "mapreduce/metrics.h"
#include "mapreduce/record_format.h"

namespace fj::join {

/// The composite routing key of stage 2. The partitioner hashes `group`
/// only; the sort comparator orders lexicographically on
/// (group, s1, s2, s3) — the paper's "custom partitioning function"
/// technique. Field meaning by variant:
///
///   self-join kernel:            s1 = projection length
///   R-S kernel:                  s1 = length class (R: lower bound of its
///                                length; S: its length), s2 = relation
///                                (0 = R, 1 = S), s3 = length
///   map-based block processing:  s1 = round, s2 = block (self) /
///                                relation then block (R-S: s2 = relation,
///                                s3 = block)
///   reduce-based blocks:         s1 = block (self); s1 = relation,
///                                s2 = block (R-S)
struct Stage2Key {
  uint32_t group = 0;
  uint32_t s1 = 0;
  uint32_t s2 = 0;
  uint32_t s3 = 0;

  auto Tie() const { return std::tie(group, s1, s2, s3); }
  friend bool operator<(const Stage2Key& a, const Stage2Key& b) {
    return a.Tie() < b.Tie();
  }
  friend bool operator==(const Stage2Key& a, const Stage2Key& b) {
    return a.Tie() == b.Tie();
  }
};

inline uint64_t FjKeyHash(const Stage2Key& k) { return HashInt64(k.group); }
inline size_t FjByteSize(const Stage2Key&) { return 10; }
/// Contract-checker debug rendering (mapreduce/contract.h): violations
/// involving Stage2Keys name the concrete fields, not an opaque hash.
inline std::string FjDebugString(const Stage2Key& k) {
  return "Stage2Key{group=" + std::to_string(k.group) +
         ", s1=" + std::to_string(k.s1) + ", s2=" + std::to_string(k.s2) +
         ", s3=" + std::to_string(k.s3) + "}";
}
/// Integrity hash (integrity.h): unlike the partition hash above this
/// covers every field, so a flipped secondary-sort field is detected too.
inline uint64_t FjContentHash(const Stage2Key& k) {
  return HashCombine(HashCombine(HashInt64(k.group), HashInt64(k.s1)),
                     HashCombine(HashInt64(k.s2), HashInt64(k.s3)));
}
/// Binary run encoding (mapreduce/record_format.h): four varints. The
/// secondary-sort fields are small (lengths, rounds, 0/1 relation flags),
/// so most keys encode in 4-6 bytes against 16 raw.
inline void FjEncodeContent(const Stage2Key& k, std::string* out) {
  AppendVarint(out, k.group);
  AppendVarint(out, k.s1);
  AppendVarint(out, k.s2);
  AppendVarint(out, k.s3);
}
inline bool FjDecodeContent(std::string_view buf, size_t* pos, Stage2Key* k) {
  size_t at = *pos;
  uint64_t f[4];
  for (uint64_t& v : f) {
    if (!DecodeVarint(buf, &at, &v)) return false;
    if (v > UINT32_MAX) return false;
  }
  k->group = static_cast<uint32_t>(f[0]);
  k->s1 = static_cast<uint32_t>(f[1]);
  k->s2 = static_cast<uint32_t>(f[2]);
  k->s3 = static_cast<uint32_t>(f[3]);
  *pos = at;
  return true;
}

/// Formats one kernel output line ("rid1<TAB>rid2<TAB>sim") into `*out`
/// (overwritten); fixed-width similarity so duplicated pairs serialize
/// identically and stage 3 can deduplicate by string equality. The emit
/// paths reuse one buffer per reduce call so formatting allocates nothing
/// after the first pair.
void FormatRidPairLine(uint64_t rid1, uint64_t rid2, double similarity,
                       std::string* out);

/// Allocating convenience overload (tests, one-off formatting).
std::string FormatRidPairLine(uint64_t rid1, uint64_t rid2, double similarity);

/// Parses a kernel output line ("rid1<TAB>rid2<TAB>sim").
Result<std::tuple<uint64_t, uint64_t, double>> ParseRidPairLine(
    const std::string& line);

struct Stage2Result {
  /// Dfs file of RID-pair lines (possibly with duplicates).
  std::string pairs_file;
  std::vector<mr::JobMetrics> jobs;
};

/// Self-join kernel over `input_file`, using the stage-1 ordering in
/// `ordering_file`.
Result<Stage2Result> RunStage2SelfJoin(mr::Dfs* dfs,
                                       const std::string& input_file,
                                       const std::string& ordering_file,
                                       const std::string& output_file,
                                       const JoinConfig& config);

/// R-S kernel. The ordering must come from relation R (stage 1 runs on the
/// smaller relation); S tokens absent from it are dropped from routing but
/// kept in the token sets, so similarity values stay exact.
Result<Stage2Result> RunStage2RSJoin(mr::Dfs* dfs, const std::string& r_file,
                                     const std::string& s_file,
                                     const std::string& ordering_file,
                                     const std::string& output_file,
                                     const JoinConfig& config);

}  // namespace fj::join
