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
// Every variant, self or R-S, is one key layout (the Stage2Key table
// below) run by one mapper and one of three reducers (stage2.cc).
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
/// only, except under length classes, where it hashes (group, s1); the
/// sort orders lexicographically on (group, s1, s2, s3) — the paper's
/// "custom partitioning function" technique. Reduce groups share `group`
/// (and s1 under length classes).
///
/// A variant's key layout is the keys the mapper emits for a projection
/// in each of its prefix groups g. Here l is the projection's length,
/// lb(l) the length filter's lower bound, w = length_class_width, b =
/// hash(rid) % num_blocks its block, B = num_blocks, and the relation is
/// 0 for R and 1 for S:
///
///   layout              runs                   keys per prefix group g
///   self kernel         BK, PK                 (g, l, 0, 0)
///   self length classes BK + bk_length_routing (g, c, l/w, 0) for each
///                       or length signatures   class c in [lb(l)/w, l/w]
///                       (g = 0)
///   self map blocks     BK + map blocks        (g, r, b, 0), r in [0, b]
///   self reduce blocks  BK + reduce blocks     (g, b, 0, 0)
///   R-S length classes  PK                     R: (g, lb(l), 0, l)
///                                              S: (g, l, 1, l)
///   R-S relation        BK                     R: (g, 0, l, 0)
///                                              S: (g, 1, l, 0)
///   R-S map blocks      BK + map blocks        R: (g, b, 0, 0)
///                                              S: (g, r, 1, 0), r in [0, B)
///   R-S reduce blocks   BK + reduce blocks     R: (g, 0, b, 0)
///                                              S: (g, 1, 0, 0)
///
/// A value's role in its group follows from its key: a self-join record
/// probes the records held so far and is then held (under length classes
/// only in its own class, under map blocks only in the round of its own
/// block); an R record is only held and an S record only probes. Rounds
/// (map blocks) and blocks (reduce blocks) each start with nothing held.
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
