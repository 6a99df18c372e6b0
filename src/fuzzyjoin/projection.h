// The record projection shuffled in stage 2: (RID, join-attribute token
// ids). Projecting records down to this pair — instead of carrying whole
// records through the kernel — is one of the paper's key design decisions
// (Section 2.2; the full-record alternative performed much worse).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/varint.h"
#include "ppjoin/token_set.h"
#include "text/token_ordering.h"

namespace fj::ppjoin {

/// Sort-buffer charge: RID + varint-ish token encoding. Lives in
/// fj::ppjoin so the engine's ByteSizeOf finds it via ADL on
/// TokenSetRecord.
inline size_t FjByteSize(const TokenSetRecord& p) {
  return 8 + 4 * p.tokens.size();
}

/// Run encoding (mapreduce/record_format.h): varint RID, varint token
/// count, then delta-varint token ids. Every kernel keeps tokens
/// ascending, so deltas are small and most encode in one byte — the
/// projection takes roughly 2 + n bytes against the 8 + 4n estimate.
/// Deltas use wrapping uint64 subtraction, which stays bijective even on
/// non-ascending inputs.
inline void FjEncodeContent(const TokenSetRecord& p, std::string* out) {
  AppendVarint(out, p.rid);
  AppendVarint(out, p.tokens.size());
  uint64_t prev = 0;
  for (TokenId t : p.tokens) {
    AppendVarint(out, static_cast<uint64_t>(t) - prev);
    prev = t;
  }
}

inline bool FjDecodeContent(std::string_view buf, size_t* pos,
                            TokenSetRecord* p) {
  size_t at = *pos;
  uint64_t rid = 0;
  uint64_t count = 0;
  if (!DecodeVarint(buf, &at, &rid)) return false;
  if (!DecodeVarint(buf, &at, &count)) return false;
  // Every delta occupies at least one byte, so a count beyond the
  // remaining bytes is corrupt — reject before reserving.
  if (count > buf.size() - at) return false;
  p->rid = rid;
  p->tokens.clear();
  p->tokens.reserve(count);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t delta = 0;
    if (!DecodeVarint(buf, &at, &delta)) return false;
    prev += delta;
    p->tokens.push_back(static_cast<TokenId>(prev));
  }
  *pos = at;
  return true;
}

}  // namespace fj::ppjoin

namespace fj::join {

using ppjoin::TokenSetRecord;
using text::TokenId;

}  // namespace fj::join
