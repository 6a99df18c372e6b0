// The global token ordering — the product of the paper's Stage 1.
//
// Tokens are ranked by increasing corpus frequency (ties broken
// lexicographically, so the ordering is total and deterministic). Prefix
// filtering uses this ordering: a record's prefix consists of its *rarest*
// tokens, which keeps candidate groups small and balances reducers despite
// token-frequency skew (Section 3).
//
// Records are converted to sorted arrays of TokenId. Known tokens map to
// their rank (0 = rarest). Tokens absent from the ordering (they occur in an
// R-S join when relation S contains tokens that relation R never produced)
// map to ids >= kUnknownTokenBase derived from a stable 64-bit hash: they
// cannot collide with ranks, compare consistently across records, and can
// never match a token of the indexed relation — while still counting toward
// set sizes so similarity values stay exact.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "text/tokenizer.h"

namespace fj::text {

using TokenId = uint64_t;

/// Ids at or above this value denote out-of-dictionary tokens.
inline constexpr TokenId kUnknownTokenBase = uint64_t{1} << 32;

/// True if `id` denotes a token that was not in the stage-1 ordering.
inline bool IsUnknownToken(TokenId id) { return id >= kUnknownTokenBase; }

class TokenOrdering {
 public:
  TokenOrdering() = default;

  /// Builds an ordering from (token, frequency) pairs, ranking by
  /// (frequency ascending, token ascending).
  static TokenOrdering FromCounts(
      const std::vector<std::pair<std::string, uint64_t>>& counts);

  /// Parses the stage-1 output: one "token<TAB>count" line per token, in
  /// rank order (rarest first). Inverse of ToLines(). A line without
  /// exactly one tab is InvalidArgument quoting the line; a repeated token
  /// quotes the token, a bad count the count.
  static Result<TokenOrdering> FromLines(const std::vector<std::string>& lines);

  /// Serializes to "token<TAB>count" lines in rank order.
  std::vector<std::string> ToLines() const;

  /// Rank of `token`, or nullopt if not in the ordering.
  std::optional<TokenId> Rank(std::string_view token) const;

  /// Id for `token`: its rank if known, otherwise a stable hash-derived id
  /// >= kUnknownTokenBase. The token is hashed exactly once (FNV-1a): the
  /// same hash drives the rank lookup and, on a miss, the unknown id — the
  /// hot path of ToSortedIds.
  TokenId IdOf(std::string_view token) const;

  /// Maps tokens to ids and sorts ascending, without duplicates, into
  /// `*ids` (replacing its contents) — the canonical set representation
  /// consumed by the similarity kernels. (Ascending id order IS the global
  /// frequency order for known tokens; unknown tokens sort after every
  /// known one, i.e. they are treated as maximally frequent, which keeps
  /// prefix filtering correct for R-S joins.)
  void ToSortedIds(const TokenList& tokens, std::vector<TokenId>* ids) const;

  /// The same for tokens held as separate strings.
  std::vector<TokenId> ToSortedIds(const std::vector<std::string>& tokens) const;

  /// Corpus frequency of the token with the given rank.
  uint64_t FrequencyOfRank(TokenId rank) const;

  /// Token string for a known rank (diagnostics / tests).
  const std::string& TokenOfRank(TokenId rank) const;

  size_t size() const { return by_rank_.size(); }
  bool empty() const { return by_rank_.empty(); }

 private:
  /// Registers `token` under `rank`. Returns false if the token already
  /// has a rank (duplicate).
  bool InsertRank(std::string_view token, TokenId rank);

  /// Rank lookup with a precomputed FNV-1a hash of `token`.
  std::optional<TokenId> RankHashed(std::string_view token,
                                    uint64_t hash) const;

  std::vector<std::pair<std::string, uint64_t>> by_rank_;  // (token, count)
  /// FNV-1a(token) -> rank. Integer-keyed so a lookup hashes the token
  /// string once; a hit is confirmed with one string compare against
  /// by_rank_. The rare distinct-token FNV collisions fall back to
  /// collision_ranks_ (string-keyed, almost always empty).
  std::unordered_map<uint64_t, TokenId> ranks_;
  std::unordered_map<std::string, TokenId> collision_ranks_;
};

}  // namespace fj::text
