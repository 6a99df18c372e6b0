#include "text/token_ordering.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "common/hash.h"
#include "common/string_util.h"

namespace fj::text {

TokenOrdering TokenOrdering::FromCounts(
    const std::vector<std::pair<std::string, uint64_t>>& counts) {
  TokenOrdering ordering;
  ordering.by_rank_ = counts;
  std::sort(ordering.by_rank_.begin(), ordering.by_rank_.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  ordering.ranks_.reserve(ordering.by_rank_.size());
  for (size_t i = 0; i < ordering.by_rank_.size(); ++i) {
    ordering.InsertRank(ordering.by_rank_[i].first, i);
  }
  return ordering;
}

Result<TokenOrdering> TokenOrdering::FromLines(
    const std::vector<std::string>& lines) {
  TokenOrdering ordering;
  ordering.by_rank_.reserve(lines.size());
  ordering.ranks_.reserve(lines.size());
  for (const std::string& line : lines) {
    const std::string_view view(line);
    const size_t tab = view.find('\t');
    if (tab == std::string_view::npos ||
        view.find('\t', tab + 1) != std::string_view::npos) {
      return Status::InvalidArgument("bad token-ordering line: " +
                                     fj::ErrorExcerpt(line));
    }
    const std::string_view token = view.substr(0, tab);
    FJ_ASSIGN_OR_RETURN(uint64_t count, fj::ParseUint64(view.substr(tab + 1)));
    TokenId rank = ordering.by_rank_.size();
    if (!ordering.InsertRank(token, rank)) {
      return Status::InvalidArgument("duplicate token in ordering: " +
                                     fj::ErrorExcerpt(token));
    }
    ordering.by_rank_.emplace_back(std::string(token), count);
  }
  return ordering;
}

std::vector<std::string> TokenOrdering::ToLines() const {
  std::vector<std::string> lines;
  lines.reserve(by_rank_.size());
  for (const auto& [token, count] : by_rank_) {
    lines.push_back(token + "\t" + std::to_string(count));
  }
  return lines;
}

bool TokenOrdering::InsertRank(std::string_view token, TokenId rank) {
  auto [it, inserted] = ranks_.emplace(fj::HashString(token), rank);
  if (inserted) return true;
  if (by_rank_[static_cast<size_t>(it->second)].first == token) {
    return false;  // duplicate token
  }
  // Distinct tokens with colliding FNV hashes: the later one lives in the
  // string-keyed fallback map.
  return collision_ranks_.emplace(std::string(token), rank).second;
}

std::optional<TokenId> TokenOrdering::RankHashed(std::string_view token,
                                                 uint64_t hash) const {
  auto it = ranks_.find(hash);
  if (it != ranks_.end() &&
      by_rank_[static_cast<size_t>(it->second)].first == token) {
    return it->second;
  }
  if (!collision_ranks_.empty()) {
    auto ct = collision_ranks_.find(std::string(token));
    if (ct != collision_ranks_.end()) return ct->second;
  }
  return std::nullopt;
}

std::optional<TokenId> TokenOrdering::Rank(std::string_view token) const {
  return RankHashed(token, fj::HashString(token));
}

TokenId TokenOrdering::IdOf(std::string_view token) const {
  uint64_t hash = fj::HashString(token);
  if (std::optional<TokenId> rank = RankHashed(token, hash)) return *rank;
  // Stable id outside the rank range, reusing the already-computed hash.
  // Guaranteed >= kUnknownTokenBase.
  return kUnknownTokenBase | hash;
}

namespace {

/// One ToSortedIds for both token containers: one IdOf (one FNV-1a hash)
/// per token, then sort and dedupe.
template <typename Tokens>
void SortedIdsOf(const TokenOrdering& ordering, const Tokens& tokens,
                 std::vector<TokenId>* ids) {
  ids->clear();
  ids->reserve(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    ids->push_back(ordering.IdOf(tokens[i]));
  }
  std::sort(ids->begin(), ids->end());
  // Hash-derived ids for *distinct* unknown tokens could in principle
  // collide; dedupe so the result is a set.
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

}  // namespace

void TokenOrdering::ToSortedIds(const TokenList& tokens,
                                std::vector<TokenId>* ids) const {
  SortedIdsOf(*this, tokens, ids);
}

std::vector<TokenId> TokenOrdering::ToSortedIds(
    const std::vector<std::string>& tokens) const {
  std::vector<TokenId> ids;
  SortedIdsOf(*this, tokens, &ids);
  return ids;
}

uint64_t TokenOrdering::FrequencyOfRank(TokenId rank) const {
  assert(rank < by_rank_.size());
  return by_rank_[static_cast<size_t>(rank)].second;
}

const std::string& TokenOrdering::TokenOfRank(TokenId rank) const {
  assert(rank < by_rank_.size());
  return by_rank_[static_cast<size_t>(rank)].first;
}

}  // namespace fj::text
