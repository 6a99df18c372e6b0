#include "text/tokenizer.h"

#include <algorithm>
#include <array>
#include <cstdint>

namespace fj::text {

namespace {

/// C-locale std::isalnum and std::tolower folded into one lookup: the
/// lower-cased byte for [0-9A-Za-z], 0 for every other byte. Nothing in
/// the program calls setlocale, so this is what the per-byte calls
/// answer, without their locale lookups.
constexpr std::array<char, 256> MakeFoldTable() {
  std::array<char, 256> table{};
  for (int c = '0'; c <= '9'; ++c) table[c] = static_cast<char>(c);
  for (int c = 'a'; c <= 'z'; ++c) table[c] = static_cast<char>(c);
  for (int c = 'A'; c <= 'Z'; ++c) table[c] = static_cast<char>(c - 'A' + 'a');
  return table;
}

constexpr std::array<char, 256> kFold = MakeFoldTable();

/// The lower-cased alphanumeric byte, or 0 for a separator.
char Fold(char raw) { return kFold[static_cast<unsigned char>(raw)]; }

}  // namespace

void ApplyDuplicatePolicy(DuplicatePolicy policy,
                          std::vector<std::string>* tokens) {
  std::vector<std::string>& t = *tokens;
  const size_t n = t.size();
  if (n < 2) return;
  // Sort positions by token (position breaks ties), so the copies of one
  // token form a run in emit order; repeats[i] counts the equal tokens
  // before position i, 0 for a first occurrence.
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&t](uint32_t a, uint32_t b) {
    const int c = t[a].compare(t[b]);
    return c != 0 ? c < 0 : a < b;
  });
  std::vector<uint32_t> repeats(n, 0);
  for (size_t k = 1; k < n; ++k) {
    if (t[order[k]] == t[order[k - 1]]) {
      repeats[order[k]] = repeats[order[k - 1]] + 1;
    }
  }

  if (policy == DuplicatePolicy::kRemove) {
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      if (repeats[i] != 0) continue;
      // A self-move would empty the string.
      if (kept != i) t[kept] = std::move(t[i]);
      ++kept;
    }
    t.resize(kept);
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (repeats[i] == 0) continue;
      t[i] += '#';
      t[i] += std::to_string(repeats[i]);
    }
  }
}

std::vector<std::string> WordTokenizer::Tokenize(std::string_view text) const {
  std::vector<std::string> tokens;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    if (Fold(*p) == 0) {
      ++p;
      continue;
    }
    const char* const begin = p;
    while (p != end && Fold(*p) != 0) ++p;
    std::string& token = tokens.emplace_back(begin, p);
    for (char& c : token) c = Fold(c);
  }
  ApplyDuplicatePolicy(policy_, &tokens);
  return tokens;
}

QGramTokenizer::QGramTokenizer(size_t q, DuplicatePolicy policy)
    : q_(q == 0 ? 1 : q), policy_(policy) {}

std::vector<std::string> QGramTokenizer::Tokenize(std::string_view text) const {
  // Normalize: lower-case; collapse runs of non-alphanumerics to one space.
  std::string norm;
  norm.reserve(text.size() + 2 * (q_ - 1));
  norm.append(q_ - 1, '$');
  bool pending_space = false;
  for (char raw : text) {
    const char c = Fold(raw);
    if (c != 0) {
      if (pending_space && !norm.empty() && norm.back() != '$') norm += ' ';
      pending_space = false;
      norm += c;
    } else {
      pending_space = true;
    }
  }
  norm.append(q_ - 1, '#');

  std::vector<std::string> tokens;
  if (norm.size() >= q_) {
    tokens.reserve(norm.size() - q_ + 1);
    for (size_t i = 0; i + q_ <= norm.size(); ++i) {
      tokens.emplace_back(norm.substr(i, q_));
    }
  }
  ApplyDuplicatePolicy(policy_, &tokens);
  return tokens;
}

}  // namespace fj::text
