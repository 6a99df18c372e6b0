#include "text/tokenizer.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>

#include "common/hash.h"

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

std::vector<std::string> TokenList::ToStrings() const {
  std::vector<std::string> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) out.emplace_back((*this)[i]);
  return out;
}

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  TokenList tokens;
  TokenizeInto(text, &tokens);
  return tokens.ToStrings();
}

void ApplyDuplicatePolicy(DuplicatePolicy policy, TokenList* tokens) {
  TokenList& t = *tokens;
  const size_t n = t.size();
  if (n < 2) return;
  // Sort (hash, position) by hash, then token bytes, then position, so the
  // copies of one token form a run in emit order; repeats[i] counts the
  // equal tokens before position i, 0 for a first occurrence. Distinct
  // tokens almost never share a hash, so bytes are compared only between
  // copies.
  t.order_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    t.order_[i] = {fj::HashString(t[i]), static_cast<uint32_t>(i)};
  }
  std::sort(t.order_.begin(), t.order_.end(),
            [&t](const std::pair<uint64_t, uint32_t>& a,
                 const std::pair<uint64_t, uint32_t>& b) {
              if (a.first != b.first) return a.first < b.first;
              const int c = t[a.second].compare(t[b.second]);
              return c != 0 ? c < 0 : a.second < b.second;
            });
  t.repeats_.assign(n, 0);
  bool any_repeat = false;
  for (size_t k = 1; k < n; ++k) {
    const auto& [hash, pos] = t.order_[k];
    const auto& [prev_hash, prev_pos] = t.order_[k - 1];
    if (hash == prev_hash && t[pos] == t[prev_pos]) {
      t.repeats_[pos] = t.repeats_[prev_pos] + 1;
      any_repeat = true;
    }
  }
  if (!any_repeat) return;

  if (policy == DuplicatePolicy::kRemove) {
    // Slide every first occurrence left over the dropped copies.
    char* const bytes = t.bytes_.data();
    size_t start = 0;  // where token i starts before the move
    size_t write = 0;
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t end = t.ends_[i];
      if (t.repeats_[i] == 0) {
        std::memmove(bytes + write, bytes + start, end - start);
        write += end - start;
        t.ends_[kept++] = write;
      }
      start = end;
    }
    t.bytes_.resize(write);
    t.ends_.resize(kept);
    return;
  }
  // kNumber: the k-th copy gains "#k". Tokens only grow, so the buffer is
  // rewritten from the back and no token is overwritten before it moves.
  size_t grown = t.bytes_.size();
  for (size_t i = 0; i < n; ++i) {
    if (t.repeats_[i] == 0) continue;
    char digits[16];
    grown += 1 + static_cast<size_t>(
                     std::to_chars(digits, digits + sizeof(digits),
                                   t.repeats_[i]).ptr - digits);
  }
  t.bytes_.resize(grown);
  char* const out = t.bytes_.data();
  size_t write_end = grown;
  for (size_t i = n; i-- > 0;) {
    const size_t begin = i == 0 ? 0 : t.ends_[i - 1];
    const size_t len = t.ends_[i] - begin;
    t.ends_[i] = write_end;
    if (t.repeats_[i] != 0) {
      char suffix[16] = {'#'};
      const size_t suffix_len = static_cast<size_t>(
          std::to_chars(suffix + 1, suffix + sizeof(suffix), t.repeats_[i])
              .ptr - suffix);
      write_end -= suffix_len;
      std::memcpy(out + write_end, suffix, suffix_len);
    }
    write_end -= len;
    std::memmove(out + write_end, out + begin, len);
  }
}

void ApplyDuplicatePolicy(DuplicatePolicy policy,
                          std::vector<std::string>* tokens) {
  TokenList list;
  for (const std::string& token : *tokens) list.Add(token);
  ApplyDuplicatePolicy(policy, &list);
  *tokens = list.ToStrings();
}

void WordTokenizer::TokenizeInto(std::string_view text,
                                 TokenList* tokens) const {
  tokens->clear();
  // The tokens never hold more bytes than the text: write the folded
  // bytes through a pointer, then trim.
  std::string& bytes = tokens->bytes_;
  bytes.resize(text.size());
  tokens->ends_.reserve(text.size() / 2 + 1);
  char* const first = bytes.data();
  char* out = first;
  bool in_token = false;
  for (char raw : text) {
    const char c = Fold(raw);
    if (c != 0) {
      *out++ = c;
      in_token = true;
    } else if (in_token) {
      tokens->ends_.push_back(static_cast<size_t>(out - first));
      in_token = false;
    }
  }
  if (in_token) tokens->ends_.push_back(static_cast<size_t>(out - first));
  bytes.resize(static_cast<size_t>(out - first));
  ApplyDuplicatePolicy(policy_, tokens);
}

QGramTokenizer::QGramTokenizer(size_t q, DuplicatePolicy policy)
    : q_(q == 0 ? 1 : q), policy_(policy) {}

void QGramTokenizer::TokenizeInto(std::string_view text,
                                  TokenList* tokens) const {
  tokens->clear();
  // Normalize: lower-case; collapse runs of non-alphanumerics to one space.
  std::string& norm = tokens->norm_;
  norm.clear();
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

  if (norm.size() >= q_) {
    const size_t count = norm.size() - q_ + 1;
    tokens->bytes_.reserve(count * q_);
    tokens->ends_.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      tokens->Add(std::string_view(norm).substr(i, q_));
    }
  }
  ApplyDuplicatePolicy(policy_, tokens);
}

}  // namespace fj::text
