// String-to-token-set conversion.
//
// The paper maps strings to sets by tokenizing them, using words or q-grams
// as tokens (Section 2). Normalization ("cleaning") happens inside the
// algorithms — the paper explicitly does not pre-clean its datasets — so the
// tokenizers lower-case and strip punctuation themselves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fj::text {

/// What to do with repeated tokens within one string. Set-similarity is
/// defined on sets, so duplicates must either be removed or disambiguated.
enum class DuplicatePolicy {
  kRemove,  ///< keep the first occurrence only (a string becomes a true set)
  kNumber,  ///< k-th duplicate becomes "token#k", preserving multiplicity
};

/// The tokens of one string: one byte buffer plus the end offset of each
/// token. A task tokenizes every record into the same list, so once the
/// buffers have grown nothing is allocated per token or per record. The
/// views it hands out are valid until the list is next changed.
class TokenList {
 public:
  size_t size() const { return ends_.size(); }

  std::string_view operator[](size_t i) const {
    const size_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::string_view(bytes_.data() + begin, ends_[i] - begin);
  }

  void clear() {
    bytes_.clear();
    ends_.clear();
  }

  /// Appends `token` as the last token.
  void Add(std::string_view token) {
    bytes_.append(token);
    ends_.push_back(bytes_.size());
  }

  /// The tokens as separate strings.
  std::vector<std::string> ToStrings() const;

 private:
  friend class WordTokenizer;
  friend class QGramTokenizer;
  friend void ApplyDuplicatePolicy(DuplicatePolicy policy, TokenList* tokens);

  std::string bytes_;
  /// Token i is bytes_[ends_[i - 1], ends_[i]), starting at 0 for i = 0.
  std::vector<size_t> ends_;
  /// Scratch the tokenizers and the duplicate policy reuse across calls:
  /// the q-gram normalized string, (hash, position) per token in sort
  /// order, and per-position repeat counts.
  std::string norm_;
  std::vector<std::pair<uint64_t, uint32_t>> order_;
  std::vector<uint32_t> repeats_;
};

class Tokenizer {
 public:
  virtual ~Tokenizer() = default;

  /// Splits `text` into `*tokens` (replacing its contents), applying the
  /// duplicate policy.
  virtual void TokenizeInto(std::string_view text, TokenList* tokens) const = 0;

  /// The same tokens as separate strings.
  std::vector<std::string> Tokenize(std::string_view text) const;

  /// Short name for diagnostics ("word", "qgram3", ...).
  virtual std::string Name() const = 0;
};

/// Word tokenizer: lower-cases, then splits on any non-alphanumeric byte
/// (alphanumeric as in the C locale: [0-9A-Za-z]; bytes >= 0x80 split).
/// "I will call back" -> [i, will, call, back].
class WordTokenizer : public Tokenizer {
 public:
  explicit WordTokenizer(DuplicatePolicy policy = DuplicatePolicy::kRemove)
      : policy_(policy) {}

  void TokenizeInto(std::string_view text, TokenList* tokens) const override;
  std::string Name() const override { return "word"; }

 private:
  DuplicatePolicy policy_;
};

/// Overlapping fixed-length substrings ("q-grams") over the lower-cased,
/// whitespace-normalized string, padded with q-1 '$' on the left and '#'
/// on the right so every character participates in q grams. With q-gram
/// tokens the pipeline answers edit-distance-style approximate matching
/// (the paper's footnote 1).
class QGramTokenizer : public Tokenizer {
 public:
  explicit QGramTokenizer(size_t q,
                          DuplicatePolicy policy = DuplicatePolicy::kNumber);

  void TokenizeInto(std::string_view text, TokenList* tokens) const override;
  std::string Name() const override { return "qgram" + std::to_string(q_); }

  size_t q() const { return q_; }

 private:
  size_t q_;
  DuplicatePolicy policy_;
};

/// Applies the duplicate policy to an ordered token list in place. The
/// first occurrence of a token keeps its place and spelling; later
/// occurrences are dropped (kRemove) or become "token#k" (kNumber), where
/// k counts the earlier copies of the token as it was before numbering.
void ApplyDuplicatePolicy(DuplicatePolicy policy, TokenList* tokens);

/// The same on separate strings.
void ApplyDuplicatePolicy(DuplicatePolicy policy,
                          std::vector<std::string>* tokens);

}  // namespace fj::text
