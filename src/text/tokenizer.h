// String-to-token-set conversion.
//
// The paper maps strings to sets by tokenizing them, using words or q-grams
// as tokens (Section 2). Normalization ("cleaning") happens inside the
// algorithms — the paper explicitly does not pre-clean its datasets — so the
// tokenizers lower-case and strip punctuation themselves.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace fj::text {

/// What to do with repeated tokens within one string. Set-similarity is
/// defined on sets, so duplicates must either be removed or disambiguated.
enum class DuplicatePolicy {
  kRemove,  ///< keep the first occurrence only (a string becomes a true set)
  kNumber,  ///< k-th duplicate becomes "token#k", preserving multiplicity
};

class Tokenizer {
 public:
  virtual ~Tokenizer() = default;

  /// Splits `text` into tokens, applying the duplicate policy.
  virtual std::vector<std::string> Tokenize(std::string_view text) const = 0;

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

  std::vector<std::string> Tokenize(std::string_view text) const override;
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

  std::vector<std::string> Tokenize(std::string_view text) const override;
  std::string Name() const override { return "qgram" + std::to_string(q_); }

  size_t q() const { return q_; }

 private:
  size_t q_;
  DuplicatePolicy policy_;
};

/// Applies the duplicate policy to an ordered token list in place. The
/// first occurrence of a token keeps its place and spelling; later
/// occurrences are dropped (kRemove) or become "token#k" (kNumber).
void ApplyDuplicatePolicy(DuplicatePolicy policy,
                          std::vector<std::string>* tokens);

}  // namespace fj::text
