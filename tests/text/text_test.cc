// Tokenizers and the global token ordering.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "text/token_ordering.h"
#include "text/tokenizer.h"

namespace fj::text {
namespace {

// ---- Oracle: the straightforward tokenizers, a per-byte <cctype> loop
// and a hash-set / hash-map duplicate pass. The library's table-driven
// tokenizers must agree with them on every input.

void ReferenceDuplicatePolicy(DuplicatePolicy policy,
                              std::vector<std::string>* tokens) {
  if (policy == DuplicatePolicy::kRemove) {
    std::unordered_set<std::string> seen;
    std::vector<std::string> out;
    for (auto& t : *tokens) {
      if (seen.insert(t).second) out.push_back(std::move(t));
    }
    *tokens = std::move(out);
  } else {
    std::unordered_map<std::string, size_t> occurrences;
    for (auto& t : *tokens) {
      size_t n = occurrences[t]++;
      if (n > 0) t += "#" + std::to_string(n);
    }
  }
}

std::vector<std::string> ReferenceWordTokens(const std::string& text,
                                             DuplicatePolicy policy) {
  std::vector<std::string> tokens;
  std::string current;
  for (char raw : text) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      current += static_cast<char>(std::tolower(c));
    } else if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(current);
  ReferenceDuplicatePolicy(policy, &tokens);
  return tokens;
}

std::vector<std::string> ReferenceQGramTokens(const std::string& text,
                                              size_t q,
                                              DuplicatePolicy policy) {
  std::string norm(q - 1, '$');
  bool pending_space = false;
  for (char raw : text) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      if (pending_space && !norm.empty() && norm.back() != '$') norm += ' ';
      pending_space = false;
      norm += static_cast<char>(std::tolower(c));
    } else {
      pending_space = true;
    }
  }
  norm.append(q - 1, '#');
  std::vector<std::string> tokens;
  for (size_t i = 0; i + q <= norm.size(); ++i) {
    tokens.push_back(norm.substr(i, q));
  }
  ReferenceDuplicatePolicy(policy, &tokens);
  return tokens;
}

/// Calls `check(tokenizer, oracle_tokens)` for every tokenizer
/// configuration on `text`.
template <typename Fn>
void ForEachConfiguration(const std::string& text, Fn&& check) {
  for (DuplicatePolicy policy :
       {DuplicatePolicy::kRemove, DuplicatePolicy::kNumber}) {
    check(WordTokenizer(policy), ReferenceWordTokens(text, policy));
    for (size_t q : {1, 2, 3}) {
      check(QGramTokenizer(q, policy), ReferenceQGramTokens(text, q, policy));
    }
  }
}

/// An ordering over the oracle tokens of some of the inputs, so that the
/// others bring unknown tokens.
TokenOrdering OrderingOf(const std::vector<std::string>& texts) {
  std::map<std::string, uint64_t> counts;
  for (const std::string& text : texts) {
    ForEachConfiguration(text, [&counts](const Tokenizer&,
                                         const std::vector<std::string>& want) {
      for (const std::string& token : want) ++counts[token];
    });
  }
  return TokenOrdering::FromCounts({counts.begin(), counts.end()});
}

/// Every tokenizer configuration against its oracle on one input, through
/// the vector path and the token-list path. One list serves every call, as
/// one does for every record of a task.
void ExpectMatchesOracle(const std::string& text,
                         const TokenOrdering& ordering) {
  static TokenList* const shared_list = new TokenList;
  std::vector<TokenId> ids;
  ForEachConfiguration(text, [&](const Tokenizer& tokenizer,
                                 const std::vector<std::string>& want) {
    SCOPED_TRACE(tokenizer.Name());
    SCOPED_TRACE(text.size());
    EXPECT_EQ(tokenizer.Tokenize(text), want);
    tokenizer.TokenizeInto(text, shared_list);
    ASSERT_EQ(shared_list->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*shared_list)[i], want[i]) << "token " << i;
    }
    EXPECT_EQ(shared_list->ToStrings(), want);
    ordering.ToSortedIds(*shared_list, &ids);
    EXPECT_EQ(ids, ordering.ToSortedIds(want));
  });
}

/// Runs ExpectMatchesOracle on every input, under an ordering built from
/// the first half of them.
void ExpectAllMatchOracle(const std::vector<std::string>& texts) {
  const TokenOrdering ordering = OrderingOf(
      std::vector<std::string>(texts.begin(), texts.begin() + texts.size() / 2));
  for (size_t i = 0; i < texts.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectMatchesOracle(texts[i], ordering);
  }
}

TEST(TokenizerOracleTest, EverySingleByte) {
  std::vector<std::string> texts;
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    texts.push_back(std::string(1, c));
    // The byte inside, between and around tokens, repeated.
    texts.push_back(std::string("ab") + c + "AB" + c + "ab" + c + c);
  }
  ExpectAllMatchOracle(texts);
}

TEST(TokenizerOracleTest, RandomStringsWithRepeatsAndHighBytes) {
  // Few distinct fragments, so tokens repeat within a string (in mixed
  // case too), and separators that are punctuation or bytes >= 0x80.
  const std::vector<std::string> fragments = {
      "a", "ab", "AB", "Ab", "x1", "the", "THE", "b2b", "zz", "Caf\xc3\xa9",
      "a#1", "#", "$", "0", "9Z", "long_token_past_sso",
      "LONG_token_PAST_sso"};
  const std::vector<char> separators = {' ', '\t', ',', '-', '.', '\0',
                                        '\x80', '\xa0', '\xc3', '\xff'};
  fj::Rng rng(20240917);
  std::vector<std::string> texts;
  for (int round = 0; round < 3000; ++round) {
    std::string text;
    const size_t pieces = rng.NextBelow(24);
    for (size_t i = 0; i < pieces; ++i) {
      switch (rng.NextBelow(4)) {
        case 0:
          text.push_back(static_cast<char>(rng.NextBelow(256)));
          break;
        case 1:
          text.push_back(separators[rng.NextBelow(separators.size())]);
          break;
        default:
          text += fragments[rng.NextBelow(fragments.size())];
          if (rng.NextBool(0.7)) {
            text.push_back(separators[rng.NextBelow(separators.size())]);
          }
          break;
      }
    }
    texts.push_back(std::move(text));
  }
  ExpectAllMatchOracle(texts);
}

TEST(TokenizerOracleTest, DuplicatePolicyKeepsFirstOccurrences) {
  // Many copies of few tokens: every kept token must keep its spelling
  // (a compaction that moved a string onto itself would empty it).
  std::vector<std::string> tokens;
  for (int i = 0; i < 50; ++i) {
    tokens.push_back("t" + std::to_string(i % 7));
    tokens.push_back("u");
  }
  for (DuplicatePolicy policy :
       {DuplicatePolicy::kRemove, DuplicatePolicy::kNumber}) {
    std::vector<std::string> got = tokens;
    std::vector<std::string> want = tokens;
    ApplyDuplicatePolicy(policy, &got);
    ReferenceDuplicatePolicy(policy, &want);
    EXPECT_EQ(got, want);
  }
  std::vector<std::string> removed = tokens;
  ApplyDuplicatePolicy(DuplicatePolicy::kRemove, &removed);
  EXPECT_EQ(removed, (std::vector<std::string>{"t0", "u", "t1", "t2", "t3",
                                               "t4", "t5", "t6"}));
}

TEST(WordTokenizerTest, PaperExample) {
  WordTokenizer tokenizer;
  EXPECT_EQ(tokenizer.Tokenize("I will call back"),
            (std::vector<std::string>{"i", "will", "call", "back"}));
}

TEST(WordTokenizerTest, PunctuationAndCase) {
  WordTokenizer tokenizer;
  EXPECT_EQ(tokenizer.Tokenize("Smith, John W."),
            (std::vector<std::string>{"smith", "john", "w"}));
  EXPECT_EQ(tokenizer.Tokenize("  --  "), (std::vector<std::string>{}));
  EXPECT_EQ(tokenizer.Tokenize(""), (std::vector<std::string>{}));
  EXPECT_EQ(tokenizer.Tokenize("a1b2"), (std::vector<std::string>{"a1b2"}));
}

TEST(WordTokenizerTest, DuplicatePolicies) {
  WordTokenizer remove_dups(DuplicatePolicy::kRemove);
  EXPECT_EQ(remove_dups.Tokenize("to be or not to be"),
            (std::vector<std::string>{"to", "be", "or", "not"}));
  WordTokenizer number_dups(DuplicatePolicy::kNumber);
  EXPECT_EQ(number_dups.Tokenize("to be or not to be"),
            (std::vector<std::string>{"to", "be", "or", "not", "to#1",
                                      "be#1"}));
}

TEST(QGramTokenizerTest, PaddedGrams) {
  QGramTokenizer tokenizer(3, DuplicatePolicy::kRemove);
  auto grams = tokenizer.Tokenize("ab");
  // "$$ab##" -> $$a, $ab, ab#, b##
  EXPECT_EQ(grams, (std::vector<std::string>{"$$a", "$ab", "ab#", "b##"}));
  EXPECT_EQ(tokenizer.Name(), "qgram3");
}

TEST(QGramTokenizerTest, NormalizesWhitespaceAndCase) {
  QGramTokenizer tokenizer(2, DuplicatePolicy::kRemove);
  EXPECT_EQ(tokenizer.Tokenize("A  B"), tokenizer.Tokenize("a b"));
  EXPECT_EQ(tokenizer.Tokenize("-a"), tokenizer.Tokenize("a"));
}

TEST(QGramTokenizerTest, EmptyAndDegenerate) {
  QGramTokenizer tokenizer(3);
  EXPECT_EQ(tokenizer.Tokenize("").size(), 2u);  // "$$##" -> $$#, $##
  QGramTokenizer q1(1);
  EXPECT_TRUE(q1.Tokenize("").empty());
  EXPECT_EQ(q1.Tokenize("ab"), (std::vector<std::string>{"a", "b"}));
  QGramTokenizer q0(0);  // clamped to 1
  EXPECT_EQ(q0.q(), 1u);
}

TEST(TokenOrderingTest, RanksByFrequencyThenToken) {
  auto ordering = TokenOrdering::FromCounts(
      {{"common", 10}, {"rare", 1}, {"mid", 5}, {"also1", 1}});
  // rare ties broken lexicographically: also1 < rare.
  EXPECT_EQ(ordering.Rank("also1").value(), 0u);
  EXPECT_EQ(ordering.Rank("rare").value(), 1u);
  EXPECT_EQ(ordering.Rank("mid").value(), 2u);
  EXPECT_EQ(ordering.Rank("common").value(), 3u);
  EXPECT_FALSE(ordering.Rank("absent").has_value());
  EXPECT_EQ(ordering.size(), 4u);
  EXPECT_EQ(ordering.TokenOfRank(2), "mid");
  EXPECT_EQ(ordering.FrequencyOfRank(3), 10u);
}

TEST(TokenOrderingTest, LinesRoundTrip) {
  auto ordering =
      TokenOrdering::FromCounts({{"a", 3}, {"b", 1}, {"c", 2}});
  auto lines = ordering.ToLines();
  EXPECT_EQ(lines, (std::vector<std::string>{"b\t1", "c\t2", "a\t3"}));
  auto parsed = TokenOrdering::FromLines(lines);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Rank("b").value(), 0u);
  EXPECT_EQ(parsed->Rank("a").value(), 2u);
  EXPECT_EQ(parsed->ToLines(), lines);
}

TEST(TokenOrderingTest, FromLinesRejectsGarbage) {
  EXPECT_FALSE(TokenOrdering::FromLines({"no-tab-here"}).ok());
  EXPECT_FALSE(TokenOrdering::FromLines({"a\tnotanumber"}).ok());
  EXPECT_FALSE(TokenOrdering::FromLines({"a\t1", "a\t2"}).ok());  // dup
}

TEST(TokenOrderingTest, UnknownTokensGetStableHighIds) {
  auto ordering = TokenOrdering::FromCounts({{"known", 2}});
  TokenId unknown = ordering.IdOf("mystery");
  EXPECT_TRUE(IsUnknownToken(unknown));
  EXPECT_EQ(unknown, ordering.IdOf("mystery"));  // stable
  EXPECT_FALSE(IsUnknownToken(ordering.IdOf("known")));
  EXPECT_NE(ordering.IdOf("mystery"), ordering.IdOf("mystery2"));
}

TEST(TokenOrderingTest, ToSortedIdsOrdersRareFirstUnknownLast) {
  auto ordering = TokenOrdering::FromCounts({{"freq", 9}, {"rare", 1}});
  auto ids = ordering.ToSortedIds({"freq", "mystery", "rare"});
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], ordering.Rank("rare").value());
  EXPECT_EQ(ids[1], ordering.Rank("freq").value());
  EXPECT_TRUE(IsUnknownToken(ids[2]));
}

TEST(TokenOrderingTest, ToSortedIdsDeduplicates) {
  auto ordering = TokenOrdering::FromCounts({{"a", 1}, {"b", 2}});
  EXPECT_EQ(ordering.ToSortedIds({"b", "a", "b", "a"}).size(), 2u);
}

TEST(TokenOrderingTest, EmptyOrdering) {
  TokenOrdering ordering;
  EXPECT_TRUE(ordering.empty());
  EXPECT_TRUE(IsUnknownToken(ordering.IdOf("anything")));
  EXPECT_TRUE(ordering.ToSortedIds({}).empty());
}

}  // namespace
}  // namespace fj::text
