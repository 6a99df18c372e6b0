#include "corpus.h"

#include <cstdint>
#include <map>
#include <string>

#include "text/tokenizer.h"

namespace perfbench {

fj::text::TokenOrdering OrderingOf(const std::vector<fj::data::Record>& records) {
  const fj::text::WordTokenizer tokenizer;
  std::map<std::string, uint64_t> counts;
  for (const fj::data::Record& rec : records) {
    for (const std::string& t : tokenizer.Tokenize(rec.JoinAttribute())) ++counts[t];
  }
  return fj::text::TokenOrdering::FromCounts({counts.begin(), counts.end()});
}

std::vector<fj::ppjoin::TokenSetRecord> TokenSets(
    const std::vector<fj::data::Record>& records,
    const fj::text::TokenOrdering& ordering) {
  const fj::text::WordTokenizer tokenizer;
  std::vector<fj::ppjoin::TokenSetRecord> sets;
  sets.reserve(records.size());
  for (const fj::data::Record& rec : records) {
    fj::ppjoin::TokenSetRecord set{
        rec.rid, ordering.ToSortedIds(tokenizer.Tokenize(rec.JoinAttribute()))};
    if (!set.tokens.empty()) sets.push_back(std::move(set));
  }
  return sets;
}

}  // namespace perfbench
