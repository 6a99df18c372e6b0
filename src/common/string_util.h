// Small string helpers shared across modules (splitting, joining, parsing).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace fj {

/// Splits `s` on the single character `sep`. Keeps empty fields, so
/// Split("a||b", '|') == {"a", "", "b"} and Split("", '|') == {""}.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits `s` on `sep` into at most `max_fields` pieces; the last piece
/// keeps the remainder (including separators). max_fields must be >= 1.
std::vector<std::string> SplitN(std::string_view s, char sep,
                                size_t max_fields);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, char sep);
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lower-casing in place / by value.
void ToLowerInPlace(std::string* s);
std::string ToLower(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Parses a base-10 unsigned/signed integer occupying the whole string.
Result<uint64_t> ParseUint64(std::string_view s);
Result<int64_t> ParseInt64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

/// Bytes of the offending text an ErrorExcerpt echoes.
inline constexpr size_t kErrorExcerptBytes = 64;

/// Names offending input in an error message at a fixed cost: the first
/// kErrorExcerptBytes bytes, quoted ("..." marks a cut), then the full
/// length — `"abc" (3 bytes)`. Parsers of untrusted lines use it so a
/// hostile multi-megabyte line is not copied again into every Status.
std::string ErrorExcerpt(std::string_view s);

/// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

}  // namespace fj
