#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace fj {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitN(std::string_view s, char sep,
                                size_t max_fields) {
  std::vector<std::string> out;
  if (max_fields == 0) max_fields = 1;
  size_t start = 0;
  while (out.size() + 1 < max_fields) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) break;
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  out.emplace_back(s.substr(start));
  return out;
}

std::string Join(const std::vector<std::string>& parts, char sep) {
  return Join(parts, std::string_view(&sep, 1));
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  size_t total = 0;
  for (const auto& p : parts) total += p.size() + sep.size();
  out.reserve(total);
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

void ToLowerInPlace(std::string* s) {
  for (char& c : *s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  ToLowerInPlace(&out);
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ErrorExcerpt(std::string_view s) {
  std::string out = "\"";
  out.append(s.substr(0, kErrorExcerptBytes));
  if (s.size() > kErrorExcerptBytes) out += "...";
  out += "\" (";
  out += std::to_string(s.size());
  out += " bytes)";
  return out;
}

Result<uint64_t> ParseUint64(std::string_view s) {
  if (s.empty()) return Status::InvalidArgument("empty integer");
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("not a digit in: " + ErrorExcerpt(s));
    }
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return Status::OutOfRange("uint64 overflow: " + ErrorExcerpt(s));
    }
    value = value * 10 + digit;
  }
  return value;
}

Result<int64_t> ParseInt64(std::string_view s) {
  bool negative = false;
  std::string_view body = s;
  if (!body.empty() && (body[0] == '-' || body[0] == '+')) {
    negative = body[0] == '-';
    body.remove_prefix(1);
  }
  FJ_ASSIGN_OR_RETURN(uint64_t magnitude, ParseUint64(body));
  if (negative) {
    if (magnitude > static_cast<uint64_t>(INT64_MAX) + 1) {
      return Status::OutOfRange("int64 underflow: " + ErrorExcerpt(s));
    }
    return static_cast<int64_t>(~magnitude + 1);
  }
  if (magnitude > static_cast<uint64_t>(INT64_MAX)) {
    return Status::OutOfRange("int64 overflow: " + ErrorExcerpt(s));
  }
  return static_cast<int64_t>(magnitude);
}

namespace {

/// Parses "digits" or "digits.digits" with at most 15 digits in all, the
/// shape of every similarity the pipeline writes ("%.6f"). The integer N
/// of all the digits and 10^k, k the fraction digits, are exact doubles
/// (both below 2^53), and IEEE division rounds N / 10^k correctly, so the
/// result is bit-identical to strtod's correctly rounded one. Returns
/// false for anything else (sign, exponent, whitespace, more digits).
bool ParsePlainDecimal(std::string_view s, double* value) {
  static constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                                      1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                                      1e12, 1e13, 1e14, 1e15};
  constexpr size_t kMaxDigits = 15;
  const size_t dot = s.find('.');
  const std::string_view whole = s.substr(0, dot);
  const std::string_view fraction =
      dot == std::string_view::npos ? std::string_view() : s.substr(dot + 1);
  if (whole.empty() || (dot != std::string_view::npos && fraction.empty()) ||
      whole.size() + fraction.size() > kMaxDigits) {
    return false;
  }
  uint64_t n = 0;
  for (std::string_view digits : {whole, fraction}) {
    for (char c : digits) {
      if (c < '0' || c > '9') return false;
      n = n * 10 + static_cast<uint64_t>(c - '0');
    }
  }
  *value = static_cast<double>(n) / kPow10[fraction.size()];
  return true;
}

}  // namespace

Result<double> ParseDouble(std::string_view s) {
  if (s.empty()) return Status::InvalidArgument("empty double");
  double plain = 0;
  if (ParsePlainDecimal(s, &plain)) return plain;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::OutOfRange("double out of range: " + ErrorExcerpt(buf));
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not a double: " + ErrorExcerpt(buf));
  }
  return value;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace fj
