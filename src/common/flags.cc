#include "common/flags.h"

#include <charconv>
#include <cstdlib>
#include <system_error>

namespace fj {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_.insert_or_assign(arg.substr(2), std::string("1"));
    } else {
      values_.insert_or_assign(arg.substr(2, eq - 2), arg.substr(eq + 1));
    }
  }
}

bool Flags::Has(const std::string& key) const { return values_.count(key) > 0; }

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return std::strtod(it->second.c_str(), nullptr);
}

Status Flags::ParseCount(const std::string& key, uint64_t max_value,
                         uint64_t* value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return Status::OK();
  const std::string& text = it->second;
  uint64_t parsed = 0;
  // An unsigned from_chars refuses a sign, so "-1" fails here too.
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (error != std::errc() || end != text.data() + text.size() ||
      parsed > max_value) {
    return Status::InvalidArgument(
        "--" + key + "=" + text + ": expected a non-negative integer" +
        (max_value < UINT64_MAX ? " <= " + std::to_string(max_value) : ""));
  }
  *value = parsed;
  return Status::OK();
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

}  // namespace fj
