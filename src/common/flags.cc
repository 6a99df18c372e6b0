#include "common/flags.h"

#include <charconv>
#include <system_error>

#include "common/string_util.h"

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

const std::string* Flags::Find(const std::string& key) const {
  read_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

bool Flags::Has(const std::string& key) const { return Find(key) != nullptr; }

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  const std::string* text = Find(key);
  if (text == nullptr) return default_value;
  auto parsed = ParseInt64(*text);
  if (parsed.ok()) return *parsed;
  if (malformed_.ok()) {
    malformed_ = Status::InvalidArgument("--" + key + "=" + *text +
                                         ": expected an integer");
  }
  return default_value;
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  const std::string* text = Find(key);
  if (text == nullptr) return default_value;
  auto parsed = ParseDouble(*text);
  if (parsed.ok()) return *parsed;
  if (malformed_.ok()) {
    malformed_ = Status::InvalidArgument("--" + key + "=" + *text +
                                         ": expected a number");
  }
  return default_value;
}

Status Flags::ParseCount(const std::string& key, uint64_t max_value,
                         uint64_t* value) const {
  const std::string* text = Find(key);
  if (text == nullptr) return Status::OK();
  uint64_t parsed = 0;
  // An unsigned from_chars refuses a sign, so "-1" fails here too.
  const auto [end, error] =
      std::from_chars(text->data(), text->data() + text->size(), parsed);
  if (error != std::errc() || end != text->data() + text->size() ||
      parsed > max_value) {
    return Status::InvalidArgument(
        "--" + key + "=" + *text + ": expected a non-negative integer" +
        (max_value < UINT64_MAX ? " <= " + std::to_string(max_value) : ""));
  }
  *value = parsed;
  return Status::OK();
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  const std::string* text = Find(key);
  return text == nullptr ? default_value : *text;
}

Status Flags::Check() const {
  FJ_RETURN_IF_ERROR(malformed_);
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) {
      return Status::InvalidArgument("unknown flag --" + key);
    }
  }
  return Status::OK();
}

}  // namespace fj
