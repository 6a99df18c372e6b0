// Minimal --key=value command-line flag parsing for tools and benchmarks.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace fj {

class Flags {
 public:
  /// Collects every "--key=value" (and bare "--key" as "1") argument;
  /// non-flag arguments are kept, in order, as positional arguments.
  Flags(int argc, char** argv);

  bool Has(const std::string& key) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;

  /// Reads a non-negative integer flag (a count, a size or a duration)
  /// into `*value`, which keeps its default when the flag is absent. A
  /// negative, non-numeric or out-of-range value is an InvalidArgument
  /// that names the flag, and leaves `*value` unchanged.
  template <typename T>
  Status GetCount(const std::string& key, T* value) const {
    uint64_t parsed = *value;
    FJ_RETURN_IF_ERROR(ParseCount(key, std::numeric_limits<T>::max(), &parsed));
    *value = static_cast<T>(parsed);
    return Status::OK();
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  Status ParseCount(const std::string& key, uint64_t max_value,
                    uint64_t* value) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace fj
