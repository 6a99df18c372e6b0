// Minimal --key=value command-line flag parsing for tools and benchmarks.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace fj {

class Flags {
 public:
  /// Collects every "--key=value" (and bare "--key" as "1") argument;
  /// non-flag arguments are kept, in order, as positional arguments.
  Flags(int argc, char** argv);

  // Every getter marks `key` as read, present or not (see Check).

  bool Has(const std::string& key) const;
  /// GetInt and GetDouble return `default_value` for an absent key and
  /// for a malformed value; the first malformed value is kept for Check.
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

  /// Called once a tool has read every flag it takes: InvalidArgument
  /// naming the first malformed GetInt/GetDouble value, else the first
  /// flag that no getter asked for (a misspelled or unsupported flag).
  Status Check() const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  Status ParseCount(const std::string& key, uint64_t max_value,
                    uint64_t* value) const;
  /// The value of `key`, or nullptr when absent; marks `key` as read.
  const std::string* Find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  // Getters are const; what they saw is bookkeeping for Check.
  mutable std::set<std::string> read_;
  mutable Status malformed_;
};

}  // namespace fj
