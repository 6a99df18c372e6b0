// Named counters, mirroring Hadoop job counters. The MapReduce engine and
// the join pipeline use these to report records read/written, bytes
// shuffled, candidate pairs generated, pairs pruned by each filter, etc.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/sync.h"

namespace fj {

/// A thread-safe bag of int64 counters keyed by name. A counter is a sum
/// (set with Add) or a peak (set with Max); the kind travels with the
/// counter through copies, moves and MergeFrom.
class CounterSet {
 public:
  CounterSet() = default;

  // Copy/move synchronize on the source's mutex; the new set gets a fresh
  // mutex. (Needed so JobMetrics stays movable.)
  CounterSet(const CounterSet& other) : counters_(other.Entries()) {}
  CounterSet(CounterSet&& other) noexcept : counters_(other.Entries()) {}
  CounterSet& operator=(const CounterSet& other) {
    if (this != &other) {
      auto entries = other.Entries();
      MutexLock lock(&mu_);
      counters_ = std::move(entries);
    }
    return *this;
  }
  CounterSet& operator=(CounterSet&& other) noexcept {
    return *this = other;
  }

  /// Adds `delta` to counter `name` (creating it at zero).
  void Add(const std::string& name, int64_t delta);

  /// Raises counter `name` to `value` if it is currently lower, and makes
  /// it a peak (e.g. peak resident memory of a reduce task).
  void Max(const std::string& name, int64_t value);

  /// Returns the value of `name`, or 0 if never touched.
  int64_t Get(const std::string& name) const;

  /// Merges every counter from `other` into this set: sums add, and a
  /// counter that either side holds as a peak keeps the larger value (a
  /// job's peak is its largest task peak, not their total).
  void MergeFrom(const CounterSet& other);

  /// Snapshot of all counters in name order.
  std::map<std::string, int64_t> Snapshot() const;

  /// One "name = value" line per counter.
  std::string ToString() const;

  void Clear();

 private:
  struct Counter {
    int64_t value = 0;
    bool peak = false;  ///< set by Max; MergeFrom keeps the maximum
  };

  std::map<std::string, Counter> Entries() const;

  // Unranked leaf: Add() is on the record hot path and never acquires
  // another lock, so it skips the debug rank detector's bookkeeping.
  mutable Mutex mu_{"counters"};
  std::map<std::string, Counter> counters_ FJ_GUARDED_BY(mu_);
};

}  // namespace fj
