// Named counters, mirroring Hadoop job counters. The MapReduce engine and
// the join pipeline use these to report records read/written, bytes
// shuffled, candidate pairs generated, pairs pruned by each filter, etc.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace fj {

/// A bag of int64 counters keyed by name. A counter is a sum (set with
/// Add) or a peak (set with Max); the kind travels with the counter
/// through copies, moves and MergeFrom. Not synchronized: each task
/// attempt owns its set, and the engine merges the committed ones on one
/// thread when the job finishes.
class CounterSet {
 public:
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

  std::map<std::string, Counter> counters_;
};

}  // namespace fj
