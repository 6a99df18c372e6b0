// A fixed-layout geometric latency histogram (HdrHistogram-lite).
//
// Samples are recorded in nanoseconds into buckets whose width grows
// geometrically: 4 sub-buckets per power of two, giving a worst-case
// quantile error of ~12.5% of the value — plenty for p50/p99 serving
// latency and per-task phase-wall reporting, at 252 * 8 bytes of state
// and O(1) record cost (a bit-scan plus an increment).
//
// The layout is static (no configuration). Exact count / sum / min / max
// are tracked beside the buckets, so Quantile(0) and Quantile(1) are
// exact and the mean is not quantized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace fj {

class LatencyHistogram {
 public:
  /// Bucket count of the static layout: values 0..3 ns map 1:1, then 4
  /// sub-buckets per octave up to 2^63 ns.
  static constexpr size_t kBuckets = 252;

  LatencyHistogram();

  /// Records one sample. Negative durations clamp to zero (they can only
  /// arise from clock adjustments; losing them beats corrupting buckets).
  void Record(double seconds);
  void RecordNanos(uint64_t nanos);

  /// Forgets all samples.
  void Reset();

  /// The value at quantile `q` in [0, 1], in seconds, linearly
  /// interpolated within its bucket and clamped to the exact observed
  /// [min, max]. Returns 0 when empty.
  double Quantile(double q) const;

  uint64_t count() const { return count_; }
  double total_seconds() const { return static_cast<double>(sum_nanos_) * 1e-9; }
  /// Exact smallest / largest recorded sample (0 when empty).
  double min_seconds() const;
  double max_seconds() const;
  /// Arithmetic mean in seconds (0 when empty).
  double mean_seconds() const;

  /// "n=1234 p50=1.2ms p90=3.4ms p99=8.9ms p99.9=12ms max=15ms" — the
  /// one-line form used by --stats and the serving driver.
  std::string Summary() const;

  /// Index of the bucket holding `nanos` (exposed for tests).
  static size_t BucketIndex(uint64_t nanos);
  /// Inclusive lower bound of bucket `index`, in nanoseconds.
  static uint64_t BucketLowerBound(size_t index);

 private:
  uint64_t buckets_[kBuckets];
  uint64_t count_ = 0;
  uint64_t sum_nanos_ = 0;
  uint64_t min_nanos_ = 0;
  uint64_t max_nanos_ = 0;
};

}  // namespace fj
