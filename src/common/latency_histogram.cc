#include "common/latency_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace fj {
namespace {

// 4 sub-buckets per octave: bucket width is 1/4 of the octave base.
constexpr unsigned kSubBits = 2;
constexpr uint64_t kSubMask = (uint64_t{1} << kSubBits) - 1;

// Pretty-prints a duration with a unit chosen by magnitude.
void AppendDuration(std::string* out, double seconds) {
  char buf[32];
  if (seconds < 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.0fns", seconds * 1e9);
  } else if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
  }
  out->append(buf);
}

}  // namespace

LatencyHistogram::LatencyHistogram() { Reset(); }

size_t LatencyHistogram::BucketIndex(uint64_t nanos) {
  if (nanos < (uint64_t{1} << kSubBits)) return static_cast<size_t>(nanos);
  const unsigned octave = 63u - static_cast<unsigned>(std::countl_zero(nanos));
  const uint64_t sub = (nanos >> (octave - kSubBits)) & kSubMask;
  return static_cast<size_t>(
      ((uint64_t{octave} - kSubBits + 1) << kSubBits) + sub);
}

uint64_t LatencyHistogram::BucketLowerBound(size_t index) {
  if (index < (size_t{1} << kSubBits)) return index;
  const uint64_t group = index >> kSubBits;  // >= 1
  const unsigned octave = static_cast<unsigned>(group) + kSubBits - 1;
  const uint64_t sub = index & kSubMask;
  return (uint64_t{1} << octave) + (sub << (octave - kSubBits));
}

void LatencyHistogram::Record(double seconds) {
  if (!(seconds > 0)) {  // also catches NaN
    RecordNanos(0);
    return;
  }
  const double nanos = seconds * 1e9;
  if (nanos >= 9.2e18) {
    RecordNanos(UINT64_MAX / 2);  // saturate: ~146 years
    return;
  }
  RecordNanos(static_cast<uint64_t>(std::llround(nanos)));
}

void LatencyHistogram::RecordNanos(uint64_t nanos) {
  buckets_[BucketIndex(nanos)]++;
  if (count_ == 0 || nanos < min_nanos_) min_nanos_ = nanos;
  if (count_ == 0 || nanos > max_nanos_) max_nanos_ = nanos;
  count_++;
  sum_nanos_ += nanos;
}

void LatencyHistogram::Reset() {
  std::memset(buckets_, 0, sizeof(buckets_));
  count_ = 0;
  sum_nanos_ = 0;
  min_nanos_ = 0;
  max_nanos_ = 0;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  if (q <= 0) return min_seconds();
  if (q >= 1) return max_seconds();
  // Rank of the sample the quantile lands on (1-based, nearest-rank).
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    if (cumulative + buckets_[i] >= target) {
      // Interpolate linearly over the bucket's representable values
      // [lb, ub-1] (samples are integer nanos, so ub itself is
      // unreachable — width-1 buckets answer exactly). The k-th of n
      // samples sits at fraction (k-1)/(n-1); a lone sample gets the
      // midpoint, which caps its error at half the bucket width.
      const uint64_t lb = BucketLowerBound(i);
      const uint64_t ub = i + 1 < kBuckets ? BucketLowerBound(i + 1) : lb + 1;
      const uint64_t k = target - cumulative;  // 1-based rank in bucket
      const double span = static_cast<double>(ub - 1 - lb);
      const double within =
          buckets_[i] == 1 ? 0.5
                           : static_cast<double>(k - 1) /
                                 static_cast<double>(buckets_[i] - 1);
      double nanos = static_cast<double>(lb) + span * within;
      nanos = std::clamp(nanos, static_cast<double>(min_nanos_),
                         static_cast<double>(max_nanos_));
      return nanos * 1e-9;
    }
    cumulative += buckets_[i];
  }
  return max_seconds();  // unreachable: counts always sum to count_
}

double LatencyHistogram::min_seconds() const {
  return count_ == 0 ? 0 : static_cast<double>(min_nanos_) * 1e-9;
}

double LatencyHistogram::max_seconds() const {
  return count_ == 0 ? 0 : static_cast<double>(max_nanos_) * 1e-9;
}

double LatencyHistogram::mean_seconds() const {
  return count_ == 0 ? 0
                     : static_cast<double>(sum_nanos_) * 1e-9 /
                           static_cast<double>(count_);
}

std::string LatencyHistogram::Summary() const {
  std::string out = "n=" + std::to_string(count_);
  if (count_ == 0) return out;
  const struct {
    const char* label;
    double q;
  } points[] = {{" p50=", 0.50}, {" p90=", 0.90}, {" p99=", 0.99},
                {" p99.9=", 0.999}};
  for (const auto& point : points) {
    out += point.label;
    AppendDuration(&out, Quantile(point.q));
  }
  out += " max=";
  AppendDuration(&out, max_seconds());
  return out;
}

}  // namespace fj
