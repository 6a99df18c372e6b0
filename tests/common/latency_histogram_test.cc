// LatencyHistogram: static-layout geometric buckets — bucket math,
// bounded quantile error, exact min/max/mean, merge, and reset.
#include "common/latency_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"

namespace fj {
namespace {

TEST(LatencyHistogramTest, EmptyIsAllZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.min_seconds(), 0.0);
  EXPECT_EQ(h.max_seconds(), 0.0);
  EXPECT_EQ(h.mean_seconds(), 0.0);
  EXPECT_EQ(h.total_seconds(), 0.0);
}

TEST(LatencyHistogramTest, BucketIndexIsMonotoneAndInRange) {
  size_t prev = 0;
  for (uint64_t nanos : std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 7, 8, 15, 16,
                                              100, 1000, 999999, 1u << 20,
                                              1ull << 40, 1ull << 62}) {
    size_t index = LatencyHistogram::BucketIndex(nanos);
    ASSERT_LT(index, LatencyHistogram::kBuckets) << nanos;
    EXPECT_GE(index, prev) << nanos;
    prev = index;
    // The bucket's lower bound never exceeds the value it holds.
    EXPECT_LE(LatencyHistogram::BucketLowerBound(index), nanos);
  }
}

TEST(LatencyHistogramTest, BucketLowerBoundInvertsBucketIndex) {
  for (size_t index = 0; index < LatencyHistogram::kBuckets; ++index) {
    uint64_t lower = LatencyHistogram::BucketLowerBound(index);
    EXPECT_EQ(LatencyHistogram::BucketIndex(lower), index) << index;
  }
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  // Values 0..3 ns get their own buckets: quantiles are exact.
  LatencyHistogram h;
  for (uint64_t v : {0, 1, 1, 2, 3}) h.RecordNanos(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 3e-9);
  EXPECT_NEAR(h.Quantile(0.5), 1e-9, 1e-12);
}

TEST(LatencyHistogramTest, QuantileErrorIsBounded) {
  // 4 sub-buckets per octave bound the relative quantile error by 1/8
  // (half a sub-bucket width of 1/4); interpolation usually does better,
  // but 12.5% plus the exact-[min,max] clamp is the guarantee.
  Rng rng(42);
  std::vector<uint64_t> samples;
  LatencyHistogram h;
  for (int i = 0; i < 10000; ++i) {
    // Log-uniform over ~6 decades, the shape of real latency tails.
    double log_ns = 2.0 + 6.0 * rng.NextDouble();
    auto nanos = static_cast<uint64_t>(std::pow(10.0, log_ns));
    samples.push_back(nanos);
    h.RecordNanos(nanos);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
    auto rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    rank = std::min(std::max<size_t>(rank, 1), samples.size());
    double exact = static_cast<double>(samples[rank - 1]) * 1e-9;
    double estimate = h.Quantile(q);
    EXPECT_NEAR(estimate, exact, 0.125 * exact) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, MinMaxMeanAreExactNotQuantized) {
  LatencyHistogram h;
  h.Record(0.001237);  // would land in a ~12% wide bucket
  h.Record(0.004100);
  h.Record(0.000500);
  EXPECT_DOUBLE_EQ(h.min_seconds(), 0.000500);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 0.004100);
  EXPECT_NEAR(h.mean_seconds(), (0.001237 + 0.004100 + 0.000500) / 3, 1e-9);
  // Quantiles clamp to the exact extremes.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.000500);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 0.004100);
}

TEST(LatencyHistogramTest, NegativeAndNonFiniteClampToZero) {
  LatencyHistogram h;
  h.Record(-1.0);
  h.Record(std::nan(""));
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 0.0);
}

TEST(LatencyHistogramTest, ResetForgetsEverything) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.RecordNanos(static_cast<uint64_t>(i));
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.99), 0.0);
  EXPECT_EQ(h.max_seconds(), 0.0);
  // Usable again after reset.
  h.Record(0.002);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.002);
}

TEST(LatencyHistogramTest, SummaryMentionsCountAndQuantiles) {
  LatencyHistogram h;
  for (int i = 0; i < 32; ++i) h.Record(0.0015);
  std::string summary = h.Summary();
  EXPECT_NE(summary.find("n=32"), std::string::npos) << summary;
  EXPECT_NE(summary.find("p50="), std::string::npos) << summary;
  EXPECT_NE(summary.find("p99="), std::string::npos) << summary;
  EXPECT_NE(summary.find("ms"), std::string::npos) << summary;
}

TEST(LatencyHistogramTest, SaturatesInsteadOfOverflowing) {
  LatencyHistogram h;
  h.Record(1e12);  // ~31,700 years; saturates near 2^63 ns
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GT(h.max_seconds(), 1e9);
  EXPECT_LT(LatencyHistogram::BucketIndex(~uint64_t{0}),
            LatencyHistogram::kBuckets);
}

}  // namespace
}  // namespace fj
