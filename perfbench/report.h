// Shared pieces of the benchmark program: command-line options, the span
// recorder of traced runs, order statistics, and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed section.
  double seconds = 10;
  /// Traced run: record spans and report the per-layer metrics instead of
  /// the end-to-end ones.
  bool trace = false;
  /// Multiplies the sort buffer of rs_cite_spill (the layer-attribution
  /// check halves it).
  double sort_buffer_scale = 1.0;
  /// Corrupts every Nth checked output (batch: timed join output; serve:
  /// sampled probe answer) before its check (0 = never); the correctness
  /// gate must count those operations failed.
  uint64_t corrupt_every = 0;
  /// Where a traced run writes its spans (Chrome trace-event JSON).
  std::string trace_file;
};

/// Parses `--key value` pairs; returns false (and prints why) on an
/// unknown key or a malformed value.
bool ParseOptions(int argc, char** argv, Options* out);

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Records named spans (start, end, parent) of the benchmark's calls into
/// each layer. Single-threaded: spans nest on the calling thread. When
/// disabled a scope only reads the clock, so untraced runs pay nothing
/// measurable.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;  ///< index of the parent span, -1 for a root span
  };

  /// RAII handle: closes its span when destroyed.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the span opened (also valid when tracing is off).
    double Elapsed() const { return SecondsBetween(start_, Clock::now()); }

   private:
    Tracer* tracer_;
    int index_ = -1;
    Clock::time_point start_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Writes the spans as Chrome trace-event JSON ("X" events, one lane).
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Resets the kernel's resident-set high-water mark of this process to its
/// current resident set, so PeakRssMb() then reports the peak of what runs
/// afterwards. Returns false when the kernel refuses.
bool ResetPeakRss();

/// Peak resident set size of this process (VmHWM), in MB: since the last
/// successful ResetPeakRss(), else since the process started.
double PeakRssMb();

/// Outcome of one benchmark run: the JSON object printed as the last line.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when any checked output was wrong.
  bool correct = true;
  /// Metric name -> value; names and units come from MetricUnits().
  std::map<std::string, double> metrics;

  void Fail(const std::string& why);
};

/// Every metric a run may report, with its unit: the end-to-end metrics
/// (untraced runs) and the per-layer metrics (traced runs).
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Prints `report` as one JSON line. Every metric of the run's kind is
/// printed; one the workload does not exercise reads 0. Returns false if
/// the report names a metric outside that list.
bool PrintReport(const Report& report, bool trace);

}  // namespace perfbench
