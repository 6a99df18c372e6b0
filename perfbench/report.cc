#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

bool ParseOptions(int argc, char** argv, Options* out) {
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", key.c_str());
      return false;
    }
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      out->workload = value;
      continue;
    }
    if (key == "--trace_file") {
      out->trace_file = value;
      continue;
    }
    if (key == "--seed" || key == "--corrupt_every") {
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      (key == "--seed" ? out->seed : out->corrupt_every) = v;
    } else if (key == "--seconds" || key == "--sort_buffer_scale") {
      const double v = std::strtod(value.c_str(), &end);
      (key == "--seconds" ? out->seconds : out->sort_buffer_scale) = v;
    } else if (key == "--trace") {
      out->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
      return false;
    }
    if (end == value.c_str() || *end != '\0') {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n", key.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (out->workload.empty() || !(out->seconds > 0) ||
      !(out->sort_buffer_scale > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1\n");
    return false;
  }
  return true;
}

Tracer::Scope::Scope(Tracer* tracer, std::string_view name)
    : tracer_(tracer), start_(Clock::now()) {
  if (!tracer_->enabled_) return;
  index_ = static_cast<int>(tracer_->spans_.size());
  const int parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  tracer_->spans_.push_back(Span{std::string(name), start_, start_, parent});
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[index_].end = Clock::now();
  tracer_->open_.pop_back();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  auto micros = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d}}%s\n",
                  s.name.c_str(), micros(s.start), micros(s.end) - micros(s.start),
                  i, s.parent, i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5: reset the peak RSS (proc(5), clear_refs)
  clear_refs.close();
  return static_cast<bool>(clear_refs);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::Fail(const std::string& why) {
  if (correct) std::fprintf(stderr, "perfbench: wrong output: %s\n", why.c_str());
  correct = false;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"throughput", "1/s"}, {"op_p50_ms", "ms"},    {"setup_s", "s"},
      {"peak_rss_mb", "MB"}, {"success_rate", "ratio"},
  };
  return metrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"fuzzyjoin.stage1_s", "s"},
      {"fuzzyjoin.stage2_s", "s"},
      {"fuzzyjoin.stage3_s", "s"},
      {"fuzzyjoin.span_coverage", "ratio"},
      {"mapreduce.map_phase_s", "s"},
      {"mapreduce.reduce_phase_s", "s"},
      {"mapreduce.shuffle_mb", "MB"},
      {"mapreduce.spill_count", "count"},
      {"mapreduce.spilled_mb", "MB"},
      {"mapreduce.merge_passes", "count"},
      {"mapreduce.codec_logical_mb", "MB"},
      {"mapreduce.codec_ratio", "ratio"},
      {"executor.busy_s", "s"},
      {"executor.queue_delay_s", "s"},
      {"executor.utilization", "ratio"},
      {"executor.steals", "count"},
      {"ppjoin.kernel_s", "s"},
      {"ppjoin.candidates", "count"},
      {"ppjoin.verified", "count"},
      {"ppjoin.results", "count"},
      {"ppjoin.results_per_candidate", "ratio"},
      {"text.tokenize_s", "s"},
      {"serve.index.probe_p50_us", "us"},
      {"serve.index.probe_p99_us", "us"},
      {"serve.index.insert_p50_us", "us"},
      {"serve.index.remove_p50_us", "us"},
      {"serve.index.candidates_per_probe", "count"},
      {"serve.index.results_per_candidate", "ratio"},
      {"serve.index.compactions", "count"},
      {"serve.index.tombstones_purged", "count"},
      {"serve.index.compaction_ms", "ms"},
      {"serve.service.probe_p50_us", "us"},
      {"serve.service.probe_p99_us", "us"},
      {"serve.service.write_p50_us", "us"},
      {"serve.service.overhead_p50_us", "us"},
      {"serve.service.batch_mean", "count"},
      {"serve.cache.hit_rate", "ratio"},
      {"serve.cache.stale", "count"},
      {"trace.op_p50_ms", "ms"},
  };
  return metrics;
}

bool PrintReport(const Report& report, bool trace) {
  const auto& names = trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const auto& [name, value] : report.metrics) {
    const bool known = std::any_of(names.begin(), names.end(),
                                   [&](const auto& m) { return m.first == name; });
    if (!known || !std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: bad metric %s\n", name.c_str());
      return false;
    }
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    const auto& [name, unit] = names[i];
    auto it = report.metrics.find(name);
    if (it == report.metrics.end() && !trace) {
      std::fprintf(stderr, "perfbench: missing metric %s\n", name.c_str());
      return false;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  it == report.metrics.end() ? 0.0 : it->second);
    json += (i ? ", \"" : "\"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace perfbench
