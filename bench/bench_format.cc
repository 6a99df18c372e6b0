// Record-format sweep on the Figure 9 self-join workload: the same
// DBLP-like dataset and BTO-PK-BRJ pipeline run under every
// format x codec combination (text, binary, binary+fjlz), with a spill
// budget small enough that the sort-spill-merge path carries real
// traffic.
//
// Reported per combination: spilled + shuffled bytes (the traffic the
// binary format exists to shrink), the codec's logical vs. encoded byte
// meters, measured host wall, and simulated cluster seconds (which price
// shuffle/spill bytes against network/disk bandwidth and the codec CPU
// against kCodecBytesPerSecondPerNode).
//
// Hard-fails (non-zero exit, CI smoke-tests this):
//   - join output not byte-identical to the text baseline;
//   - binary+fjlz does not cut spilled+shuffled bytes by >= 1.5x;
//   - binary+fjlz simulated cluster time not below text.
//
// `--bench_json=PATH` writes the sweep as JSON (checked in as
// BENCH_format.json at the repo root).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mapreduce/record_format.h"

namespace {

struct FormatPoint {
  std::string name;
  fj::mr::RecordFormat format = fj::mr::RecordFormat::kText;
  fj::mr::BlockCodec codec = fj::mr::BlockCodec::kNone;
  uint64_t shuffle_bytes = 0;
  uint64_t spilled_bytes = 0;
  uint64_t codec_logical_bytes = 0;
  uint64_t codec_encoded_bytes = 0;
  double measured_seconds = 0;
  double simulated_seconds = 0;
  bool output_identical = false;

  uint64_t traffic() const { return shuffle_bytes + spilled_bytes; }
};

int WriteJson(const std::vector<FormatPoint>& points, size_t records,
              size_t reps, double bytes_reduction, double simulated_speedup,
              const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << "{\n  \"benchmark\": \"bench_format\",\n";
  out << "  \"workload\": \"fig09 self-join, BTO-PK-BRJ, 10-node task "
         "shape\",\n";
  out << "  \"records\": " << records << ",\n";
  out << "  \"reps\": " << reps << ",\n";
  out << "  \"bytes_reduction_binary_fjlz_vs_text\": " << bytes_reduction
      << ",\n";
  out << "  \"simulated_speedup_binary_fjlz_vs_text\": " << simulated_speedup
      << ",\n";
  out << "  \"sweep\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const FormatPoint& p = points[i];
    out << "    {\"format\": \"" << fj::mr::RecordFormatName(p.format)
        << "\", \"codec\": \"" << fj::mr::BlockCodecName(p.codec)
        << "\", \"shuffle_bytes\": " << p.shuffle_bytes
        << ", \"spilled_bytes\": " << p.spilled_bytes
        << ", \"codec_logical_bytes\": " << p.codec_logical_bytes
        << ", \"codec_encoded_bytes\": " << p.codec_encoded_bytes
        << ", \"measured_seconds\": " << p.measured_seconds
        << ", \"simulated_seconds\": " << p.simulated_seconds
        << ", \"output_identical\": "
        << (p.output_identical ? "true" : "false") << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.good() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fj;
  bench::Flags flags(argc, argv);
  size_t base = flags.GetInt("base", 2000);
  size_t factor = flags.GetInt("factor", 2);
  size_t reps = flags.GetInt("reps", 5);
  double work_scale = flags.GetDouble("work_scale", bench::kDefaultWorkScale);
  uint64_t sort_buffer = flags.GetInt("sort_buffer", 32 * 1024);
  std::string json_path = flags.GetString("bench_json", "");

  bench::PrintExperimentHeader(
      "Format sweep", "binary record format + block codec",
      "DBLP-like base " + std::to_string(base) + " x" +
          std::to_string(factor) + ", BTO-PK-BRJ, sort_buffer " +
          std::to_string(sort_buffer));

  mr::Dfs dfs;
  size_t records = bench::PrepareSelfData(&dfs, "dblp", base, factor, 42);
  auto cluster = bench::MakeCluster(10, work_scale);

  const struct {
    const char* name;
    mr::RecordFormat format;
    mr::BlockCodec codec;
  } combos[] = {
      {"text", mr::RecordFormat::kText, mr::BlockCodec::kNone},
      {"binary", mr::RecordFormat::kBinary, mr::BlockCodec::kNone},
      {"binary+fjlz", mr::RecordFormat::kBinary, mr::BlockCodec::kFjlz},
  };

  std::vector<FormatPoint> points;
  const std::vector<std::string>* baseline_output = nullptr;
  std::printf("%-13s %12s %12s %12s %8s %11s %11s %7s\n", "combo",
              "shuffled", "spilled", "logical", "ratio", "measured",
              "simulated", "output");
  for (const auto& combo : combos) {
    auto config = bench::MakeConfig(bench::PaperCombos()[1], 10);
    config.sort_buffer_bytes = sort_buffer;
    config.record_format = combo.format;
    config.block_codec = combo.codec;
    auto run = bench::RunSelfRepeated(&dfs, "dblp",
                                      std::string("fmt-") + combo.name,
                                      config, cluster, reps);
    if (!run.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", combo.name,
                   run.status().ToString().c_str());
      return 1;
    }
    auto output = dfs.ReadFile(run->last_run.output_file);
    if (!output.ok()) {
      std::fprintf(stderr, "%s\n", output.status().ToString().c_str());
      return 1;
    }
    FormatPoint point;
    point.name = combo.name;
    point.format = combo.format;
    point.codec = combo.codec;
    for (const auto& stage : run->last_run.stages) {
      for (const auto& job : stage.jobs) {
        point.shuffle_bytes += job.shuffle_bytes;
        point.spilled_bytes += job.spilled_bytes;
        point.codec_logical_bytes += job.codec_logical_bytes;
        point.codec_encoded_bytes += job.codec_encoded_bytes;
      }
    }
    point.measured_seconds = run->measured.total();
    point.simulated_seconds = run->times.total();
    if (baseline_output == nullptr) {
      baseline_output = *output;
      point.output_identical = true;
    } else {
      point.output_identical = (**output == *baseline_output);
    }
    double ratio =
        point.codec_encoded_bytes > 0
            ? static_cast<double>(point.codec_logical_bytes) /
                  static_cast<double>(point.codec_encoded_bytes)
            : 1.0;
    std::printf("%-13s %9.1f KB %9.1f KB %9.1f KB %7.2fx %10.3fs %10.1fs"
                " %7s\n",
                combo.name, point.shuffle_bytes / 1024.0,
                point.spilled_bytes / 1024.0,
                point.codec_logical_bytes / 1024.0, ratio,
                point.measured_seconds, point.simulated_seconds,
                point.output_identical ? "same" : "DIFFERS");
    points.push_back(std::move(point));
  }

  const FormatPoint& text = points.front();
  const FormatPoint& packed = points.back();
  double bytes_reduction =
      packed.traffic() > 0
          ? static_cast<double>(text.traffic()) /
                static_cast<double>(packed.traffic())
          : 0.0;
  double simulated_speedup = packed.simulated_seconds > 0
                                 ? text.simulated_seconds /
                                       packed.simulated_seconds
                                 : 0.0;
  std::printf("\nbinary+fjlz vs text: %.2fx fewer spilled+shuffled bytes, "
              "%.2fx simulated cluster speedup\n",
              bytes_reduction, simulated_speedup);

  int exit_code = 0;
  for (const FormatPoint& point : points) {
    if (!point.output_identical) {
      std::fprintf(stderr, "FAIL: %s join output differs from text\n",
                   point.name.c_str());
      exit_code = 1;
    }
  }
  if (bytes_reduction < 1.5) {
    std::fprintf(stderr,
                 "FAIL: binary+fjlz cut spilled+shuffled bytes only %.2fx "
                 "(need >= 1.5x)\n",
                 bytes_reduction);
    exit_code = 1;
  }
  if (packed.simulated_seconds >= text.simulated_seconds) {
    std::fprintf(stderr,
                 "FAIL: binary+fjlz simulated time %.1fs not below text "
                 "%.1fs\n",
                 packed.simulated_seconds, text.simulated_seconds);
    exit_code = 1;
  }

  if (!json_path.empty()) {
    int rc = WriteJson(points, records, reps, bytes_reduction,
                       simulated_speedup, json_path);
    if (rc != 0) return rc;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return exit_code;
}
