// Related-work ablation: exact prefix-filter kernel (PPJoin+) vs the
// MinHash-LSH approximate formulation the paper cites ([12], "return
// partial answers, by using the idea of locality sensitive hashing").
//
// For a sweep of LSH parameter points this prints recall (precision is
// always 1 — candidates are verified exactly), candidate volume, and time,
// next to the exact kernel. Expected shape: more bands -> higher recall
// and more candidates; the exact kernel is both complete and competitive
// at the paper's threshold because prefix filtering exploits the token
// skew that LSH ignores.
//
// `--bench_json=PATH` writes the sweep as JSON (checked in as
// BENCH_lsh.json at the repo root).
#include <cstdio>
#include <fstream>
#include <map>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "ppjoin/minhash_lsh.h"
#include "ppjoin/ppjoin.h"
#include "text/token_ordering.h"
#include "text/tokenizer.h"

namespace {

struct LshPoint {
  size_t bands = 0;
  size_t rows = 0;
  double p_at_tau = 0;
  size_t pairs = 0;
  double recall = 0;
  uint64_t candidates = 0;
  double time_ms = 0;
};

int WriteJson(const std::string& path, size_t records, double tau,
              size_t exact_pairs, double exact_ms,
              const std::vector<LshPoint>& points) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"benchmark\": \"bench_lsh\",\n"
      << "  \"workload\": \"exact PPJoin+ vs MinHash-LSH self-join\",\n"
      << "  \"records\": " << records << ",\n"
      << "  \"tau\": " << tau << ",\n"
      << "  \"exact\": {\"pairs\": " << exact_pairs
      << ", \"time_ms\": " << exact_ms << "},\n"
      << "  \"sweep\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const LshPoint& p = points[i];
    out << "    {\"bands\": " << p.bands << ", \"rows\": " << p.rows
        << ", \"p_at_tau\": " << p.p_at_tau << ", \"pairs\": " << p.pairs
        << ", \"recall\": " << p.recall
        << ", \"candidates\": " << p.candidates
        << ", \"time_ms\": " << p.time_ms << "}"
        << (i + 1 < points.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fj;
  bench::Flags flags(argc, argv);
  size_t base = flags.GetInt("base", 2000);
  size_t factor = flags.GetInt("factor", 2);
  double tau = flags.GetDouble("tau", 0.8);
  std::string json_path = flags.GetString("bench_json", "");
  bench::CheckFlagsOrExit(flags);

  bench::PrintExperimentHeader(
      "Related work [12]", "exact prefix filtering vs MinHash-LSH",
      "DBLP-like base " + std::to_string(base) + " x" +
          std::to_string(factor) + ", jaccard >= " + std::to_string(tau));

  // Materialize token sets the way stage 2 would.
  auto records_raw = data::GenerateRecords(data::DblpLikeConfig(base));
  auto increased = data::IncreaseDataset(records_raw, factor);
  if (!increased.ok()) return 1;
  text::WordTokenizer tokenizer;
  std::map<std::string, uint64_t> counts;
  std::vector<std::vector<std::string>> tokenized;
  for (const auto& r : *increased) {
    tokenized.push_back(tokenizer.Tokenize(r.JoinAttribute()));
    for (const auto& t : tokenized.back()) counts[t]++;
  }
  auto ordering =
      text::TokenOrdering::FromCounts({counts.begin(), counts.end()});
  std::vector<ppjoin::TokenSetRecord> sets;
  for (size_t i = 0; i < increased->size(); ++i) {
    sets.push_back(ppjoin::TokenSetRecord{
        (*increased)[i].rid, ordering.ToSortedIds(tokenized[i])});
  }

  sim::SimilaritySpec spec(sim::SimilarityFunction::kJaccard, tau);

  WallTimer timer;
  auto exact = ppjoin::PPJoinSelfJoin(sets, spec);
  double exact_ms = timer.ElapsedMillis();
  std::printf("%-22s %9s %9s %12s %10s\n", "method", "pairs", "recall",
              "candidates", "time");
  std::printf("%-22s %9zu %9s %12s %9.1fms\n", "PPJoin+ (exact)",
              exact.size(), "1.000", "-", exact_ms);

  struct Point {
    size_t bands;
    size_t rows;
  };
  std::vector<LshPoint> points;
  for (Point point : {Point{4, 8}, Point{8, 6}, Point{16, 4}, Point{24, 4},
                      Point{32, 3}}) {
    ppjoin::MinHashLshOptions options;
    options.num_bands = point.bands;
    options.rows_per_band = point.rows;
    ppjoin::MinHashLshStats stats;
    timer.Restart();
    auto approx = ppjoin::MinHashLshSelfJoin(sets, spec, options, &stats);
    double ms = timer.ElapsedMillis();
    double recall = exact.empty()
                        ? 1.0
                        : static_cast<double>(approx.size()) / exact.size();
    double p_at_tau = ppjoin::LshCandidateProbability(tau, options);
    char label[64];
    std::snprintf(label, sizeof(label), "LSH b=%zu r=%zu (P=%.2f)",
                  point.bands, point.rows, p_at_tau);
    std::printf("%-22s %9zu %9.3f %12llu %9.1fms\n", label, approx.size(),
                recall,
                static_cast<unsigned long long>(stats.candidate_pairs), ms);
    points.push_back({point.bands, point.rows, p_at_tau, approx.size(),
                      recall, stats.candidate_pairs, ms});
  }

  std::printf("\nexpected shape: recall rises toward 1 with the candidate "
              "probability P at tau;\nprecision is always 1 (candidates are "
              "verified); the exact kernel misses nothing.\n");
  if (!json_path.empty()) {
    return WriteJson(json_path, sets.size(), tau, exact.size(), exact_ms,
                     points);
  }
  return 0;
}
