// Batch workloads: repeated full three-stage joins over a DFS loaded once
// per set-up.
//
//   self_dblp      self-join, JoinConfig defaults (BTO-PK-OPRJ, Jaccard 0.8,
//                  text intermediates, unbounded sort buffer) over DBLP-like
//                  records grown tenfold by data/increase.
//   rs_cite_spill  BTO-PK-BRJ R-S join of DBLP-like R with CITESEERX-like S
//                  (30% injected overlap), grown together; binary records,
//                  fjlz blocks and a sort buffer small enough that every map
//                  task spills several times.
//
// Every run times RunSelfJoin / RunRSJoin. Traced runs also run the same
// join through the three stage functions, inside one span each, so the
// stage spans can be set against the driver's wall.
#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "common/hash.h"
#include "data/generator.h"
#include "data/increase.h"
#include "data/record.h"
#include "fuzzyjoin/driver.h"
#include "fuzzyjoin/stage1.h"
#include "fuzzyjoin/stage2.h"
#include "fuzzyjoin/stage3.h"
#include "mapreduce/dfs.h"
#include "ppjoin/ppjoin.h"
#include "text/token_ordering.h"

#include "corpus.h"

namespace perfbench {
namespace {

using fj::data::Record;
using fj::ppjoin::SimilarPair;
using fj::ppjoin::TokenSetRecord;

// Workload shapes. self_dblp: 10k base records x10 = 100k records.
// rs_cite_spill: (4k R + 4k S) x5 = 20k R + 20k S records.
constexpr size_t kSelfBase = 10000;
constexpr size_t kSelfFactor = 10;
constexpr size_t kRsBaseR = 4000;
constexpr size_t kRsBaseS = 4000;
constexpr size_t kRsFactor = 5;
constexpr double kRsOverlap = 0.30;
constexpr uint64_t kRsSortBufferBytes = 256 << 10;
/// setup_s is the median over this many set-ups. The first one also pays
/// the first join of a fresh process (about twice a later one).
constexpr int kSetups = 5;

/// Summand of the order-independent pair digest. HashInt64 is a bijection,
/// so distinct pairs of small rids collide only by accident of 64 bits.
uint64_t PairHash(uint64_t rid1, uint64_t rid2) {
  return fj::HashInt64(fj::HashInt64(rid1) + rid2);
}

/// Order-independent digest of a set of result pairs / output lines.
struct Digest {
  uint64_t count = 0;
  uint64_t pairs = 0;  ///< wrapping sum of PairHash over the pairs
  uint64_t lines = 0;  ///< wrapping sum of line hashes

  bool operator==(const Digest&) const = default;
};

/// The generated records. The harness keeps them only as long as the
/// reference check and a traced run's direct calls need them.
struct Inputs {
  std::vector<Record> r, s;  ///< s is empty for the self-join
};

/// One loaded workload: inputs in the DFS plus what the correctness gate
/// compares each run against.
struct BatchState {
  bool rs = false;
  std::unique_ptr<fj::mr::Dfs> dfs;
  size_t input_records = 0;  ///< R + S
  fj::join::JoinConfig config;
  Digest expected;  ///< pairs from the in-memory kernel, lines from warm-up
};

/// The exact join result by the in-memory kernel. Takes its inputs by
/// value, as the kernel does.
std::vector<SimilarPair> KernelJoin(const BatchState& st,
                                    std::vector<TokenSetRecord> r_sets,
                                    std::vector<TokenSetRecord> s_sets) {
  const auto spec = st.config.MakeSpec();
  return st.rs ? fj::ppjoin::PPJoinRSJoin(std::move(r_sets), std::move(s_sets), spec)
               : fj::ppjoin::PPJoinSelfJoin(std::move(r_sets), spec);
}

/// Reads a join output file and digests it (count, RID pairs, lines).
bool DigestOutput(const fj::mr::Dfs& dfs, const std::string& file,
                  Digest* out) {
  auto lines = dfs.ReadFile(file);
  if (!lines.ok()) return false;
  *out = Digest{};
  for (const std::string& line : **lines) {
    char* end = nullptr;
    const uint64_t rid1 = std::strtoull(line.c_str(), &end, 10);
    if (*end != '\t') return false;
    const uint64_t rid2 = std::strtoull(end + 1, &end, 10);
    if (*end != '\t') return false;
    ++out->count;
    out->pairs += PairHash(rid1, rid2);
    out->lines += fj::HashString(line);
  }
  return true;
}

/// Full check of one output against the kernel's pairs and the input
/// records, field by field.
bool VerifyOutputFully(const BatchState& st, const Inputs& in,
                       const std::string& file,
                       const std::vector<SimilarPair>& pairs) {
  std::map<std::pair<uint64_t, uint64_t>, double> sims;
  for (const SimilarPair& p : pairs) sims[{p.rid1, p.rid2}] = p.similarity;
  std::unordered_map<uint64_t, const Record*> r_by_rid, s_by_rid;
  for (const Record& rec : in.r) r_by_rid[rec.rid] = &rec;
  for (const Record& rec : (st.rs ? in.s : in.r)) s_by_rid[rec.rid] = &rec;
  auto joined = fj::join::ReadJoinedPairs(*st.dfs, file);
  if (!joined.ok()) return false;
  for (const fj::join::JoinedPair& jp : *joined) {
    auto sim = sims.find({jp.first.rid, jp.second.rid});
    auto first = r_by_rid.find(jp.first.rid);
    auto second = s_by_rid.find(jp.second.rid);
    if (sim == sims.end() || first == r_by_rid.end() ||
        second == s_by_rid.end() || std::abs(sim->second - jp.similarity) > 1e-5 ||
        !(*first->second == jp.first) || !(*second->second == jp.second)) {
      std::fprintf(stderr, "perfbench: unexpected output pair (%llu, %llu)\n",
                   static_cast<unsigned long long>(jp.first.rid),
                   static_cast<unsigned long long>(jp.second.rid));
      return false;
    }
    sims.erase(sim);  // each expected pair exactly once
  }
  if (!sims.empty()) {
    std::fprintf(stderr, "perfbench: %zu expected pairs missing\n", sims.size());
  }
  return sims.empty();
}

void RemoveOutputs(fj::mr::Dfs* dfs, const std::string& prefix) {
  for (const std::string& name : dfs->ListFiles()) {
    if (name.rfind(prefix + ".", 0) == 0) (void)dfs->DeleteFile(name);
  }
}

/// Everything measured about one timed join.
struct JoinSample {
  double seconds = 0;  ///< wall of RunSelfJoin / RunRSJoin
  std::vector<double> stage_seconds;  ///< traced runs only: the stage spans
  std::vector<fj::mr::JobMetrics> jobs;  ///< every job of the driver's run
};

/// The join as a user runs it: RunSelfJoin / RunRSJoin, writing
/// `prefix`.joined.
fj::Status RunDriver(BatchState* st, const std::string& prefix, Tracer* tracer,
                     JoinSample* sample) {
  Tracer::Scope span(tracer, "fuzzyjoin.driver");
  auto result = st->rs ? fj::join::RunRSJoin(st->dfs.get(), "r", "s", prefix,
                                             st->config)
                       : fj::join::RunSelfJoin(st->dfs.get(), "r", prefix,
                                               st->config);
  sample->seconds = span.Elapsed();
  if (!result.ok()) return result.status();
  for (auto& stage : result->stages) {
    for (auto& job : stage.jobs) sample->jobs.push_back(std::move(job));
  }
  return fj::Status::OK();
}

/// Traced runs: the same join through the three stage functions, one span
/// each, writing `prefix`.joined.
fj::Status RunStaged(BatchState* st, const std::string& prefix, Tracer* tracer,
                     JoinSample* sample) {
  const std::string ordering = prefix + ".ordering";
  const std::string rid_pairs = prefix + ".ridpairs";
  const std::string output = prefix + ".joined";
  Tracer::Scope staged(tracer, "fuzzyjoin.staged");
  {
    Tracer::Scope span(tracer, "fuzzyjoin.stage1");
    auto stage = fj::join::RunStage1(st->dfs.get(), "r", ordering, st->config);
    if (!stage.ok()) return stage.status();
    sample->stage_seconds.push_back(span.Elapsed());
  }
  {
    Tracer::Scope span(tracer, "fuzzyjoin.stage2");
    auto stage = st->rs ? fj::join::RunStage2RSJoin(st->dfs.get(), "r", "s",
                                                    ordering, rid_pairs,
                                                    st->config)
                        : fj::join::RunStage2SelfJoin(st->dfs.get(), "r",
                                                      ordering, rid_pairs,
                                                      st->config);
    if (!stage.ok()) return stage.status();
    sample->stage_seconds.push_back(span.Elapsed());
  }
  {
    Tracer::Scope span(tracer, "fuzzyjoin.stage3");
    auto stage = st->rs ? fj::join::RunStage3RSJoin(st->dfs.get(), "r", "s",
                                                    rid_pairs, output,
                                                    st->config)
                        : fj::join::RunStage3SelfJoin(st->dfs.get(), "r",
                                                      rid_pairs, output,
                                                      st->config);
    if (!stage.ok()) return stage.status();
    sample->stage_seconds.push_back(span.Elapsed());
  }
  return fj::Status::OK();
}

/// Checks the output of one join against the reference digest, corrupting
/// it first when `corrupt` is set, then removes the join's files.
bool CheckJoin(BatchState* st, const std::string& prefix,
               const fj::Status& status, bool corrupt, uint64_t op,
               Report* report) {
  if (corrupt) (void)st->dfs->CorruptByteForTest(prefix + ".joined", op);
  Digest got;
  const bool ok = status.ok() &&
                  DigestOutput(*st->dfs, prefix + ".joined", &got) &&
                  got == st->expected;
  if (!ok) {
    report->Fail("join " + prefix + (status.ok() ? " output differs from the "
                                                   "reference"
                                                 : ": " + status.ToString()));
  }
  RemoveOutputs(st->dfs.get(), prefix);
  return ok;
}

/// The timed set-up: generates the workload, loads the DFS and runs one
/// untimed warm-up join, whose output CheckWarmup checks afterwards.
bool SetUp(const Options& opts, std::shared_ptr<fj::Executor> executor,
           BatchState* st, Inputs* in) {
  st->rs = opts.workload == "rs_cite_spill";
  st->dfs = std::make_unique<fj::mr::Dfs>();
  st->config = fj::join::JoinConfig{};
  st->config.executor = std::move(executor);
  st->config.local_threads = st->config.executor->num_workers();
  if (st->rs) {
    in->r = fj::data::GenerateRecords(fj::data::DblpLikeConfig(kRsBaseR, opts.seed));
    in->s = fj::data::GenerateRecords(
        fj::data::CiteseerxLikeConfig(kRsBaseS, opts.seed + 1));
    fj::data::InjectOverlap(in->r, kRsOverlap, /*max_edits=*/1, opts.seed + 2,
                            &in->s);
    if (!fj::data::IncreaseDatasetsTogether(&in->r, &in->s, kRsFactor).ok()) {
      return false;
    }
    st->config.stage3 = fj::join::Stage3Algorithm::kBRJ;
    st->config.record_format = fj::mr::RecordFormat::kBinary;
    st->config.block_codec = fj::mr::BlockCodec::kFjlz;
    st->config.sort_buffer_bytes = static_cast<uint64_t>(
        std::llround(kRsSortBufferBytes * opts.sort_buffer_scale));
  } else {
    auto grown = fj::data::IncreaseDataset(
        fj::data::GenerateRecords(fj::data::DblpLikeConfig(kSelfBase, opts.seed)),
        kSelfFactor);
    if (!grown.ok()) return false;
    in->r = std::move(grown).value();
  }
  st->input_records = in->r.size() + in->s.size();
  if (!st->dfs->WriteFile("r", fj::data::RecordsToLines(in->r)).ok()) return false;
  if (st->rs && !st->dfs->WriteFile("s", fj::data::RecordsToLines(in->s)).ok()) {
    return false;
  }
  Tracer untraced(false);
  JoinSample warmup;
  if (!RunDriver(st, "warmup", &untraced, &warmup).ok()) {
    std::fprintf(stderr, "perfbench: warm-up join failed\n");
    return false;
  }
  return true;
}

/// Computes the reference result with the in-memory kernel, checks the
/// warm-up join's output against it field by field, and records the digest
/// every timed join must match. Harness work, so not part of setup_s.
bool CheckWarmup(BatchState* st, const Inputs& in) {
  // Stage 1 orders the tokens of R only (Section 4 of the paper).
  const fj::text::TokenOrdering ordering = OrderingOf(in.r);
  const std::vector<SimilarPair> pairs =
      KernelJoin(*st, TokenSets(in.r, ordering), TokenSets(in.s, ordering));
  st->expected = Digest{};
  for (const SimilarPair& p : pairs) {
    ++st->expected.count;
    st->expected.pairs += PairHash(p.rid1, p.rid2);
  }
  Digest got;
  if (!VerifyOutputFully(*st, in, "warmup.joined", pairs) ||
      !DigestOutput(*st->dfs, "warmup.joined", &got) ||
      got.count != st->expected.count || got.pairs != st->expected.pairs) {
    std::fprintf(stderr, "perfbench: warm-up join failed its check\n");
    return false;
  }
  st->expected.lines = got.lines;
  RemoveOutputs(st->dfs.get(), "warmup");
  return true;
}

uint64_t CounterSum(const std::vector<fj::mr::JobMetrics>& jobs,
                    const std::string& name) {
  int64_t total = 0;
  for (const auto& job : jobs) total += job.counters.Get(name);
  return static_cast<uint64_t>(total);
}

/// Per-layer metrics of a traced run: medians over its timed joins.
void LayerMetrics(const BatchState& st, const Inputs& in,
                  const std::vector<JoinSample>& samples, size_t workers,
                  Tracer* tracer, Report* report) {
  std::map<std::string, std::vector<double>> per_join;
  for (const JoinSample& s : samples) {
    double map_s = 0, reduce_s = 0, busy = 0, queue = 0, steals = 0;
    double shuffle = 0, spills = 0, spilled = 0, merges = 0, logical = 0,
           encoded = 0;
    for (const auto& job : s.jobs) {
      map_s += job.map_phase_wall_seconds;
      reduce_s += job.reduce_phase_wall_seconds;
      busy += job.runtime.busy_seconds;
      queue += job.runtime.queue_delay_seconds;
      steals += static_cast<double>(job.runtime.tasks_stolen);
      shuffle += static_cast<double>(job.shuffle_bytes);
      spills += static_cast<double>(job.spill_count);
      spilled += static_cast<double>(job.spilled_bytes);
      merges += static_cast<double>(job.merge_passes);
      logical += static_cast<double>(job.codec_logical_bytes);
      encoded += static_cast<double>(job.codec_encoded_bytes);
    }
    double staged = 0;
    for (size_t k = 0; k < s.stage_seconds.size(); ++k) {
      per_join["fuzzyjoin.stage" + std::to_string(k + 1) + "_s"].push_back(
          s.stage_seconds[k]);
      staged += s.stage_seconds[k];
    }
    // The stage spans of the staged join against the wall of the driver's
    // join, which also fingerprints the inputs, writes the checkpoint
    // manifest and sets up the shuffle transport.
    per_join["fuzzyjoin.span_coverage"].push_back(staged / s.seconds);
    per_join["mapreduce.map_phase_s"].push_back(map_s);
    per_join["mapreduce.reduce_phase_s"].push_back(reduce_s);
    per_join["mapreduce.shuffle_mb"].push_back(shuffle / 1e6);
    per_join["mapreduce.spill_count"].push_back(spills);
    per_join["mapreduce.spilled_mb"].push_back(spilled / 1e6);
    per_join["mapreduce.merge_passes"].push_back(merges);
    per_join["mapreduce.codec_logical_mb"].push_back(logical / 1e6);
    per_join["mapreduce.codec_ratio"].push_back(encoded > 0 ? logical / encoded : 0);
    per_join["executor.busy_s"].push_back(busy);
    per_join["executor.queue_delay_s"].push_back(queue);
    per_join["executor.utilization"].push_back(
        busy / (s.seconds * static_cast<double>(workers)));
    per_join["executor.steals"].push_back(steals);
    const double candidates =
        static_cast<double>(CounterSum(s.jobs, "stage2.pk.candidates"));
    const double results =
        static_cast<double>(CounterSum(s.jobs, "stage2.pk.results"));
    per_join["ppjoin.candidates"].push_back(candidates);
    per_join["ppjoin.verified"].push_back(
        static_cast<double>(CounterSum(s.jobs, "stage2.pk.verified")));
    per_join["ppjoin.results"].push_back(results);
    per_join["ppjoin.results_per_candidate"].push_back(
        candidates > 0 ? results / candidates : 0);
    per_join["trace.op_p50_ms"].push_back(s.seconds * 1e3);
  }
  for (auto& [name, values] : per_join) report->metrics[name] = Median(values);

  // Direct calls into the tokenizer and the kernel, three times each.
  std::vector<double> kernel_s, tokenize_s;
  const fj::text::TokenOrdering ordering = OrderingOf(in.r);
  for (int i = 0; i < 3; ++i) {
    std::vector<TokenSetRecord> r_sets, s_sets;
    {
      Tracer::Scope span(tracer, "text.tokenize");
      r_sets = TokenSets(in.r, ordering);
      s_sets = TokenSets(in.s, ordering);
      tokenize_s.push_back(span.Elapsed());
    }
    Tracer::Scope span(tracer, "ppjoin.kernel");
    const size_t found = KernelJoin(st, std::move(r_sets), std::move(s_sets)).size();
    kernel_s.push_back(span.Elapsed());
    if (found != st.expected.count) report->Fail("direct kernel call");
  }
  report->metrics["ppjoin.kernel_s"] = Median(kernel_s);
  report->metrics["text.tokenize_s"] = Median(tokenize_s);
}

}  // namespace

bool RunBatch(const Options& opts, Tracer* tracer, Report* report) {
  const size_t workers = std::min<size_t>(4, fj::ResolveWorkerCount(0));
  auto executor = std::make_shared<fj::Executor>(workers);

  // Set up several times and keep the last state; setup_s is the median.
  BatchState st;
  Inputs in;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    st = BatchState{};
    in = Inputs{};
    Tracer::Scope span(tracer, "setup");
    if (!SetUp(opts, executor, &st, &in)) return false;
    setup_s.push_back(span.Elapsed());
  }
  {
    Tracer::Scope span(tracer, "check.reference");
    if (!CheckWarmup(&st, in)) return false;
  }
  // An untraced run drops the harness's records, then restarts the peak
  // from what is left (the DFS and the executor), so peak_rss_mb is the
  // timed joins' peak and not the reference check's.
  if (!tracer->enabled()) in = Inputs{};
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "perfbench: cannot reset the peak RSS; "
                 "peak_rss_mb covers the whole process\n");
  }

  std::vector<JoinSample> samples;
  const Clock::time_point start = Clock::now();
  while (SecondsBetween(start, Clock::now()) < opts.seconds) {
    const uint64_t op = report->attempted++;
    const bool corrupt =
        opts.corrupt_every > 0 && (op + 1) % opts.corrupt_every == 0;
    const std::string prefix = "run" + std::to_string(op);
    JoinSample sample;
    bool ok = true;
    if (tracer->enabled()) {
      const fj::Status status = RunStaged(&st, prefix + ".staged", tracer, &sample);
      ok = CheckJoin(&st, prefix + ".staged", status, false, op, report);
    }
    const fj::Status status = RunDriver(&st, prefix, tracer, &sample);
    ok = CheckJoin(&st, prefix, status, status.ok() && corrupt, op, report) && ok;
    if (ok) {
      samples.push_back(std::move(sample));
    } else {
      ++report->failed;
    }
  }
  if (samples.empty()) return false;

  if (tracer->enabled()) {
    LayerMetrics(st, in, samples, workers, tracer, report);
    return true;
  }
  std::vector<double> op_s;
  for (const JoinSample& s : samples) op_s.push_back(s.seconds);
  // Records joined per second at the median join, which a burst of outside
  // load during a few joins does not move.
  report->metrics["throughput"] =
      static_cast<double>(st.input_records) / Median(op_s);
  report->metrics["op_p50_ms"] = Median(op_s) * 1e3;
  report->metrics["setup_s"] = Median(setup_s);
  report->metrics["peak_rss_mb"] = PeakRssMb();
  report->metrics["success_rate"] =
      static_cast<double>(report->attempted - report->failed) /
      static_cast<double>(report->attempted);
  return true;
}

}  // namespace perfbench
