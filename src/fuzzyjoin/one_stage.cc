#include "fuzzyjoin/one_stage.h"

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "common/string_util.h"
#include "data/record.h"
#include "fuzzyjoin/stage1.h"
#include "fuzzyjoin/stage2.h"
#include "fuzzyjoin/stage2_internal.h"
#include "fuzzyjoin/stage3.h"
#include "mapreduce/job.h"
#include "ppjoin/ppjoin.h"
#include "text/token_ordering.h"

namespace fj::join {

namespace {

using mr::Emitter;
using mr::InputRecord;
using mr::OutputEmitter;
using mr::TaskContext;

/// Routes FULL RECORD LINES by prefix-token group — the fat-value variant
/// of the stage-2 kernel mapper, projecting and routing exactly as stage 2
/// does.
class FullRecordMapper : public internal::ProjectionMapperBase<std::string> {
 public:
  explicit FullRecordMapper(internal::Stage2Context ctx)
      : ProjectionMapperBase(std::move(ctx), "onestage") {}

  void Map(const InputRecord& record, Emitter<Stage2Key, std::string>* out,
           TaskContext* ctx) override {
    if (!ProjectRecord(record, ctx, &projection_)) return;
    const uint32_t length = static_cast<uint32_t>(projection_.tokens.size());
    for (uint32_t g : PrefixGroups(projection_)) {
      out->Emit(Stage2Key{g, length, 0, 0}, *record.line);
    }
  }

 private:
  TokenSetRecord projection_;
};

/// Re-parses and re-tokenizes every record in the group (full records
/// arrive, not projections), runs the PPJoin+ kernel, and emits complete
/// joined pairs directly. Records are parsed in place: the views point
/// into the group's values, which outlive the Reduce call. One kernel
/// stream serves every group of the reduce task, reset between groups.
class FullRecordReducer : public mr::Reducer<Stage2Key, std::string> {
 public:
  FullRecordReducer(std::shared_ptr<const text::Tokenizer> tokenizer,
                    const std::vector<std::string>* ordering_lines,
                    sim::SimilaritySpec spec)
      : tokenizer_(std::move(tokenizer)),
        ordering_lines_(ordering_lines),
        stream_(spec) {}

  void Setup(TaskContext*) override {
    // The driver checked these lines before the job started.
    ordering_ = text::TokenOrdering::FromLines(*ordering_lines_).value();
  }

  void Reduce(const Stage2Key&,
              std::span<const std::pair<Stage2Key, std::string>> group,
              OutputEmitter* out, TaskContext* ctx) override {
    std::vector<data::RecordView> records;
    std::vector<ppjoin::TokenSetRecord> sets;
    records.reserve(group.size());
    sets.reserve(group.size());
    std::map<uint64_t, size_t> by_rid;
    for (const auto& [key, line] : group) {
      auto view = data::RecordView::FromLine(line);
      if (!view.ok()) {
        ctx->counters().Add("onestage.bad_records", 1);
        continue;
      }
      view->JoinAttributeInto(&attribute_);
      tokenizer_->TokenizeInto(attribute_, &tokens_);
      ppjoin::TokenSetRecord& set = sets.emplace_back();
      set.rid = view->rid;
      ordering_.ToSortedIds(tokens_, &set.tokens);
      by_rid[view->rid] = records.size();
      records.push_back(*view);
    }
    // Group arrives length-sorted via the composite key.
    stream_.Reset();
    std::vector<ppjoin::SimilarPair> pairs;
    for (const auto& set : sets) stream_.ProbeAndInsert(set, &pairs);
    for (const auto& pair : pairs) {
      out->Emit(FormatJoinedLine(pair.similarity, records[by_rid[pair.rid1]],
                                 records[by_rid[pair.rid2]]));
      ctx->counters().Add("onestage.pairs_emitted", 1);
    }
    internal::MergePPJoinStats(stream_.stats(), ctx);
  }

 private:
  std::shared_ptr<const text::Tokenizer> tokenizer_;
  const std::vector<std::string>* ordering_lines_;
  text::TokenOrdering ordering_;
  ppjoin::PPJoinStream stream_;
  /// Task-owned buffers reused for every record of every group.
  std::string attribute_;
  text::TokenList tokens_;
};

/// Deduplicates joined-pair lines (the same pair may be produced by every
/// reducer whose group the two records share).
class DedupMapper
    : public mr::Mapper<std::pair<uint64_t, uint64_t>, std::string> {
 public:
  void Map(const InputRecord& record,
           Emitter<std::pair<uint64_t, uint64_t>, std::string>* out,
           TaskContext* ctx) override {
    auto fields = fj::SplitN(*record.line, '\t', 3);
    if (fields.size() != 3) {
      ctx->counters().Add("onestage.bad_joined_lines", 1);
      return;
    }
    auto rid1 = fj::ParseUint64(fields[0]);
    auto rid2 = fj::ParseUint64(fields[1]);
    if (!rid1.ok() || !rid2.ok()) {
      ctx->counters().Add("onestage.bad_joined_lines", 1);
      return;
    }
    out->Emit({rid1.value(), rid2.value()}, *record.line);
  }
};

class DedupReducer
    : public mr::Reducer<std::pair<uint64_t, uint64_t>, std::string> {
 public:
  void Reduce(const std::pair<uint64_t, uint64_t>&,
              std::span<const std::pair<std::pair<uint64_t, uint64_t>,
                                        std::string>>
                  group,
              OutputEmitter* out, TaskContext*) override {
    out->Emit(group.front().second);
  }
};

}  // namespace

Result<JoinRunResult> RunOneStageSelfJoin(mr::Dfs* dfs,
                                          const std::string& input_file,
                                          const std::string& output_prefix,
                                          const JoinConfig& config) {
  FJ_RETURN_IF_ERROR(config.Validate());
  // One-stage pipelines share a pipeline-wide executor too (see
  // driver.cc); both jobs below run on it through their engine options.
  JoinConfig cfg = config;
  if (!cfg.executor) {
    cfg.executor = std::make_shared<Executor>(cfg.local_threads);
  }
  JoinRunResult result;
  result.ordering_file = output_prefix + ".ordering";
  result.rid_pairs_file = "";  // no projection stage exists
  result.output_file = output_prefix + ".joined";

  FJ_ASSIGN_OR_RETURN(
      Stage1Result stage1,
      RunStage1(dfs, input_file, result.ordering_file, cfg));
  result.stages.push_back(StageMetrics{
      std::string("1-") + Stage1Name(cfg.stage1), std::move(stage1.jobs)});

  // Both jobs below read the Dfs's own stored ordering lines: the file is
  // neither appended to nor deleted while they run.
  FJ_ASSIGN_OR_RETURN(const std::vector<std::string>* ordering_lines,
                      dfs->ReadFile(result.ordering_file));
  // A malformed ordering fails here, before any map task loads it.
  FJ_RETURN_IF_ERROR(text::TokenOrdering::FromLines(*ordering_lines).status());

  // The fat-value kernel job.
  const internal::Stage2Context ctx =
      internal::MakeStage2Context(cfg, ordering_lines);
  sim::SimilaritySpec spec = cfg.MakeSpec();
  auto tokenizer = cfg.tokenizer;

  mr::JobSpec<Stage2Key, std::string> kernel{cfg.engine()};
  kernel.name = "onestage-kernel";
  kernel.input_files = {input_file};
  kernel.output_file = output_prefix + ".withdups";
  kernel.num_map_tasks = cfg.num_map_tasks;
  kernel.num_reduce_tasks = cfg.num_reduce_tasks;
  kernel.group_equal = [](const Stage2Key& a, const Stage2Key& b) {
    return a.group == b.group;
  };
  kernel.mapper_factory = [ctx] {
    return std::make_unique<FullRecordMapper>(ctx);
  };
  kernel.reducer_factory = [tokenizer, ordering_lines, spec] {
    return std::make_unique<FullRecordReducer>(tokenizer, ordering_lines,
                                               spec);
  };
  mr::Job<Stage2Key, std::string> kernel_job(dfs, std::move(kernel));
  FJ_ASSIGN_OR_RETURN(mr::JobMetrics kernel_metrics, kernel_job.Run());
  result.stages.push_back(
      StageMetrics{"2-ONESTAGE", {std::move(kernel_metrics)}});

  // Deduplication job.
  mr::JobSpec<std::pair<uint64_t, uint64_t>, std::string> dedup{
      cfg.engine()};
  dedup.name = "onestage-dedup";
  dedup.input_files = {output_prefix + ".withdups"};
  dedup.output_file = result.output_file;
  dedup.num_map_tasks = cfg.num_map_tasks;
  dedup.num_reduce_tasks = cfg.num_reduce_tasks;
  dedup.mapper_factory = [] { return std::make_unique<DedupMapper>(); };
  dedup.reducer_factory = [] { return std::make_unique<DedupReducer>(); };
  mr::Job<std::pair<uint64_t, uint64_t>, std::string> dedup_job(
      dfs, std::move(dedup));
  FJ_ASSIGN_OR_RETURN(mr::JobMetrics dedup_metrics, dedup_job.Run());
  result.stages.push_back(
      StageMetrics{"3-DEDUP", {std::move(dedup_metrics)}});

  return result;
}

}  // namespace fj::join
