#include "fuzzyjoin/stage1.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "common/string_util.h"
#include "data/record.h"
#include "mapreduce/job.h"

namespace fj::join {

namespace {

using mr::Emitter;
using mr::InputRecord;
using mr::Job;
using mr::JobSpec;
using mr::OutputEmitter;
using mr::TaskContext;

/// Tokenizes each record's join attribute and emits (token, 1). The record
/// is parsed in place and tokenized into task-owned buffers.
class TokenCountMapper : public mr::Mapper<std::string, uint64_t> {
 public:
  explicit TokenCountMapper(std::shared_ptr<const text::Tokenizer> tokenizer)
      : tokenizer_(std::move(tokenizer)) {}

  void Map(const InputRecord& record, Emitter<std::string, uint64_t>* out,
           TaskContext* ctx) override {
    auto view = data::RecordView::FromLine(*record.line);
    if (!view.ok()) {
      ctx->counters().Add("stage1.bad_records", 1);
      ctx->QuarantineRecord(*record.line);
      return;
    }
    view->JoinAttributeInto(&attribute_);
    tokenizer_->TokenizeInto(attribute_, &tokens_);
    for (size_t i = 0; i < tokens_.size(); ++i) {
      out->Emit(std::string(tokens_[i]), 1);
    }
  }

 private:
  std::shared_ptr<const text::Tokenizer> tokenizer_;
  std::string attribute_;
  text::TokenList tokens_;
};

void SumCombiner(const std::string& token, std::vector<uint64_t>&& counts,
                 Emitter<std::string, uint64_t>* out) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  out->Emit(token, total);
}

/// Renders one (token, count) entry as a "token<TAB>count" line.
std::string FormatCountEntry(const std::string& token, uint64_t count) {
  return token + "\t" + std::to_string(count);
}

/// BTO phase-1 reducer: total count per token.
class TokenCountReducer : public mr::Reducer<std::string, uint64_t> {
 public:
  void Reduce(const std::string& token,
              std::span<const std::pair<std::string, uint64_t>> group,
              OutputEmitter* out, TaskContext*) override {
    uint64_t total = 0;
    for (const auto& [key, count] : group) total += count;
    out->Emit(FormatCountEntry(token, total));
  }
};

/// OPTO reducer: accumulates all (token, count) pairs and emits the sorted
/// ordering from Teardown (the paper's tear-down trick).
class OptoReducer : public mr::Reducer<std::string, uint64_t> {
 public:
  void Reduce(const std::string& token,
              std::span<const std::pair<std::string, uint64_t>> group,
              OutputEmitter*, TaskContext*) override {
    uint64_t total = 0;
    for (const auto& [key, count] : group) total += count;
    totals_.emplace_back(token, total);
  }

  void Teardown(OutputEmitter* out, TaskContext*) override {
    std::sort(totals_.begin(), totals_.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second < b.second;
                return a.first < b.first;
              });
    for (const auto& [token, count] : totals_) {
      out->Emit(FormatCountEntry(token, count));
    }
  }

 private:
  std::vector<std::pair<std::string, uint64_t>> totals_;
};

using SortKey = std::pair<uint64_t, std::string>;  // (count, token)

/// BTO phase-2 mapper: swap (token, count) into a (count, token) sort key,
/// exactly the paper's "map function swaps the input keys and values".
class SwapMapper : public mr::Mapper<SortKey, uint8_t> {
 public:
  void Map(const InputRecord& record, Emitter<SortKey, uint8_t>* out,
           TaskContext* ctx) override {
    const std::string_view line(*record.line);
    const size_t tab = line.find('\t');
    if (tab == std::string_view::npos ||
        line.find('\t', tab + 1) != std::string_view::npos) {
      ctx->counters().Add("stage1.bad_count_lines", 1);
      return;
    }
    auto count = fj::ParseUint64(line.substr(tab + 1));
    if (!count.ok()) {
      ctx->counters().Add("stage1.bad_count_lines", 1);
      return;
    }
    out->Emit(SortKey(count.value(), std::string(line.substr(0, tab))), 0);
  }
};

class EmitOrderingReducer : public mr::Reducer<SortKey, uint8_t> {
 public:
  void Reduce(const SortKey& key, std::span<const std::pair<SortKey, uint8_t>>,
              OutputEmitter* out, TaskContext*) override {
    out->Emit(FormatCountEntry(key.second, key.first));
  }
};

}  // namespace

Result<Stage1Result> RunStage1(mr::Dfs* dfs, const std::string& input_file,
                               const std::string& output_file,
                               const JoinConfig& config) {
  FJ_RETURN_IF_ERROR(config.Validate());
  Stage1Result result;
  result.ordering_file = output_file;

  if (config.stage1 == Stage1Algorithm::kBTO) {
    // Phase 1: count token frequencies (combiner cuts shuffle traffic).
    JobSpec<std::string, uint64_t> count_spec{config.engine()};
    count_spec.name = "stage1-bto-count";
    count_spec.input_files = {input_file};
    count_spec.output_file = output_file + ".counts";
    count_spec.num_map_tasks = config.num_map_tasks;
    count_spec.num_reduce_tasks = config.num_reduce_tasks;
    auto tokenizer = config.tokenizer;
    count_spec.mapper_factory = [tokenizer] {
      return std::make_unique<TokenCountMapper>(tokenizer);
    };
    count_spec.reducer_factory = [] {
      return std::make_unique<TokenCountReducer>();
    };
    if (config.use_stage1_combiner) count_spec.combiner = SumCombiner;
    Job<std::string, uint64_t> count_job(dfs, std::move(count_spec));
    FJ_ASSIGN_OR_RETURN(mr::JobMetrics count_metrics, count_job.Run());
    result.jobs.push_back(std::move(count_metrics));

    // Phase 2: total sort by (count, token) through a single reducer.
    JobSpec<SortKey, uint8_t> sort_spec{config.engine()};
    sort_spec.name = "stage1-bto-sort";
    sort_spec.input_files = {output_file + ".counts"};
    sort_spec.output_file = output_file;
    sort_spec.num_map_tasks = config.num_map_tasks;
    sort_spec.num_reduce_tasks = 1;  // total order requires one reducer
    sort_spec.mapper_factory = [] { return std::make_unique<SwapMapper>(); };
    sort_spec.reducer_factory = [] {
      return std::make_unique<EmitOrderingReducer>();
    };
    Job<SortKey, uint8_t> sort_job(dfs, std::move(sort_spec));
    FJ_ASSIGN_OR_RETURN(mr::JobMetrics sort_metrics, sort_job.Run());
    result.jobs.push_back(std::move(sort_metrics));
    return result;
  }

  // OPTO: one phase, one reducer, sort in Teardown.
  JobSpec<std::string, uint64_t> spec{config.engine()};
  spec.name = "stage1-opto";
  spec.input_files = {input_file};
  spec.output_file = output_file;
  spec.num_map_tasks = config.num_map_tasks;
  spec.num_reduce_tasks = 1;
  auto tokenizer = config.tokenizer;
  spec.mapper_factory = [tokenizer] {
    return std::make_unique<TokenCountMapper>(tokenizer);
  };
  spec.reducer_factory = [] { return std::make_unique<OptoReducer>(); };
  if (config.use_stage1_combiner) spec.combiner = SumCombiner;
  Job<std::string, uint64_t> job(dfs, std::move(spec));
  FJ_ASSIGN_OR_RETURN(mr::JobMetrics metrics, job.Run());
  result.jobs.push_back(std::move(metrics));
  return result;
}

}  // namespace fj::join
