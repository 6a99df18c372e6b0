// Stage 2, R-S join case (Sections 4 and 5).
//
// Mappers tag each projection with its relation (taken from which input
// file the split came from); the partitioner ignores the tag while the
// secondary sort uses it — the paper's recipe for binary joins in
// MapReduce. For PK, keys carry the length *class* of Figure 6: R records
// sort by the lower bound of their length, S records by their actual
// length, R before S within a class, so every R record that could join an
// S record is indexed before that record probes.
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "fuzzyjoin/stage2.h"
#include "fuzzyjoin/stage2_internal.h"
#include "ppjoin/ppjoin.h"

namespace fj::join {

namespace {

using internal::BkVerifyPair;
using internal::ProjectionMapperBase;
using internal::Stage2Context;
using mr::OutputEmitter;
using mr::TaskContext;

using Pair = std::pair<Stage2Key, TokenSetRecord>;
using PairSpan = std::span<const Pair>;

constexpr uint32_t kRelationR = 0;
constexpr uint32_t kRelationS = 1;

/// Key layout selector for the R-S mappers.
enum class RSLayout {
  kPK,            ///< (group, length class, relation, length)
  kBK,            ///< (group, relation, length) — R arrives first, whole
  kMapBlocks,     ///< (group, round, relation) — R block r in round r,
                  ///< S replicated to every round
  kReduceBlocks,  ///< (group, relation, block) — R blocks spilled by reducer
};

class RSKernelMapper : public ProjectionMapperBase<> {
 public:
  RSKernelMapper(Stage2Context ctx, RSLayout layout)
      : ProjectionMapperBase(std::move(ctx)), layout_(layout) {}

  void Map(const mr::InputRecord& record,
           mr::Emitter<Stage2Key, TokenSetRecord>* out,
           TaskContext* task_ctx) override {
    TokenSetRecord projection;
    if (!ProjectRecord(record, task_ctx, &projection)) return;
    uint32_t relation =
        record.file_index == 0 ? kRelationR : kRelationS;  // inputs: {R, S}
    uint32_t length = static_cast<uint32_t>(projection.tokens.size());

    for (uint32_t g : PrefixGroups(projection)) {
      switch (layout_) {
        case RSLayout::kPK: {
          // Figure 6: R's class is the lower bound of its length, S's
          // class is its length; R sorts before S within a class.
          uint32_t length_class =
              relation == kRelationR
                  ? static_cast<uint32_t>(ctx_.spec.LengthLowerBound(length))
                  : length;
          out->Emit(Stage2Key{g, length_class, relation, length}, projection);
          break;
        }
        case RSLayout::kBK:
          out->Emit(Stage2Key{g, relation, length, 0}, projection);
          break;
        case RSLayout::kMapBlocks:
          if (relation == kRelationR) {
            uint32_t block = BlockOf(projection.rid);
            out->Emit(Stage2Key{g, block, kRelationR, 0}, projection);
          } else {
            // The whole S partition streams against every R block.
            for (uint32_t round = 0; round < ctx_.num_blocks; ++round) {
              out->Emit(Stage2Key{g, round, kRelationS, 0}, projection);
            }
          }
          break;
        case RSLayout::kReduceBlocks:
          if (relation == kRelationR) {
            out->Emit(Stage2Key{g, kRelationR, BlockOf(projection.rid), 0},
                      projection);
          } else {
            out->Emit(Stage2Key{g, kRelationS, 0, 0}, projection);
          }
          break;
      }
    }
    task_ctx->counters().Add("stage2.projections", 1);
  }

 private:
  RSLayout layout_;
};

/// BK: store the R partition (it arrives first), stream S against it.
class BkRSReducer : public mr::Reducer<Stage2Key, TokenSetRecord> {
 public:
  explicit BkRSReducer(sim::SimilaritySpec spec) : spec_(spec) {}

  void Reduce(const Stage2Key&, PairSpan group, OutputEmitter* out,
              TaskContext* ctx) override {
    std::string line_buf;  // reused across emitted pairs
    std::vector<const TokenSetRecord*> r_records;
    for (const auto& [key, projection] : group) {
      if (key.s1 == kRelationR) {
        r_records.push_back(&projection);
      } else {
        for (const TokenSetRecord* r : r_records) {
          BkVerifyPair(spec_, *r, projection, /*self_canonical=*/false,
                       &line_buf, out, ctx);
        }
      }
    }
    ctx->counters().Max("stage2.peak_group_records",
                        static_cast<int64_t>(r_records.size()));
  }

 private:
  sim::SimilaritySpec spec_;
};

/// PK: index R projections, probe with S projections, in length-class
/// order so the index can evict R records that are too short for every
/// remaining probe. One stream serves every group of the reduce task,
/// reset between groups.
class PkRSReducer : public mr::Reducer<Stage2Key, TokenSetRecord> {
 public:
  explicit PkRSReducer(sim::SimilaritySpec spec) : stream_(spec) {}

  void Reduce(const Stage2Key&, PairSpan group, OutputEmitter* out,
              TaskContext* ctx) override {
    stream_.Reset();
    std::vector<ppjoin::SimilarPair> pairs;
    for (const auto& [key, projection] : group) {
      if (key.s2 == kRelationR) {
        stream_.InsertRS(projection);
      } else {
        stream_.Probe(projection, &pairs);
      }
    }
    std::string line_buf;  // reused across emitted pairs
    for (const auto& p : pairs) {
      FormatRidPairLine(p.rid1, p.rid2, p.similarity, &line_buf);
      out->Emit(line_buf);
    }
    internal::MergePPJoinStats(stream_.stats(), ctx);
    ctx->counters().Max(
        "stage2.pk.peak_resident_tokens",
        static_cast<int64_t>(stream_.stats().peak_resident_tokens));
  }

 private:
  ppjoin::PPJoinStream stream_;
};

/// BK + map-based blocks: round r holds R block r followed by the full S
/// partition (replicated by the mapper).
class BkRSMapBlockReducer : public mr::Reducer<Stage2Key, TokenSetRecord> {
 public:
  explicit BkRSMapBlockReducer(sim::SimilaritySpec spec) : spec_(spec) {}

  void Reduce(const Stage2Key&, PairSpan group, OutputEmitter* out,
              TaskContext* ctx) override {
    std::string line_buf;  // reused across emitted pairs
    std::vector<const TokenSetRecord*> memory;  // the round's R block
    uint32_t current_round = UINT32_MAX;
    size_t peak = 0;
    for (const auto& [key, projection] : group) {
      if (key.s1 != current_round) {
        memory.clear();
        current_round = key.s1;
      }
      if (key.s2 == kRelationR) {
        memory.push_back(&projection);
        peak = std::max(peak, memory.size());
      } else {
        for (const TokenSetRecord* r : memory) {
          BkVerifyPair(spec_, *r, projection, /*self_canonical=*/false,
                       &line_buf, out, ctx);
        }
      }
    }
    ctx->counters().Max("stage2.block.peak_memory_records",
                        static_cast<int64_t>(peak));
  }

 private:
  sim::SimilaritySpec spec_;
};

/// BK + reduce-based blocks: R block 0 stays in memory; later R blocks and
/// the whole S partition are spilled to local disk and re-streamed for
/// each R block (Section 5, "Handling R-S Joins").
class BkRSReduceBlockReducer : public mr::Reducer<Stage2Key, TokenSetRecord> {
 public:
  explicit BkRSReduceBlockReducer(sim::SimilaritySpec spec) : spec_(spec) {}

  void Reduce(const Stage2Key& key, PairSpan group, OutputEmitter* out,
              TaskContext* ctx) override {
    std::string line_buf;  // reused across emitted pairs
    auto scratch_name = [&key](const std::string& what) {
      return "g" + std::to_string(key.group) + "." + what;
    };

    // Split the sorted group: R blocks (s1 == 0, ordered by block id in
    // s2), then S (s1 == 1).
    std::map<uint32_t, std::vector<const TokenSetRecord*>> r_blocks;
    std::vector<const TokenSetRecord*> s_stream;
    for (const auto& [k, projection] : group) {
      if (k.s1 == kRelationR) {
        r_blocks[k.s2].push_back(&projection);
      } else {
        s_stream.push_back(&projection);
      }
    }
    if (r_blocks.empty() || s_stream.empty()) return;

    std::vector<uint32_t> order;
    order.reserve(r_blocks.size());
    for (const auto& [id, members] : r_blocks) order.push_back(id);

    // Load R block 0; spill the other R blocks.
    std::vector<const TokenSetRecord*>& memory = r_blocks[order[0]];
    size_t peak = memory.size();
    for (size_t t = 1; t < order.size(); ++t) {
      std::vector<std::string> spill;
      spill.reserve(r_blocks[order[t]].size());
      for (const TokenSetRecord* p : r_blocks[order[t]]) {
        spill.push_back(internal::SerializeProjection(*p));
      }
      ctx->scratch().Put(scratch_name("r" + std::to_string(order[t])),
                         std::move(spill));
    }

    // Stream S against block 0, spilling S as it streams.
    std::vector<std::string> s_spill;
    s_spill.reserve(s_stream.size());
    for (const TokenSetRecord* s : s_stream) {
      for (const TokenSetRecord* r : memory) {
        BkVerifyPair(spec_, *r, *s, /*self_canonical=*/false, &line_buf, out,
                     ctx);
      }
      s_spill.push_back(internal::SerializeProjection(*s));
    }
    ctx->scratch().Put(scratch_name("s"), std::move(s_spill));

    // For each later R block: reload it, re-stream S from disk.
    for (size_t t = 1; t < order.size(); ++t) {
      auto r_lines = ctx->scratch().Get(scratch_name("r" + std::to_string(order[t])));
      if (!r_lines.ok()) continue;
      std::vector<TokenSetRecord> resident;
      resident.reserve(r_lines.value()->size());
      for (const std::string& line : *r_lines.value()) {
        auto projection = internal::ParseProjection(line);
        if (!projection.ok()) {
          ctx->counters().Add("stage2.block.bad_spill_lines", 1);
          continue;
        }
        resident.push_back(std::move(projection).value());
      }
      peak = std::max(peak, resident.size());
      auto s_lines = ctx->scratch().Get(scratch_name("s"));
      if (!s_lines.ok()) continue;
      for (const std::string& line : *s_lines.value()) {
        auto s = internal::ParseProjection(line);
        if (!s.ok()) {
          ctx->counters().Add("stage2.block.bad_spill_lines", 1);
          continue;
        }
        for (const TokenSetRecord& r : resident) {
          BkVerifyPair(spec_, r, s.value(), /*self_canonical=*/false, &line_buf,
                       out, ctx);
        }
      }
      ctx->scratch().Erase(scratch_name("r" + std::to_string(order[t])));
    }
    ctx->scratch().Erase(scratch_name("s"));
    ctx->counters().Max("stage2.block.peak_memory_records",
                        static_cast<int64_t>(peak));
  }

 private:
  sim::SimilaritySpec spec_;
};

}  // namespace

Result<Stage2Result> RunStage2RSJoin(mr::Dfs* dfs, const std::string& r_file,
                                     const std::string& s_file,
                                     const std::string& ordering_file,
                                     const std::string& output_file,
                                     const JoinConfig& config) {
  FJ_RETURN_IF_ERROR(config.Validate());
  if (config.routing == TokenRouting::kLengthSignatures) {
    return Status::InvalidArgument(
        "length-signature routing is implemented for the self-join case "
        "only (the paper's footnote-2 exploration)");
  }
  // The mappers read the Dfs's own stored lines: the ordering file is
  // neither appended to nor deleted while the job below runs.
  FJ_ASSIGN_OR_RETURN(const std::vector<std::string>* ordering_lines,
                      dfs->ReadFile(ordering_file));

  // A malformed ordering fails here, before any map task loads it.
  FJ_RETURN_IF_ERROR(text::TokenOrdering::FromLines(*ordering_lines).status());
  const Stage2Context ctx = internal::MakeStage2Context(config, ordering_lines);

  RSLayout layout = RSLayout::kPK;
  if (config.block_processing == BlockProcessing::kMapBased) {
    layout = RSLayout::kMapBlocks;
  } else if (config.block_processing == BlockProcessing::kReduceBased) {
    layout = RSLayout::kReduceBlocks;
  } else if (config.stage2 == Stage2Algorithm::kBK) {
    layout = RSLayout::kBK;
  }

  mr::JobSpec<Stage2Key, TokenSetRecord> spec{config.engine()};
  spec.name = std::string("stage2-") + Stage2Name(config.stage2) + "-rs";
  spec.input_files = {r_file, s_file};
  spec.output_file = output_file;
  spec.num_map_tasks = config.num_map_tasks;
  spec.num_reduce_tasks = config.num_reduce_tasks;
  spec.group_equal = [](const Stage2Key& a, const Stage2Key& b) {
    return a.group == b.group;
  };

  sim::SimilaritySpec sim_spec = config.MakeSpec();
  spec.mapper_factory = [ctx, layout] {
    return std::make_unique<RSKernelMapper>(ctx, layout);
  };
  switch (layout) {
    case RSLayout::kPK:
      spec.reducer_factory = [sim_spec] {
        return std::make_unique<PkRSReducer>(sim_spec);
      };
      break;
    case RSLayout::kBK:
      spec.reducer_factory = [sim_spec] {
        return std::make_unique<BkRSReducer>(sim_spec);
      };
      break;
    case RSLayout::kMapBlocks:
      spec.reducer_factory = [sim_spec] {
        return std::make_unique<BkRSMapBlockReducer>(sim_spec);
      };
      break;
    case RSLayout::kReduceBlocks:
      spec.reducer_factory = [sim_spec] {
        return std::make_unique<BkRSReduceBlockReducer>(sim_spec);
      };
      break;
  }

  mr::Job<Stage2Key, TokenSetRecord> job(dfs, std::move(spec));
  FJ_ASSIGN_OR_RETURN(mr::JobMetrics metrics, job.Run());

  Stage2Result result;
  result.pairs_file = output_file;
  result.jobs.push_back(std::move(metrics));
  return result;
}

}  // namespace fj::join
