// Stage 2, self-join case (Sections 3.2 and 5).
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

// ---------------------------------------------------------------- mappers

/// Plain kernel mapper: one (key, projection) per distinct prefix routing
/// group, key = (group, length) so PK reducers see a length-sorted stream.
class SelfKernelMapper : public ProjectionMapperBase<> {
 public:
  using ProjectionMapperBase::ProjectionMapperBase;

  void Map(const mr::InputRecord& record,
           mr::Emitter<Stage2Key, TokenSetRecord>* out,
           TaskContext* ctx) override {
    TokenSetRecord projection;
    if (!ProjectRecord(record, ctx, &projection)) return;
    uint32_t length = static_cast<uint32_t>(projection.tokens.size());
    for (uint32_t g : PrefixGroups(projection)) {
      out->Emit(Stage2Key{g, length, 0, 0}, projection);
    }
    ctx->counters().Add("stage2.projections", 1);
  }
};

/// Map-based block processing (Section 5, Figure 7a): a projection in
/// block b is replicated to every round r <= b; within round r, block r is
/// the loaded block and later blocks stream against it. Key = (group,
/// round, block).
class SelfMapBlockMapper : public ProjectionMapperBase<> {
 public:
  using ProjectionMapperBase::ProjectionMapperBase;

  void Map(const mr::InputRecord& record,
           mr::Emitter<Stage2Key, TokenSetRecord>* out,
           TaskContext* ctx) override {
    TokenSetRecord projection;
    if (!ProjectRecord(record, ctx, &projection)) return;
    uint32_t block = BlockOf(projection.rid);
    for (uint32_t g : PrefixGroups(projection)) {
      for (uint32_t round = 0; round <= block; ++round) {
        out->Emit(Stage2Key{g, round, block, 0}, projection);
      }
    }
    ctx->counters().Add("stage2.projections", 1);
  }
};

/// Reduce-based block processing (Section 5, Figure 7b): each projection
/// is sent exactly once with key = (group, block); the reducer spills
/// non-resident blocks to its local disk.
class SelfReduceBlockMapper : public ProjectionMapperBase<> {
 public:
  using ProjectionMapperBase::ProjectionMapperBase;

  void Map(const mr::InputRecord& record,
           mr::Emitter<Stage2Key, TokenSetRecord>* out,
           TaskContext* ctx) override {
    TokenSetRecord projection;
    if (!ProjectRecord(record, ctx, &projection)) return;
    uint32_t block = BlockOf(projection.rid);
    for (uint32_t g : PrefixGroups(projection)) {
      out->Emit(Stage2Key{g, block, 0, 0}, projection);
    }
    ctx->counters().Add("stage2.projections", 1);
  }
};

/// Length-based secondary routing (Section 5, first paragraph): each
/// projection is routed to its own length class AND to every class a
/// shorter qualifying partner could live in. Key = (group, class,
/// own-class); the partitioner hashes (group, class), so a token group is
/// split across reducers by length — the data is "partitioned even
/// further" and reducer memory shrinks.
class BkLengthRoutingMapper : public ProjectionMapperBase<> {
 public:
  BkLengthRoutingMapper(Stage2Context ctx, uint32_t class_width)
      : ProjectionMapperBase(std::move(ctx)), class_width_(class_width) {}

  void Map(const mr::InputRecord& record,
           mr::Emitter<Stage2Key, TokenSetRecord>* out,
           TaskContext* ctx) override {
    TokenSetRecord projection;
    if (!ProjectRecord(record, ctx, &projection)) return;
    size_t length = projection.tokens.size();
    uint32_t own_class = static_cast<uint32_t>(length / class_width_);
    uint32_t low_class = static_cast<uint32_t>(
        ctx_.spec.LengthLowerBound(length) / class_width_);
    for (uint32_t g : PrefixGroups(projection)) {
      for (uint32_t c = low_class; c <= own_class; ++c) {
        out->Emit(Stage2Key{g, c, own_class, 0}, projection);
      }
    }
    ctx->counters().Add("stage2.projections", 1);
  }

 private:
  uint32_t class_width_;
};

// --------------------------------------------------------------- reducers

/// BK: nested-loop verification of the whole group (Section 3.2.1).
class BkSelfReducer : public mr::Reducer<Stage2Key, TokenSetRecord> {
 public:
  explicit BkSelfReducer(sim::SimilaritySpec spec) : spec_(spec) {}

  void Reduce(const Stage2Key&, PairSpan group, OutputEmitter* out,
              TaskContext* ctx) override {
    std::string line_buf;  // reused across emitted pairs
    ctx->counters().Max("stage2.peak_group_records",
                        static_cast<int64_t>(group.size()));
    for (size_t i = 0; i < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j) {
        BkVerifyPair(spec_, group[i].second, group[j].second,
                     /*self_canonical=*/true, &line_buf, out, ctx);
      }
    }
  }

 private:
  sim::SimilaritySpec spec_;
};

/// PK: the PPJoin+ streaming kernel; the group arrives length-sorted via
/// the composite key, so the index can evict short records as it goes
/// (Section 3.2.2). One stream serves every group of the reduce task,
/// reset between groups.
class PkSelfReducer : public mr::Reducer<Stage2Key, TokenSetRecord> {
 public:
  explicit PkSelfReducer(sim::SimilaritySpec spec) : stream_(spec) {}

  void Reduce(const Stage2Key&, PairSpan group, OutputEmitter* out,
              TaskContext* ctx) override {
    stream_.Reset();
    std::vector<ppjoin::SimilarPair> pairs;
    for (const auto& [key, projection] : group) {
      stream_.ProbeAndInsert(projection, &pairs);
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

/// Reducer for length-routed BK groups: a group holds the class's native
/// projections (own class == the group's class) plus visiting replicas of
/// longer records. A pair is verified exactly once — in the class of its
/// shorter member: native x native by index order, visitor x native
/// always, visitor x visitor never (that pair's shorter member is native
/// in a higher class).
class BkLengthRoutingReducer : public mr::Reducer<Stage2Key, TokenSetRecord> {
 public:
  explicit BkLengthRoutingReducer(sim::SimilaritySpec spec) : spec_(spec) {}

  void Reduce(const Stage2Key& key, PairSpan group, OutputEmitter* out,
              TaskContext* ctx) override {
    std::string line_buf;  // reused across emitted pairs
    std::vector<const TokenSetRecord*> natives;
    std::vector<const TokenSetRecord*> visitors;
    for (const auto& [k, projection] : group) {
      (k.s2 == key.s1 ? natives : visitors).push_back(&projection);
    }
    ctx->counters().Max("stage2.peak_group_records",
                        static_cast<int64_t>(group.size()));
    for (size_t i = 0; i < natives.size(); ++i) {
      for (size_t j = i + 1; j < natives.size(); ++j) {
        BkVerifyPair(spec_, *natives[i], *natives[j], /*self_canonical=*/true,
                     &line_buf, out, ctx);
      }
      for (const TokenSetRecord* visitor : visitors) {
        BkVerifyPair(spec_, *natives[i], *visitor, /*self_canonical=*/true,
                     &line_buf, out, ctx);
      }
    }
  }

 private:
  sim::SimilaritySpec spec_;
};

/// BK + map-based blocks: walk the (round, block)-ordered stream; block r
/// of round r loads into memory (self-joining as it loads), later blocks
/// stream against it.
class BkSelfMapBlockReducer : public mr::Reducer<Stage2Key, TokenSetRecord> {
 public:
  explicit BkSelfMapBlockReducer(sim::SimilaritySpec spec) : spec_(spec) {}

  void Reduce(const Stage2Key&, PairSpan group, OutputEmitter* out,
              TaskContext* ctx) override {
    std::string line_buf;  // reused across emitted pairs
    std::vector<const TokenSetRecord*> memory;
    uint32_t current_round = UINT32_MAX;
    size_t peak = 0;
    for (const auto& [key, projection] : group) {
      if (key.s1 != current_round) {
        memory.clear();
        current_round = key.s1;
      }
      for (const TokenSetRecord* resident : memory) {
        BkVerifyPair(spec_, *resident, projection, /*self_canonical=*/true,
                     &line_buf, out, ctx);
      }
      if (key.s2 == current_round) {  // this value belongs to the loaded block
        memory.push_back(&projection);
        peak = std::max(peak, memory.size());
      }
    }
    ctx->counters().Max("stage2.block.peak_memory_records",
                        static_cast<int64_t>(peak));
  }

 private:
  sim::SimilaritySpec spec_;
};

/// BK + reduce-based blocks: the first block stays in memory; later blocks
/// are verified as they stream AND spilled to local disk, then reloaded
/// pairwise (Figure 7b). Spill I/O is metered through the task scratch.
class BkSelfReduceBlockReducer : public mr::Reducer<Stage2Key, TokenSetRecord> {
 public:
  explicit BkSelfReduceBlockReducer(sim::SimilaritySpec spec) : spec_(spec) {}

  void Reduce(const Stage2Key& key, PairSpan group, OutputEmitter* out,
              TaskContext* ctx) override {
    std::string line_buf;  // reused across emitted pairs
    // Present blocks in ascending id order (the sort guarantees s1 order).
    std::map<uint32_t, std::vector<const TokenSetRecord*>> blocks;
    for (const auto& [k, projection] : group) {
      blocks[k.s1].push_back(&projection);
    }
    if (blocks.empty()) return;

    auto scratch_name = [&key](uint32_t block) {
      return "g" + std::to_string(key.group) + ".b" + std::to_string(block);
    };

    std::vector<uint32_t> order;
    order.reserve(blocks.size());
    for (const auto& [id, members] : blocks) order.push_back(id);

    size_t peak = 0;
    std::vector<TokenSetRecord> memory;

    // Pass 1: load the first block; stream the rest against it while
    // spilling them to disk.
    {
      const auto& first = blocks[order[0]];
      memory.reserve(first.size());
      for (const TokenSetRecord* p : first) {
        for (const TokenSetRecord& resident : memory) {
          BkVerifyPair(spec_, resident, *p, /*self_canonical=*/true, &line_buf,
                       out, ctx);
        }
        memory.push_back(*p);
      }
      peak = std::max(peak, memory.size());
      for (size_t t = 1; t < order.size(); ++t) {
        std::vector<std::string> spill;
        spill.reserve(blocks[order[t]].size());
        for (const TokenSetRecord* p : blocks[order[t]]) {
          for (const TokenSetRecord& resident : memory) {
            BkVerifyPair(spec_, resident, *p, /*self_canonical=*/true,
                         &line_buf, out, ctx);
          }
          spill.push_back(internal::SerializeProjection(*p));
        }
        ctx->scratch().Put(scratch_name(order[t]), std::move(spill));
      }
    }

    // Passes 2..B: reload each later block from disk, self-join it, then
    // stream the blocks after it (also from disk).
    for (size_t t = 1; t < order.size(); ++t) {
      auto loaded = ctx->scratch().Get(scratch_name(order[t]));
      if (!loaded.ok()) continue;
      memory.clear();
      for (const std::string& line : *loaded.value()) {
        auto projection = internal::ParseProjection(line);
        if (!projection.ok()) {
          ctx->counters().Add("stage2.block.bad_spill_lines", 1);
          continue;
        }
        for (const TokenSetRecord& resident : memory) {
          BkVerifyPair(spec_, resident, projection.value(),
                       /*self_canonical=*/true, &line_buf, out, ctx);
        }
        memory.push_back(std::move(projection).value());
      }
      peak = std::max(peak, memory.size());
      for (size_t u = t + 1; u < order.size(); ++u) {
        auto streamed = ctx->scratch().Get(scratch_name(order[u]));
        if (!streamed.ok()) continue;
        for (const std::string& line : *streamed.value()) {
          auto projection = internal::ParseProjection(line);
          if (!projection.ok()) {
            ctx->counters().Add("stage2.block.bad_spill_lines", 1);
            continue;
          }
          for (const TokenSetRecord& resident : memory) {
            BkVerifyPair(spec_, resident, projection.value(),
                         /*self_canonical=*/true, &line_buf, out, ctx);
          }
        }
      }
    }
    // The spill blocks belong to this group only.
    for (size_t t = 1; t < order.size(); ++t) {
      ctx->scratch().Erase(scratch_name(order[t]));
    }
    ctx->counters().Max("stage2.block.peak_memory_records",
                        static_cast<int64_t>(peak));
  }

 private:
  sim::SimilaritySpec spec_;
};

}  // namespace

Result<Stage2Result> RunStage2SelfJoin(mr::Dfs* dfs,
                                       const std::string& input_file,
                                       const std::string& ordering_file,
                                       const std::string& output_file,
                                       const JoinConfig& config) {
  FJ_RETURN_IF_ERROR(config.Validate());
  // The mappers read the Dfs's own stored lines: the ordering file is
  // neither appended to nor deleted while the job below runs.
  FJ_ASSIGN_OR_RETURN(const std::vector<std::string>* ordering_lines,
                      dfs->ReadFile(ordering_file));

  // A malformed ordering fails here, before any map task loads it.
  FJ_RETURN_IF_ERROR(text::TokenOrdering::FromLines(*ordering_lines).status());
  const Stage2Context ctx = internal::MakeStage2Context(config, ordering_lines);

  mr::JobSpec<Stage2Key, TokenSetRecord> spec{config.engine()};
  spec.name = std::string("stage2-") + Stage2Name(config.stage2) + "-self";
  spec.input_files = {input_file};
  spec.output_file = output_file;
  spec.num_map_tasks = config.num_map_tasks;
  spec.num_reduce_tasks = config.num_reduce_tasks;
  spec.group_equal = [](const Stage2Key& a, const Stage2Key& b) {
    return a.group == b.group;
  };
  // Default partitioner hashes the group only (FjKeyHash on Stage2Key);
  // the full key still drives the secondary sort.

  sim::SimilaritySpec sim_spec = config.MakeSpec();
  // Length classes as routing keys serve two configurations: the Section 5
  // secondary criterion (token group x length class) and the footnote-2
  // pure length-signature alternative (single token group).
  if (config.bk_length_routing ||
      config.routing == TokenRouting::kLengthSignatures) {
    // Partition and group on (token group, length class); the class is a
    // genuine routing dimension here, not just a sort field.
    uint32_t width = config.length_class_width;
    spec.partitioner = [](const Stage2Key& key, size_t partitions) {
      return HashCombine(HashInt64(key.group), HashInt64(key.s1)) % partitions;
    };
    spec.group_equal = [](const Stage2Key& a, const Stage2Key& b) {
      return a.group == b.group && a.s1 == b.s1;
    };
    spec.mapper_factory = [ctx, width] {
      return std::make_unique<BkLengthRoutingMapper>(ctx, width);
    };
    spec.reducer_factory = [sim_spec] {
      return std::make_unique<BkLengthRoutingReducer>(sim_spec);
    };
    mr::Job<Stage2Key, TokenSetRecord> job(dfs, std::move(spec));
    FJ_ASSIGN_OR_RETURN(mr::JobMetrics metrics, job.Run());
    Stage2Result result;
    result.pairs_file = output_file;
    result.jobs.push_back(std::move(metrics));
    return result;
  }

  switch (config.block_processing) {
    case BlockProcessing::kNone:
      spec.mapper_factory = [ctx] {
        return std::make_unique<SelfKernelMapper>(ctx);
      };
      if (config.stage2 == Stage2Algorithm::kPK) {
        spec.reducer_factory = [sim_spec] {
          return std::make_unique<PkSelfReducer>(sim_spec);
        };
      } else {
        spec.reducer_factory = [sim_spec] {
          return std::make_unique<BkSelfReducer>(sim_spec);
        };
      }
      break;
    case BlockProcessing::kMapBased:
      spec.mapper_factory = [ctx] {
        return std::make_unique<SelfMapBlockMapper>(ctx);
      };
      spec.reducer_factory = [sim_spec] {
        return std::make_unique<BkSelfMapBlockReducer>(sim_spec);
      };
      break;
    case BlockProcessing::kReduceBased:
      spec.mapper_factory = [ctx] {
        return std::make_unique<SelfReduceBlockMapper>(ctx);
      };
      spec.reducer_factory = [sim_spec] {
        return std::make_unique<BkSelfReduceBlockReducer>(sim_spec);
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
