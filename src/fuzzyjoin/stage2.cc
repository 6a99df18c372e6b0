// Stage 2, the kernel, for self and R-S joins (Sections 3.2, 4 and 5).
//
// One mapper, three reducers and one driver run every variant. A variant
// is a key layout (the keys the mapper emits per prefix group; the table
// in stage2.h) plus the role each value plays in its reduce group:
// whether it probes the records held so far, whether it is then held
// itself, and which round or block it belongs to. The R-S kernel is the
// self-join kernel with each projection tagged by its relation: R
// records are held and S records probe (Section 4, Figure 6).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "fuzzyjoin/stage2.h"
#include "fuzzyjoin/stage2_internal.h"
#include "ppjoin/ppjoin.h"

namespace fj::join {

void FormatRidPairLine(uint64_t rid1, uint64_t rid2, double similarity,
                       std::string* out) {
  char buf[80];
  int n = std::snprintf(buf, sizeof(buf), "%" PRIu64 "\t%" PRIu64 "\t%.6f",
                        rid1, rid2, similarity);
  out->assign(buf, static_cast<size_t>(n));
}

std::string FormatRidPairLine(uint64_t rid1, uint64_t rid2,
                              double similarity) {
  std::string out;
  FormatRidPairLine(rid1, rid2, similarity, &out);
  return out;
}

Result<std::tuple<uint64_t, uint64_t, double>> ParseRidPairLine(
    const std::string& line) {
  // Exactly two tabs: rid1, rid2 and the similarity, parsed in place.
  const std::string_view view(line);
  const size_t tab1 = view.find('\t');
  const size_t tab2 =
      tab1 == std::string_view::npos ? tab1 : view.find('\t', tab1 + 1);
  if (tab2 == std::string_view::npos ||
      view.find('\t', tab2 + 1) != std::string_view::npos) {
    return Status::InvalidArgument("bad rid-pair line: " +
                                   fj::ErrorExcerpt(line));
  }
  FJ_ASSIGN_OR_RETURN(uint64_t rid1, fj::ParseUint64(view.substr(0, tab1)));
  FJ_ASSIGN_OR_RETURN(uint64_t rid2,
                      fj::ParseUint64(view.substr(tab1 + 1, tab2 - tab1 - 1)));
  FJ_ASSIGN_OR_RETURN(double similarity,
                      fj::ParseDouble(view.substr(tab2 + 1)));
  return std::tuple<uint64_t, uint64_t, double>(rid1, rid2, similarity);
}

namespace internal {

Stage2Context MakeStage2Context(
    const JoinConfig& config, const std::vector<std::string>* ordering_lines) {
  Stage2Context ctx;
  ctx.tokenizer = config.tokenizer;
  ctx.ordering_lines = ordering_lines;
  ctx.spec = config.MakeSpec();
  ctx.routing = config.routing;
  ctx.num_groups = config.num_groups;
  ctx.group_assignment = config.group_assignment;
  return ctx;
}

void MergePPJoinStats(const ppjoin::PPJoinStats& stats, mr::TaskContext* ctx) {
  auto& counters = ctx->counters();
  counters.Add("stage2.pk.probes", static_cast<int64_t>(stats.probes));
  counters.Add("stage2.pk.candidates", static_cast<int64_t>(stats.candidates));
  counters.Add("stage2.pk.positional_pruned",
               static_cast<int64_t>(stats.positional_pruned));
  counters.Add("stage2.pk.suffix_pruned",
               static_cast<int64_t>(stats.suffix_pruned));
  counters.Add("stage2.pk.bitmap_pruned",
               static_cast<int64_t>(stats.bitmap_pruned));
  counters.Add("stage2.pk.verified", static_cast<int64_t>(stats.verified));
  counters.Add("stage2.pk.results", static_cast<int64_t>(stats.results));
  counters.Add("stage2.pk.evicted_records",
               static_cast<int64_t>(stats.evicted_records));
  counters.Add("stage2.pk.hash_lookups_avoided",
               static_cast<int64_t>(stats.hash_lookups_avoided));
  counters.Max("stage2.pk.arena_bytes",
               static_cast<int64_t>(stats.arena_bytes));
  counters.Max("stage2.pk.peak_resident_tokens",
               static_cast<int64_t>(stats.peak_resident_tokens));
}

}  // namespace internal

namespace {

using mr::OutputEmitter;
using mr::TaskContext;
using PairSpan = std::span<const std::pair<Stage2Key, TokenSetRecord>>;

constexpr uint32_t kRelationR = 0;
constexpr uint32_t kRelationS = 1;

/// The eight key layouts of the table in stage2.h.
enum class Layout {
  kSelf,
  kSelfLengthClasses,
  kSelfMapBlocks,
  kSelfReduceBlocks,
  kRSLengthClasses,
  kRSRelation,
  kRSMapBlocks,
  kRSReduceBlocks,
};

Layout ChooseLayout(const JoinConfig& config, bool rs) {
  switch (config.block_processing) {
    case BlockProcessing::kMapBased:
      return rs ? Layout::kRSMapBlocks : Layout::kSelfMapBlocks;
    case BlockProcessing::kReduceBased:
      return rs ? Layout::kRSReduceBlocks : Layout::kSelfReduceBlocks;
    case BlockProcessing::kNone:
      break;
  }
  if (rs) {
    return config.stage2 == Stage2Algorithm::kPK ? Layout::kRSLengthClasses
                                                 : Layout::kRSRelation;
  }
  // Length classes serve two configurations: the Section 5 secondary
  // criterion (token group x length class) and the footnote-2 pure
  // length-signature alternative (a single token group).
  return config.bk_length_routing ||
                 config.routing == TokenRouting::kLengthSignatures
             ? Layout::kSelfLengthClasses
             : Layout::kSelf;
}

/// What a value does in its reduce group.
struct Role {
  bool probes;    ///< verified against the records held so far
  bool builds;    ///< then held itself
  uint32_t unit;  ///< its round or block; a new unit starts with none held
};

/// The unit of the R-S reduce-block layout's S stream: after every block.
constexpr uint32_t kAfterEveryBlock = UINT32_MAX;

Role RoleOf(Layout layout, const Stage2Key& key) {
  switch (layout) {
    case Layout::kSelf:
      return {true, true, 0};
    case Layout::kSelfLengthClasses:  // natives: own class == group's class
    case Layout::kSelfMapBlocks:      // the round's own block
      return {true, key.s2 == key.s1, key.s1};
    case Layout::kSelfReduceBlocks:
      return {true, true, key.s1};
    case Layout::kRSLengthClasses:
      return {key.s2 == kRelationS, key.s2 == kRelationR, 0};
    case Layout::kRSRelation:
      return {key.s1 == kRelationS, key.s1 == kRelationR, 0};
    case Layout::kRSMapBlocks:
      return {key.s2 == kRelationS, key.s2 == kRelationR, key.s1};
    case Layout::kRSReduceBlocks:
      return key.s1 == kRelationR ? Role{false, true, key.s2}
                                  : Role{true, false, kAfterEveryBlock};
  }
  return {};
}

/// Emits, in every prefix group g of a projection, the keys (g, s1, s2,
/// s3) for s1 in [first_s1, last_s1]. The relation is the input file the
/// split came from (inputs: {R, S}); the partitioner ignores it while the
/// secondary sort uses it, the paper's recipe for binary joins.
class Stage2Mapper : public internal::ProjectionMapperBase<> {
 public:
  Stage2Mapper(internal::Stage2Context ctx, Layout layout, uint32_t num_blocks,
               uint32_t class_width)
      : ProjectionMapperBase(std::move(ctx)),
        layout_(layout),
        num_blocks_(num_blocks),
        class_width_(class_width) {}

  void Map(const mr::InputRecord& record,
           mr::Emitter<Stage2Key, TokenSetRecord>* out,
           TaskContext* ctx) override {
    if (!ProjectRecord(record, ctx, &projection_)) return;
    const Span span =
        SpanOf(record.file_index == 0 ? kRelationR : kRelationS);
    for (uint32_t g : PrefixGroups(projection_)) {
      for (uint32_t s1 = span.first_s1; s1 <= span.last_s1; ++s1) {
        out->Emit(Stage2Key{g, s1, span.s2, span.s3}, projection_);
      }
    }
    ctx->counters().Add("stage2.projections", 1);
  }

 private:
  struct Span {
    uint32_t first_s1, last_s1, s2, s3;
  };

  /// The layout's keys for the projection just read (stage2.h's table).
  Span SpanOf(uint32_t relation) const {
    const auto length = static_cast<uint32_t>(projection_.tokens.size());
    auto lower_bound = [&] {
      return static_cast<uint32_t>(ctx_.spec.LengthLowerBound(length));
    };
    auto block = [&] {
      return static_cast<uint32_t>(HashInt64(projection_.rid) % num_blocks_);
    };
    switch (layout_) {
      case Layout::kSelf:
        return {length, length, 0, 0};
      case Layout::kSelfLengthClasses: {
        // Its own class and every class a shorter partner could be in.
        const uint32_t own = length / class_width_;
        return {lower_bound() / class_width_, own, own, 0};
      }
      case Layout::kSelfMapBlocks:  // replicated to every round r <= b
        return {0, block(), block(), 0};
      case Layout::kSelfReduceBlocks:
        return {block(), block(), 0, 0};
      case Layout::kRSLengthClasses: {
        // Figure 6: R's class is the lower bound of its length, S's its
        // length, so every R record an S record may join is indexed first.
        const uint32_t c = relation == kRelationR ? lower_bound() : length;
        return {c, c, relation, length};
      }
      case Layout::kRSRelation:
        return {relation, relation, length, 0};
      case Layout::kRSMapBlocks:  // S streams against every R block
        return relation == kRelationR
                   ? Span{block(), block(), kRelationR, 0}
                   : Span{0, num_blocks_ - 1, kRelationS, 0};
      case Layout::kRSReduceBlocks:
        return relation == kRelationR
                   ? Span{kRelationR, kRelationR, block(), 0}
                   : Span{kRelationS, kRelationS, 0, 0};
    }
    return {};
  }

  Layout layout_;
  uint32_t num_blocks_;
  uint32_t class_width_;
  TokenSetRecord projection_;  // reused by every Map call
};

/// BK verification of one candidate pair, x held and y probing: the
/// length filter, then the early-terminating overlap merge. A qualifying
/// pair is emitted as (min, max) RIDs for a self-join, as (R, S) for an
/// R-S join.
class BkVerifier {
 public:
  BkVerifier(sim::SimilaritySpec spec, bool self_join)
      : spec_(spec), self_join_(self_join) {}

  void Verify(const TokenSetRecord& x, const TokenSetRecord& y,
              OutputEmitter* out, TaskContext* ctx) {
    ctx->counters().Add("stage2.bk.pairs_considered", 1);
    const size_t lx = x.tokens.size();
    const size_t ly = y.tokens.size();
    if (lx == 0 || ly == 0) return;
    if (ly < spec_.LengthLowerBound(lx) || ly > spec_.LengthUpperBound(lx)) {
      ctx->counters().Add("stage2.bk.length_filtered", 1);
      return;
    }
    const size_t alpha = spec_.MinOverlap(lx, ly);
    ctx->counters().Add("stage2.bk.verified", 1);
    const size_t overlap =
        sim::VerifyOverlap(x.tokens, y.tokens, 0, 0, 0, alpha);
    if (overlap == sim::kOverlapFailed) return;
    ctx->counters().Add("stage2.bk.results", 1);
    uint64_t rid1 = x.rid;
    uint64_t rid2 = y.rid;
    if (self_join_ && rid1 > rid2) std::swap(rid1, rid2);
    FormatRidPairLine(
        rid1, rid2,
        sim::SimilarityFromOverlap(spec_.function(), overlap, lx, ly), &line_);
    out->Emit(line_);
  }

 private:
  sim::SimilaritySpec spec_;
  bool self_join_;
  std::string line_;  // reused across emitted pairs
};

/// The BK loop (Sections 3.2.1, 4 and 5): each value probes the records
/// held so far, then is held if its role builds. It runs the BK self and
/// R-S kernels, length classes and map-based blocks; a pair (i, j) is
/// emitted when j arrives.
class BkLoopReducer : public mr::Reducer<Stage2Key, TokenSetRecord> {
 public:
  BkLoopReducer(sim::SimilaritySpec spec, Layout layout, bool self_join,
                const char* peak_counter)
      : verifier_(spec, self_join),
        layout_(layout),
        peak_counter_(peak_counter) {}

  void Reduce(const Stage2Key&, PairSpan group, OutputEmitter* out,
              TaskContext* ctx) override {
    held_.clear();
    uint32_t unit = RoleOf(layout_, group.front().first).unit;
    size_t peak = 0;
    for (const auto& [key, projection] : group) {
      const Role role = RoleOf(layout_, key);
      if (role.unit != unit) {
        held_.clear();
        unit = role.unit;
      }
      if (role.probes) {
        for (const TokenSetRecord* h : held_) {
          verifier_.Verify(*h, projection, out, ctx);
        }
      }
      if (role.builds) {
        held_.push_back(&projection);
        peak = std::max(peak, held_.size());
      }
    }
    ctx->counters().Max(peak_counter_, static_cast<int64_t>(peak));
  }

 private:
  BkVerifier verifier_;
  Layout layout_;
  const char* peak_counter_;
  std::vector<const TokenSetRecord*> held_;
};

/// Local-disk spill format of a projection: "rid token token ...".
std::string SerializeProjection(const TokenSetRecord& projection) {
  std::string out = std::to_string(projection.rid);
  for (TokenId id : projection.tokens) {
    out += ' ';
    out += std::to_string(id);
  }
  return out;
}

Result<TokenSetRecord> ParseProjection(const std::string& line) {
  std::vector<std::string> fields = fj::Split(line, ' ');
  if (fields.empty()) {
    return Status::InvalidArgument("empty projection line");
  }
  TokenSetRecord projection;
  FJ_ASSIGN_OR_RETURN(projection.rid, fj::ParseUint64(fields[0]));
  projection.tokens.reserve(fields.size() - 1);
  for (size_t i = 1; i < fields.size(); ++i) {
    FJ_ASSIGN_OR_RETURN(uint64_t id, fj::ParseUint64(fields[i]));
    projection.tokens.push_back(id);
  }
  return projection;
}

/// BK + reduce-based blocks (Section 5, Figure 7b). The group arrives as
/// units in key order: blocks (self), or R blocks then the S stream
/// (R-S). One pass per unit that builds holds that unit and streams every
/// later unit that probes against it. The first pass reads the shuffled
/// group and spills every later unit to the task's scratch disk; later
/// passes re-read them from there. Every layout sorts the units that
/// build before those that only probe.
class ReduceBlockReducer : public mr::Reducer<Stage2Key, TokenSetRecord> {
 public:
  ReduceBlockReducer(sim::SimilaritySpec spec, Layout layout, bool self_join)
      : verifier_(spec, self_join), layout_(layout) {}

  void Reduce(const Stage2Key& key, PairSpan group, OutputEmitter* out,
              TaskContext* ctx) override {
    struct Unit {
      Role role;
      PairSpan values;
    };
    std::vector<Unit> units;
    bool any_probes = false;
    bool any_builds = false;
    for (size_t begin = 0, end = 0; begin < group.size(); begin = end) {
      const Role role = RoleOf(layout_, group[begin].first);
      while (end < group.size() &&
             RoleOf(layout_, group[end].first).unit == role.unit) {
        ++end;
      }
      units.push_back({role, group.subspan(begin, end - begin)});
      any_probes |= role.probes;
      any_builds |= role.builds;
    }
    if (!any_probes || !any_builds) return;  // no pair to verify

    auto spill_name = [&key](size_t unit) {
      return "g" + std::to_string(key.group) + ".u" + std::to_string(unit);
    };
    std::vector<TokenSetRecord> held;
    auto probe = [&](const TokenSetRecord& projection) {
      for (const TokenSetRecord& h : held) {
        verifier_.Verify(h, projection, out, ctx);
      }
    };

    // Pass 1: hold unit 0, stream and spill the later units.
    for (size_t u = 0; u < units.size(); ++u) {
      std::vector<std::string> spill;
      for (const auto& [k, projection] : units[u].values) {
        if (units[u].role.probes) probe(projection);
        if (u == 0) {
          held.push_back(projection);
        } else {
          spill.push_back(SerializeProjection(projection));
        }
      }
      if (u > 0) ctx->scratch().Put(spill_name(u), std::move(spill));
    }
    size_t peak = held.size();

    // Passes 2..: reload each later unit that builds, then re-stream the
    // units after it that probe.
    for (size_t t = 1; t < units.size(); ++t) {
      if (!units[t].role.builds) continue;
      held.clear();
      ReadSpill(spill_name(t), ctx, [&](const TokenSetRecord& projection) {
        if (units[t].role.probes) probe(projection);
        held.push_back(projection);
      });
      peak = std::max(peak, held.size());
      for (size_t u = t + 1; u < units.size(); ++u) {
        if (units[u].role.probes) ReadSpill(spill_name(u), ctx, probe);
      }
    }
    // The spills belong to this group only.
    for (size_t u = 1; u < units.size(); ++u) {
      ctx->scratch().Erase(spill_name(u));
    }
    ctx->counters().Max("stage2.block.peak_memory_records",
                        static_cast<int64_t>(peak));
  }

 private:
  template <typename Fn>
  static void ReadSpill(const std::string& name, TaskContext* ctx, Fn&& fn) {
    auto lines = ctx->scratch().Get(name);
    if (!lines.ok()) return;
    for (const std::string& line : *lines.value()) {
      auto projection = ParseProjection(line);
      if (!projection.ok()) {
        ctx->counters().Add("stage2.block.bad_spill_lines", 1);
        continue;
      }
      fn(projection.value());
    }
  }

  BkVerifier verifier_;
  Layout layout_;
};

/// PK: the PPJoin+ kernel over a length-ordered group (Sections 3.2.2 and
/// 4). The role picks the step: probe and insert (self-join), insert (R)
/// or probe (S); the index evicts records too short for every later
/// probe. One stream serves every group of the reduce task, reset between
/// groups.
class PkReducer : public mr::Reducer<Stage2Key, TokenSetRecord> {
 public:
  PkReducer(sim::SimilaritySpec spec, Layout layout)
      : stream_(spec), layout_(layout) {}

  void Reduce(const Stage2Key&, PairSpan group, OutputEmitter* out,
              TaskContext* ctx) override {
    stream_.Reset();
    pairs_.clear();
    for (const auto& [key, projection] : group) {
      const Role role = RoleOf(layout_, key);
      if (!role.probes) {
        stream_.InsertRS(projection);
      } else if (!role.builds) {
        stream_.Probe(projection, &pairs_);
      } else {
        stream_.ProbeAndInsert(projection, &pairs_);
      }
    }
    for (const auto& p : pairs_) {
      FormatRidPairLine(p.rid1, p.rid2, p.similarity, &line_);
      out->Emit(line_);
    }
    internal::MergePPJoinStats(stream_.stats(), ctx);
  }

 private:
  ppjoin::PPJoinStream stream_;
  Layout layout_;
  std::vector<ppjoin::SimilarPair> pairs_;
  std::string line_;  // reused across emitted pairs
};

/// Builds and runs the stage-2 job. `inputs` is {records} for a self-join
/// and {R, S} for an R-S join.
Result<Stage2Result> RunStage2(mr::Dfs* dfs, std::vector<std::string> inputs,
                               const std::string& ordering_file,
                               const std::string& output_file,
                               const JoinConfig& config) {
  FJ_RETURN_IF_ERROR(config.Validate());
  const bool rs = inputs.size() == 2;
  if (rs && config.routing == TokenRouting::kLengthSignatures) {
    return Status::InvalidArgument(
        "length-signature routing is implemented for the self-join case "
        "only (the paper's footnote-2 exploration)");
  }
  if (rs && config.bk_length_routing) {
    return Status::InvalidArgument(
        "bk_length_routing is implemented for the self-join case only");
  }
  // The mappers read the Dfs's own stored lines: the ordering file is
  // neither appended to nor deleted while the job below runs.
  FJ_ASSIGN_OR_RETURN(const std::vector<std::string>* ordering_lines,
                      dfs->ReadFile(ordering_file));
  // A malformed ordering fails here, before any map task loads it.
  FJ_RETURN_IF_ERROR(text::TokenOrdering::FromLines(*ordering_lines).status());

  const Layout layout = ChooseLayout(config, rs);
  mr::JobSpec<Stage2Key, TokenSetRecord> spec{config.engine()};
  spec.name = std::string("stage2-") + Stage2Name(config.stage2) +
              (rs ? "-rs" : "-self");
  spec.input_files = std::move(inputs);
  spec.output_file = output_file;
  spec.num_map_tasks = config.num_map_tasks;
  spec.num_reduce_tasks = config.num_reduce_tasks;
  if (layout == Layout::kSelfLengthClasses) {
    // The length class is a routing dimension here, not only a sort
    // field: partition and group on (token group, length class).
    spec.partitioner = [](const Stage2Key& key, size_t partitions) {
      return HashCombine(HashInt64(key.group), HashInt64(key.s1)) % partitions;
    };
    spec.group_equal = [](const Stage2Key& a, const Stage2Key& b) {
      return a.group == b.group && a.s1 == b.s1;
    };
  } else {
    // The default partitioner hashes the group only (FjKeyHash on
    // Stage2Key); the full key still drives the secondary sort.
    spec.group_equal = [](const Stage2Key& a, const Stage2Key& b) {
      return a.group == b.group;
    };
  }
  spec.mapper_factory = [ctx = internal::MakeStage2Context(config,
                                                           ordering_lines),
                         layout, num_blocks = config.num_blocks,
                         width = config.length_class_width] {
    return std::make_unique<Stage2Mapper>(ctx, layout, num_blocks, width);
  };
  const sim::SimilaritySpec sim_spec = config.MakeSpec();
  if (config.block_processing == BlockProcessing::kReduceBased) {
    spec.reducer_factory = [sim_spec, layout, rs] {
      return std::make_unique<ReduceBlockReducer>(sim_spec, layout, !rs);
    };
  } else if (config.stage2 == Stage2Algorithm::kPK) {
    spec.reducer_factory = [sim_spec, layout] {
      return std::make_unique<PkReducer>(sim_spec, layout);
    };
  } else {
    const char* peak_counter =
        config.block_processing == BlockProcessing::kMapBased
            ? "stage2.block.peak_memory_records"
            : "stage2.peak_group_records";
    spec.reducer_factory = [sim_spec, layout, rs, peak_counter] {
      return std::make_unique<BkLoopReducer>(sim_spec, layout, !rs,
                                             peak_counter);
    };
  }

  mr::Job<Stage2Key, TokenSetRecord> job(dfs, std::move(spec));
  FJ_ASSIGN_OR_RETURN(mr::JobMetrics metrics, job.Run());
  Stage2Result result;
  result.pairs_file = output_file;
  result.jobs.push_back(std::move(metrics));
  return result;
}

}  // namespace

Result<Stage2Result> RunStage2SelfJoin(mr::Dfs* dfs,
                                       const std::string& input_file,
                                       const std::string& ordering_file,
                                       const std::string& output_file,
                                       const JoinConfig& config) {
  return RunStage2(dfs, {input_file}, ordering_file, output_file, config);
}

Result<Stage2Result> RunStage2RSJoin(mr::Dfs* dfs, const std::string& r_file,
                                     const std::string& s_file,
                                     const std::string& ordering_file,
                                     const std::string& output_file,
                                     const JoinConfig& config) {
  return RunStage2(dfs, {r_file, s_file}, ordering_file, output_file, config);
}

}  // namespace fj::join
