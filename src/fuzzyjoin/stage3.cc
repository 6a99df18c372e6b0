// Stage 3 — Record Join (BRJ and OPRJ, self-join and R-S cases).
#include "fuzzyjoin/stage3.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <memory>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "fuzzyjoin/stage2.h"
#include "mapreduce/job.h"
#include "mapreduce/record_format.h"

namespace fj::join {

namespace {

using mr::Emitter;
using mr::InputRecord;
using mr::OutputEmitter;
using mr::TaskContext;

std::string FormatSim(double sim) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", sim);
  return buf;
}

void AppendUint(uint64_t value, std::string* out) {
  char buf[20];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, result.ptr);
}

/// Appends `field` with its tabs turned into spaces. Only a payload can
/// hold a tab, so the common case is one search and a plain append.
void AppendSanitized(std::string_view field, std::string* out) {
  const size_t at = out->size();
  out->append(field);
  if (field.find('\t') == std::string_view::npos) return;
  std::replace(out->begin() + static_cast<std::ptrdiff_t>(at), out->end(),
               '\t', ' ');
}

// ------------------------------------------------------------ phase-1 types

/// Phase-1 key: (relation, rid). Self-joins use relation 0 for everything;
/// R-S joins distinguish the two RID spaces.
using RidKey = std::pair<uint32_t, uint64_t>;

/// Phase-1 value: either an original record line or a RID-pair line.
struct TaggedLine {
  uint8_t kind = 0;  ///< 0 = record, 1 = RID pair
  std::string line;
};

inline size_t FjByteSize(const TaggedLine& v) { return 5 + v.line.size(); }
// Run encoding (mapreduce/record_format.h): kind byte + varint-
// length-prefixed line.
inline void FjEncodeContent(const TaggedLine& v, std::string* out) {
  mr::EncodeContent(v.kind, out);
  mr::EncodeContent(v.line, out);
}
inline bool FjDecodeContent(std::string_view buf, size_t* pos, TaggedLine* v) {
  size_t at = *pos;
  if (!mr::DecodeContent(buf, &at, &v->kind)) return false;
  if (!mr::DecodeContent(buf, &at, &v->line)) return false;
  *pos = at;
  return true;
}

// ------------------------------------------------------------ phase-2 types

/// Phase-2 key: the RID pair itself.
using PairKey = std::pair<uint64_t, uint64_t>;

/// Phase-2 value: one half of the joined pair.
struct HalfPair {
  uint8_t side = 0;  ///< 0 = first/R record, 1 = second/S record
  double similarity = 0;
  std::string record_line;
};

inline size_t FjByteSize(const HalfPair& v) { return 13 + v.record_line.size(); }
// Run encoding: side byte + similarity as raw fixed64 bits (exact
// double roundtrip) + varint-length-prefixed record line.
inline void FjEncodeContent(const HalfPair& v, std::string* out) {
  mr::EncodeContent(v.side, out);
  mr::EncodeContent(v.similarity, out);
  mr::EncodeContent(v.record_line, out);
}
inline bool FjDecodeContent(std::string_view buf, size_t* pos, HalfPair* v) {
  size_t at = *pos;
  if (!mr::DecodeContent(buf, &at, &v->side)) return false;
  if (!mr::DecodeContent(buf, &at, &v->similarity)) return false;
  if (!mr::DecodeContent(buf, &at, &v->record_line)) return false;
  *pos = at;
  return true;
}

/// Formats the phase-1 output / phase-2 input line:
/// "rid1 TAB rid2 TAB sim TAB side TAB <record line (4 fields)>".
std::string FormatHalfLine(uint64_t rid1, uint64_t rid2, double sim,
                           uint8_t side, const std::string& record_line) {
  return std::to_string(rid1) + "\t" + std::to_string(rid2) + "\t" +
         FormatSim(sim) + "\t" + std::to_string(side) + "\t" + record_line;
}

struct ParsedHalfLine {
  uint64_t rid1 = 0;
  uint64_t rid2 = 0;
  double similarity = 0;
  uint8_t side = 0;
  std::string record_line;
};

Result<ParsedHalfLine> ParseHalfLine(const std::string& line) {
  std::vector<std::string> fields = fj::SplitN(line, '\t', 5);
  if (fields.size() != 5) {
    return Status::InvalidArgument("bad half-pair line: " +
                                   fj::ErrorExcerpt(line));
  }
  ParsedHalfLine out;
  FJ_ASSIGN_OR_RETURN(out.rid1, fj::ParseUint64(fields[0]));
  FJ_ASSIGN_OR_RETURN(out.rid2, fj::ParseUint64(fields[1]));
  FJ_ASSIGN_OR_RETURN(out.similarity, fj::ParseDouble(fields[2]));
  FJ_ASSIGN_OR_RETURN(uint64_t side, fj::ParseUint64(fields[3]));
  if (side > 1) {
    return Status::InvalidArgument("bad side: " + fj::ErrorExcerpt(line));
  }
  out.side = static_cast<uint8_t>(side);
  out.record_line = std::move(fields[4]);
  return out;
}

// --------------------------------------------------------- phase-1 mapper

/// Routes record lines by their RID and RID-pair lines by both RIDs.
/// `pairs_file_index` identifies the RID-pair input; record inputs carry
/// their relation tag (file 0 = R/self, file 1 = S).
class Phase1Mapper : public mr::Mapper<RidKey, TaggedLine> {
 public:
  Phase1Mapper(size_t pairs_file_index, bool is_rs)
      : pairs_file_index_(pairs_file_index), is_rs_(is_rs) {}

  void Map(const InputRecord& record, Emitter<RidKey, TaggedLine>* out,
           TaskContext* ctx) override {
    if (record.file_index == pairs_file_index_) {
      auto parsed = ParseRidPairLine(*record.line);
      if (!parsed.ok()) {
        ctx->counters().Add("stage3.bad_pair_lines", 1);
        ctx->QuarantineRecord(*record.line);
        return;
      }
      auto [rid1, rid2, sim] = parsed.value();
      (void)sim;
      out->Emit(RidKey(0, rid1), TaggedLine{1, *record.line});
      out->Emit(RidKey(is_rs_ ? 1 : 0, rid2), TaggedLine{1, *record.line});
    } else {
      auto view = data::RecordView::FromLine(*record.line);
      if (!view.ok()) {
        ctx->counters().Add("stage3.bad_records", 1);
        ctx->QuarantineRecord(*record.line);
        return;
      }
      uint32_t relation =
          is_rs_ ? static_cast<uint32_t>(record.file_index) : 0;
      out->Emit(RidKey(relation, view->rid), TaggedLine{0, *record.line});
    }
  }

 private:
  size_t pairs_file_index_;
  bool is_rs_;
};

// --------------------------------------------------------- phase-1 reducer

/// Joins one record with all RID pairs referencing it, emitting one
/// half-filled pair per (deduplicated) RID pair.
class Phase1Reducer : public mr::Reducer<RidKey, TaggedLine> {
 public:
  explicit Phase1Reducer(bool is_rs) : is_rs_(is_rs) {}

  void Reduce(const RidKey& key,
              std::span<const std::pair<RidKey, TaggedLine>> group,
              OutputEmitter* out, TaskContext* ctx) override {
    const std::string* record_line = nullptr;
    std::vector<std::string> pair_lines;
    for (const auto& [k, value] : group) {
      if (value.kind == 0) {
        if (record_line != nullptr) {
          ctx->counters().Add("stage3.duplicate_rids", 1);
        }
        record_line = &value.line;
      } else {
        pair_lines.push_back(value.line);
      }
    }
    if (pair_lines.empty()) return;  // record participates in no pair
    if (record_line == nullptr) {
      ctx->counters().Add("stage3.missing_records", 1);
      return;
    }
    // Stage 2 may emit the same pair from several reducers; both halves
    // deduplicate identically because duplicate lines are byte-identical.
    std::sort(pair_lines.begin(), pair_lines.end());
    pair_lines.erase(std::unique(pair_lines.begin(), pair_lines.end()),
                     pair_lines.end());
    for (const std::string& line : pair_lines) {
      auto parsed = ParseRidPairLine(line);
      if (!parsed.ok()) continue;  // counted at map time
      auto [rid1, rid2, sim] = parsed.value();
      uint8_t side;
      if (is_rs_) {
        side = static_cast<uint8_t>(key.first);
      } else {
        side = key.second == rid1 ? 0 : 1;
      }
      out->Emit(FormatHalfLine(rid1, rid2, sim, side, *record_line));
    }
  }

 private:
  bool is_rs_;
};

// ----------------------------------------------------- phase-2 map/reduce

/// Phase 2 mapper: parse half-pair lines into (pair key, half) — the
/// paper's "identity map" plus input parsing.
class Phase2Mapper : public mr::Mapper<PairKey, HalfPair> {
 public:
  void Map(const InputRecord& record, Emitter<PairKey, HalfPair>* out,
           TaskContext* ctx) override {
    auto parsed = ParseHalfLine(*record.line);
    if (!parsed.ok()) {
      ctx->counters().Add("stage3.bad_half_lines", 1);
      return;
    }
    out->Emit(PairKey(parsed->rid1, parsed->rid2),
              HalfPair{parsed->side, parsed->similarity,
                       std::move(parsed->record_line)});
  }
};

/// Phase 2 reducer: the two halves of a pair meet; output the joined pair.
class Phase2Reducer : public mr::Reducer<PairKey, HalfPair> {
 public:
  void Reduce(const PairKey& key,
              std::span<const std::pair<PairKey, HalfPair>> group,
              OutputEmitter* out, TaskContext* ctx) override {
    const HalfPair* first = nullptr;
    const HalfPair* second = nullptr;
    for (const auto& [k, half] : group) {
      if (half.side == 0 && first == nullptr) {
        first = &half;
      } else if (half.side == 1 && second == nullptr) {
        second = &half;
      } else {
        ctx->counters().Add("stage3.unexpected_halves", 1);
      }
    }
    if (first == nullptr || second == nullptr) {
      ctx->counters().Add("stage3.incomplete_pairs", 1);
      return;
    }
    auto rec1 = data::RecordView::FromLine(first->record_line);
    auto rec2 = data::RecordView::FromLine(second->record_line);
    if (!rec1.ok() || !rec2.ok()) {
      ctx->counters().Add("stage3.bad_records", 1);
      return;
    }
    out->Emit(FormatJoinedLine(first->similarity, *rec1, *rec2));
    (void)key;
  }
};

// ----------------------------------------------------------- OPRJ mapper

struct RidPairEntry {
  uint64_t rid1;
  uint64_t rid2;
  double similarity;
};

/// OPRJ mapper: loads and indexes the broadcast RID-pair list in Setup
/// (per map task — the constant-cost step the paper identifies as OPRJ's
/// scalability limit), then joins records map-side. The index is two
/// sorted arrays searched by binary search: the distinct pairs by
/// (rid1, rid2), and their positions by (rid2, position).
class OprjMapper : public mr::Mapper<PairKey, HalfPair> {
 public:
  OprjMapper(const std::vector<std::string>* pair_lines, bool is_rs)
      : pair_lines_(pair_lines), is_rs_(is_rs) {}

  void Setup(TaskContext* ctx) override {
    pairs_.reserve(pair_lines_->size());
    for (const std::string& line : *pair_lines_) {
      auto pair = ParseRidPairLine(line);
      if (!pair.ok()) {
        ctx->counters().Add("stage3.bad_pair_lines", 1);
        continue;
      }
      auto [rid1, rid2, sim] = pair.value();
      pairs_.push_back(RidPairEntry{rid1, rid2, sim});
    }
    std::sort(pairs_.begin(), pairs_.end(),
              [](const RidPairEntry& a, const RidPairEntry& b) {
                return std::tie(a.rid1, a.rid2) < std::tie(b.rid1, b.rid2);
              });
    pairs_.erase(std::unique(pairs_.begin(), pairs_.end(),
                             [](const RidPairEntry& a, const RidPairEntry& b) {
                               return a.rid1 == b.rid1 && a.rid2 == b.rid2;
                             }),
                 pairs_.end());
    by_second_.resize(pairs_.size());
    for (size_t i = 0; i < pairs_.size(); ++i) {
      by_second_[i] = static_cast<uint32_t>(i);
    }
    std::sort(by_second_.begin(), by_second_.end(),
              [this](uint32_t a, uint32_t b) {
                return std::tie(pairs_[a].rid2, a) < std::tie(pairs_[b].rid2, b);
              });
  }

  void Map(const InputRecord& record, Emitter<PairKey, HalfPair>* out,
           TaskContext* ctx) override {
    auto view = data::RecordView::FromLine(*record.line);
    if (!view.ok()) {
      ctx->counters().Add("stage3.bad_records", 1);
      ctx->QuarantineRecord(*record.line);
      return;
    }
    const uint64_t rid = view->rid;
    // Self-join records match on either side; R-S records only on the side
    // their relation owns (file 0 = R = side 0). Each side's pairs come out
    // in (rid1, rid2) order.
    bool emit_first = !is_rs_ || record.file_index == 0;
    bool emit_second = !is_rs_ || record.file_index == 1;
    if (emit_first) {
      auto it = std::lower_bound(
          pairs_.begin(), pairs_.end(), rid,
          [](const RidPairEntry& p, uint64_t r) { return p.rid1 < r; });
      for (; it != pairs_.end() && it->rid1 == rid; ++it) {
        out->Emit(PairKey(it->rid1, it->rid2),
                  HalfPair{0, it->similarity, *record.line});
      }
    }
    if (emit_second) {
      auto it = std::lower_bound(
          by_second_.begin(), by_second_.end(), rid,
          [this](uint32_t i, uint64_t r) { return pairs_[i].rid2 < r; });
      for (; it != by_second_.end() && pairs_[*it].rid2 == rid; ++it) {
        const RidPairEntry& p = pairs_[*it];
        out->Emit(PairKey(p.rid1, p.rid2),
                  HalfPair{1, p.similarity, *record.line});
      }
    }
  }

 private:
  const std::vector<std::string>* pair_lines_;
  bool is_rs_;
  /// Distinct pairs sorted by (rid1, rid2).
  std::vector<RidPairEntry> pairs_;
  /// Positions in pairs_ sorted by (rid2, position).
  std::vector<uint32_t> by_second_;
};

// ------------------------------------------------------------ job drivers

Result<Stage3Result> RunBrj(mr::Dfs* dfs,
                            const std::vector<std::string>& record_files,
                            const std::string& pairs_file,
                            const std::string& output_file, bool is_rs,
                            const JoinConfig& config) {
  Stage3Result result;
  result.output_file = output_file;

  // Phase 1: fill each half of every pair with its record.
  mr::JobSpec<RidKey, TaggedLine> phase1{config.engine()};
  phase1.name = "stage3-brj-1";
  phase1.input_files = record_files;
  phase1.input_files.push_back(pairs_file);
  size_t pairs_file_index = record_files.size();
  phase1.output_file = output_file + ".halves";
  phase1.num_map_tasks = config.num_map_tasks;
  phase1.num_reduce_tasks = config.num_reduce_tasks;
  phase1.mapper_factory = [pairs_file_index, is_rs] {
    return std::make_unique<Phase1Mapper>(pairs_file_index, is_rs);
  };
  phase1.reducer_factory = [is_rs] {
    return std::make_unique<Phase1Reducer>(is_rs);
  };
  mr::Job<RidKey, TaggedLine> job1(dfs, std::move(phase1));
  FJ_ASSIGN_OR_RETURN(mr::JobMetrics metrics1, job1.Run());
  result.jobs.push_back(std::move(metrics1));

  // Phase 2: bring the two halves of each pair together.
  mr::JobSpec<PairKey, HalfPair> phase2{config.engine()};
  phase2.name = "stage3-brj-2";
  phase2.input_files = {output_file + ".halves"};
  phase2.output_file = output_file;
  phase2.num_map_tasks = config.num_map_tasks;
  phase2.num_reduce_tasks = config.num_reduce_tasks;
  phase2.mapper_factory = [] { return std::make_unique<Phase2Mapper>(); };
  phase2.reducer_factory = [] { return std::make_unique<Phase2Reducer>(); };
  mr::Job<PairKey, HalfPair> job2(dfs, std::move(phase2));
  FJ_ASSIGN_OR_RETURN(mr::JobMetrics metrics2, job2.Run());
  result.jobs.push_back(std::move(metrics2));
  return result;
}

Result<Stage3Result> RunOprj(mr::Dfs* dfs,
                             const std::vector<std::string>& record_files,
                             const std::string& pairs_file,
                             const std::string& output_file, bool is_rs,
                             const JoinConfig& config) {
  FJ_ASSIGN_OR_RETURN(const std::vector<std::string>* pair_lines,
                      dfs->ReadFile(pairs_file));

  // Every map task must hold the indexed RID-pair list in memory; model
  // the paper's out-of-memory failure against the configured budget.
  if (config.oprj_memory_limit_bytes > 0) {
    uint64_t estimated = 0;
    for (const auto& line : *pair_lines) estimated += 40 + line.size();
    if (estimated > config.oprj_memory_limit_bytes) {
      return Status::ResourceExhausted(
          "OPRJ: RID-pair list (~" + std::to_string(estimated) +
          " bytes indexed) exceeds the per-task memory budget of " +
          std::to_string(config.oprj_memory_limit_bytes) +
          " bytes; use BRJ for this scale");
    }
  }

  Stage3Result result;
  result.output_file = output_file;

  mr::JobSpec<PairKey, HalfPair> spec{config.engine()};
  spec.name = "stage3-oprj";
  spec.input_files = record_files;
  spec.output_file = output_file;
  spec.num_map_tasks = config.num_map_tasks;
  spec.num_reduce_tasks = config.num_reduce_tasks;
  spec.mapper_factory = [pair_lines, is_rs] {
    return std::make_unique<OprjMapper>(pair_lines, is_rs);
  };
  spec.reducer_factory = [] { return std::make_unique<Phase2Reducer>(); };
  mr::Job<PairKey, HalfPair> job(dfs, std::move(spec));
  FJ_ASSIGN_OR_RETURN(mr::JobMetrics metrics, job.Run());
  result.jobs.push_back(std::move(metrics));
  return result;
}

}  // namespace

// --------------------------------------------------------------- JoinedPair

std::string FormatJoinedLine(double similarity, const data::RecordView& first,
                             const data::RecordView& second) {
  const std::string sim_text = FormatSim(similarity);
  std::string line;
  line.reserve(48 + sim_text.size() + first.title.size() +
               first.authors.size() + first.payload.size() +
               second.title.size() + second.authors.size() +
               second.payload.size());
  AppendUint(first.rid, &line);
  line += '\t';
  AppendUint(second.rid, &line);
  line += '\t';
  line += sim_text;
  for (const data::RecordView* record : {&first, &second}) {
    for (std::string_view field :
         {record->title, record->authors, record->payload}) {
      line += '\t';
      AppendSanitized(field, &line);
    }
  }
  return line;
}

std::string JoinedPair::ToLine() const {
  return FormatJoinedLine(similarity, first.View(), second.View());
}

Result<JoinedPair> JoinedPair::FromLine(const std::string& line) {
  std::vector<std::string> fields = fj::Split(line, '\t');
  if (fields.size() != 9) {
    return Status::InvalidArgument("bad joined-pair line: " +
                                   fj::ErrorExcerpt(line));
  }
  JoinedPair out;
  FJ_ASSIGN_OR_RETURN(out.first.rid, fj::ParseUint64(fields[0]));
  FJ_ASSIGN_OR_RETURN(out.second.rid, fj::ParseUint64(fields[1]));
  FJ_ASSIGN_OR_RETURN(out.similarity, fj::ParseDouble(fields[2]));
  out.first.title = std::move(fields[3]);
  out.first.authors = std::move(fields[4]);
  out.first.payload = std::move(fields[5]);
  out.second.title = std::move(fields[6]);
  out.second.authors = std::move(fields[7]);
  out.second.payload = std::move(fields[8]);
  return out;
}

Result<std::vector<JoinedPair>> ReadJoinedPairs(const mr::Dfs& dfs,
                                                const std::string& file) {
  FJ_ASSIGN_OR_RETURN(const std::vector<std::string>* lines,
                      dfs.ReadFile(file));
  std::vector<JoinedPair> out;
  out.reserve(lines->size());
  for (const auto& line : *lines) {
    FJ_ASSIGN_OR_RETURN(JoinedPair pair, JoinedPair::FromLine(line));
    out.push_back(std::move(pair));
  }
  return out;
}

// ------------------------------------------------------------- public API

Result<Stage3Result> RunStage3SelfJoin(mr::Dfs* dfs,
                                       const std::string& records_file,
                                       const std::string& pairs_file,
                                       const std::string& output_file,
                                       const JoinConfig& config) {
  FJ_RETURN_IF_ERROR(config.Validate());
  if (config.stage3 == Stage3Algorithm::kBRJ) {
    return RunBrj(dfs, {records_file}, pairs_file, output_file,
                  /*is_rs=*/false, config);
  }
  return RunOprj(dfs, {records_file}, pairs_file, output_file,
                 /*is_rs=*/false, config);
}

Result<Stage3Result> RunStage3RSJoin(mr::Dfs* dfs, const std::string& r_file,
                                     const std::string& s_file,
                                     const std::string& pairs_file,
                                     const std::string& output_file,
                                     const JoinConfig& config) {
  FJ_RETURN_IF_ERROR(config.Validate());
  if (config.stage3 == Stage3Algorithm::kBRJ) {
    return RunBrj(dfs, {r_file, s_file}, pairs_file, output_file,
                  /*is_rs=*/true, config);
  }
  return RunOprj(dfs, {r_file, s_file}, pairs_file, output_file,
                 /*is_rs=*/true, config);
}

}  // namespace fj::join
