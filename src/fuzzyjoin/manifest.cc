#include "fuzzyjoin/manifest.h"

#include <cstdio>
#include <cstring>

#include "common/hash.h"

namespace fj::join {
namespace {

constexpr char kHeaderTag[] = "fuzzyjoin-manifest";
constexpr char kVersion[] = "v1";

std::string HexOf(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

bool ParseHex(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *out = v;
  return true;
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

uint64_t FoldInt(uint64_t h, uint64_t v) {
  return HashCombine(h, HashInt64(v));
}

}  // namespace

Result<uint64_t> PipelineFingerprint(const JoinConfig& config,
                                     const mr::Dfs& dfs,
                                     const std::vector<std::string>& inputs) {
  uint64_t h = HashString(kHeaderTag);
  h = FoldInt(h, static_cast<uint64_t>(config.function));
  uint64_t tau_bits = 0;
  static_assert(sizeof(tau_bits) == sizeof(config.tau));
  std::memcpy(&tau_bits, &config.tau, sizeof(tau_bits));
  h = FoldInt(h, tau_bits);
  h = FoldInt(h, static_cast<uint64_t>(config.stage1));
  h = FoldInt(h, static_cast<uint64_t>(config.stage2));
  h = FoldInt(h, static_cast<uint64_t>(config.stage3));
  h = FoldInt(h, static_cast<uint64_t>(config.routing));
  h = FoldInt(h, config.num_groups);
  h = FoldInt(h, static_cast<uint64_t>(config.group_assignment));
  h = FoldInt(h, config.use_stage1_combiner ? 1 : 0);
  h = FoldInt(h, static_cast<uint64_t>(config.block_processing));
  h = FoldInt(h, config.num_blocks);
  h = FoldInt(h, config.bk_length_routing ? 1 : 0);
  h = FoldInt(h, config.length_class_width);
  // Task counts shape which reduce task emits which lines, and therefore
  // the byte order of every stage output — a resumed run must match them.
  h = FoldInt(h, config.num_map_tasks);
  h = FoldInt(h, config.num_reduce_tasks);
  // The codec only affects transient run blocks, so every stage file is
  // the same under each; it is folded so a resumed run reproduces the
  // original's metered byte counts.
  h = FoldInt(h, static_cast<uint64_t>(config.block_codec));
  if (config.tokenizer != nullptr) {
    h = HashCombine(h, HashString(config.tokenizer->Name()));
  }
  for (const std::string& input : inputs) {
    h = HashCombine(h, HashString(input));
    FJ_ASSIGN_OR_RETURN(uint64_t checksum, dfs.FileChecksum(input));
    h = FoldInt(h, checksum);
  }
  return h;
}

Result<Manifest> LoadManifest(const mr::Dfs& dfs, const std::string& file) {
  FJ_ASSIGN_OR_RETURN(const std::vector<std::string>* lines,
                      dfs.ReadFile(file));
  auto malformed = [&file](const std::string& why) {
    return Status::DataLoss("manifest '" + file + "': " + why);
  };
  if (lines->empty()) return malformed("empty file");

  Manifest manifest;
  std::vector<std::string> header = SplitTabs((*lines)[0]);
  if (header.size() != 3 || header[0] != kHeaderTag ||
      header[1] != kVersion) {
    return malformed("unrecognized header '" + (*lines)[0] + "'");
  }
  if (!ParseHex(header[2], &manifest.fingerprint)) {
    return malformed("bad fingerprint '" + header[2] + "'");
  }

  for (size_t i = 1; i < lines->size(); ++i) {
    std::vector<std::string> fields = SplitTabs((*lines)[i]);
    if (fields.size() < 4 || fields[0] != "stage") {
      return malformed("bad stage line " + std::to_string(i));
    }
    if (fields[1] != std::to_string(manifest.stages.size())) {
      return malformed("stage index '" + fields[1] + "' out of order");
    }
    ManifestStage stage;
    stage.stage_name = fields[2];
    for (size_t f = 3; f < fields.size(); ++f) {
      size_t eq = fields[f].rfind('=');
      uint64_t checksum = 0;
      if (eq == std::string::npos || eq == 0 ||
          !ParseHex(fields[f].substr(eq + 1), &checksum)) {
        return malformed("bad output entry '" + fields[f] + "'");
      }
      stage.outputs.emplace_back(fields[f].substr(0, eq), checksum);
    }
    manifest.stages.push_back(std::move(stage));
  }
  return manifest;
}

Status SaveManifest(mr::Dfs* dfs, const std::string& file,
                    const Manifest& manifest) {
  std::vector<std::string> lines;
  lines.reserve(manifest.stages.size() + 1);
  lines.push_back(std::string(kHeaderTag) + "\t" + kVersion + "\t" +
                  HexOf(manifest.fingerprint));
  for (size_t i = 0; i < manifest.stages.size(); ++i) {
    const ManifestStage& stage = manifest.stages[i];
    std::string line = "stage\t" + std::to_string(i) + "\t" + stage.stage_name;
    for (const auto& [name, checksum] : stage.outputs) {
      line += "\t" + name + "=" + HexOf(checksum);
    }
    lines.push_back(std::move(line));
  }

  const std::string tmp = file + ".__commit";
  if (dfs->Exists(tmp)) FJ_RETURN_IF_ERROR(dfs->DeleteFile(tmp));
  FJ_RETURN_IF_ERROR(dfs->WriteFile(tmp, std::move(lines)));
  if (dfs->Exists(file)) {
    Status deleted = dfs->DeleteFile(file);
    if (!deleted.ok()) {
      (void)dfs->DeleteFile(tmp);
      return deleted;
    }
  }
  return dfs->RenameFile(tmp, file);
}

}  // namespace fj::join
