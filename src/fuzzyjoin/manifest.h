// Pipeline run manifest: the checkpoint record behind JoinConfig::resume.
//
// After each stage of RunSelfJoin / RunRSJoin commits its output, the
// driver appends a stage entry — stage name plus (file, checksum) for every
// output — to "<output_prefix>.manifest" and rewrites the manifest
// atomically. A later run with `resume` set reloads the manifest, checks
// that it was written by the *same* pipeline (configuration + input
// fingerprint), re-validates each entry against the Dfs in stage order,
// and skips every stage whose entry still holds; execution restarts at the
// first stage whose outputs are missing, corrupted, or unrecorded.
//
// The fingerprint folds every knob that affects the bytes of the join
// output (algorithm selection, routing, tau, tokenizer, task counts — task
// counts change output line order) together with the input files' content
// checksums. Knobs proven byte-transparent are excluded on purpose (see
// PipelineFingerprint): a run that crashed under fault injection may be
// resumed with the faults turned off, and a run executed without
// verification may be resumed with it on.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "fuzzyjoin/config.h"
#include "mapreduce/dfs.h"

namespace fj::join {

/// One committed stage: its display name and every output file it wrote,
/// paired with the file's whole-file checksum at commit time.
struct ManifestStage {
  std::string stage_name;
  std::vector<std::pair<std::string, uint64_t>> outputs;
};

struct Manifest {
  uint64_t fingerprint = 0;
  std::vector<ManifestStage> stages;
};

/// Fingerprint of (result-affecting configuration) x (input contents).
/// Reads each input's checksum from the Dfs; fails if an input is missing.
/// Of the engine settings only record_format and block_codec are folded:
/// they leave every stage file byte-identical, but folding them keeps a
/// resumed run's metered byte counts equal to the original's. The
/// other mr::EngineOptions fields leave the join output byte-identical.
Result<uint64_t> PipelineFingerprint(const JoinConfig& config,
                                     const mr::Dfs& dfs,
                                     const std::vector<std::string>& inputs);

/// Parses a manifest file from the Dfs. Fails with NotFound when the file
/// does not exist and DataLoss when it exists but does not parse — a
/// half-written or hand-edited manifest must refuse cleanly, never resume
/// wrongly.
Result<Manifest> LoadManifest(const mr::Dfs& dfs, const std::string& file);

/// Atomically (re)writes `file` from `manifest`: the new content lands
/// under a temp name first and is renamed over the old manifest, so a
/// crash mid-save leaves either the previous manifest or the new one,
/// never a torn mix.
Status SaveManifest(mr::Dfs* dfs, const std::string& file,
                    const Manifest& manifest);

}  // namespace fj::join
