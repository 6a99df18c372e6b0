#include "fuzzyjoin/driver.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "fuzzyjoin/manifest.h"
#include "fuzzyjoin/stage1.h"
#include "fuzzyjoin/stage2.h"

namespace fj::join {
namespace {

// Stage-level checkpoint bookkeeping for one pipeline run.
//
// A run always *writes* the manifest — after every committed stage, so a
// later `resume` run can pick up wherever this one stops. Reading happens
// only in resume mode: Init loads the previous manifest, refuses a
// fingerprint mismatch, and re-validates the recorded stages in order
// against the Dfs (a stage whose outputs vanished or fail their checksum
// invalidates itself and everything after it — later stages were derived
// from the now-untrusted files). AlreadyDone then hands stages back in
// order; the first stage that does not match the validated prefix re-runs,
// as do all stages after it.
class StageCheckpointer {
 public:
  StageCheckpointer(mr::Dfs* dfs, std::string manifest_file,
                    uint64_t fingerprint, bool resume)
      : dfs_(dfs),
        manifest_file_(std::move(manifest_file)),
        fingerprint_(fingerprint),
        resume_(resume) {}

  Status Init() {
    committed_.fingerprint = fingerprint_;
    if (!resume_) {
      // Fresh run: a leftover manifest describes outputs this run is about
      // to replace — drop it so a crash before the first commit cannot
      // leave a stale checkpoint behind.
      if (dfs_->Exists(manifest_file_)) {
        return dfs_->DeleteFile(manifest_file_);
      }
      return Status::OK();
    }
    if (!dfs_->Exists(manifest_file_)) return Status::OK();
    FJ_ASSIGN_OR_RETURN(Manifest previous,
                        LoadManifest(*dfs_, manifest_file_));
    if (previous.fingerprint != fingerprint_) {
      return Status::FailedPrecondition(
          "cannot resume from '" + manifest_file_ +
          "': it was written by a different pipeline configuration or "
          "different inputs (fingerprint mismatch)");
    }
    for (const ManifestStage& stage : previous.stages) {
      if (!StageOutputsValid(stage)) break;
      valid_.push_back(stage);
    }
    return Status::OK();
  }

  /// True when the next validated manifest entry matches this stage; the
  /// entry is consumed and re-recorded so the rewritten manifest keeps it.
  bool AlreadyDone(const std::string& stage_name,
                   const std::vector<std::string>& outputs) {
    if (!resume_ || next_ >= valid_.size()) return false;
    const ManifestStage& entry = valid_[next_];
    if (entry.stage_name != stage_name ||
        entry.outputs.size() != outputs.size()) {
      // Mismatch: the remaining entries describe a different pipeline
      // tail; everything from here on re-runs.
      next_ = valid_.size();
      return false;
    }
    for (size_t i = 0; i < outputs.size(); ++i) {
      if (entry.outputs[i].first != outputs[i]) {
        next_ = valid_.size();
        return false;
      }
    }
    committed_.stages.push_back(entry);
    ++next_;
    return true;
  }

  /// Deletes a re-running stage's stale outputs and their derived files
  /// ("<output>.counts", "<output>.halves", "<output>.bad", leftover
  /// "<output>.__commit" temps) so the jobs can recreate them. Only needed
  /// in resume mode — a fresh run over existing outputs keeps the
  /// long-standing AlreadyExists failure.
  void DeleteStaleOutputs(const std::vector<std::string>& outputs) {
    if (!resume_) return;
    for (const std::string& f : outputs) {
      for (const std::string& name : dfs_->ListFiles()) {
        if (name == f || name.rfind(f + ".", 0) == 0) {
          (void)dfs_->DeleteFile(name);
        }
      }
    }
  }

  /// Records a freshly committed stage and rewrites the manifest.
  Status Commit(const std::string& stage_name,
                const std::vector<std::string>& outputs) {
    ManifestStage stage;
    stage.stage_name = stage_name;
    for (const std::string& f : outputs) {
      FJ_ASSIGN_OR_RETURN(uint64_t checksum, dfs_->FileChecksum(f));
      stage.outputs.emplace_back(f, checksum);
    }
    committed_.stages.push_back(std::move(stage));
    return SaveManifest(dfs_, manifest_file_, committed_);
  }

 private:
  bool StageOutputsValid(const ManifestStage& stage) const {
    for (const auto& [name, checksum] : stage.outputs) {
      Result<uint64_t> current = dfs_->FileChecksum(name);
      if (!current.ok() || current.value() != checksum) return false;
      // The recorded checksum matches the *metadata*; make sure the bytes
      // still match the metadata too, so a corrupted-on-disk checkpoint
      // re-runs its stage instead of feeding bad data forward.
      if (!dfs_->VerifyFile(name).ok()) return false;
    }
    return true;
  }

  mr::Dfs* dfs_;
  std::string manifest_file_;
  uint64_t fingerprint_;
  bool resume_;
  Manifest committed_;                 // what this run rewrites
  std::vector<ManifestStage> valid_;   // validated prefix of the old run
  size_t next_ = 0;                    // next entry AlreadyDone may consume
};

// Runs one pipeline stage under the checkpointer: skip if the manifest
// says it is done, otherwise clear stale outputs, execute, record metrics,
// and commit the manifest entry.
template <typename RunFn>
Status RunStage(StageCheckpointer* ckpt, JoinRunResult* result,
                const std::string& stage_name,
                const std::vector<std::string>& outputs, RunFn&& run) {
  if (ckpt->AlreadyDone(stage_name, outputs)) {
    result->stages.push_back(StageMetrics{stage_name, {}, true});
    return Status::OK();
  }
  ckpt->DeleteStaleOutputs(outputs);
  FJ_ASSIGN_OR_RETURN(std::vector<mr::JobMetrics> jobs, run());
  result->stages.push_back(StageMetrics{stage_name, std::move(jobs)});
  return ckpt->Commit(stage_name, outputs);
}

// The jobs of a finished stage (a Stage1Result, Stage2Result or
// Stage3Result), or its error.
template <typename StageResult>
Result<std::vector<mr::JobMetrics>> JobsOf(Result<StageResult> stage) {
  FJ_RETURN_IF_ERROR(stage.status());
  return std::move(stage->jobs);
}

// The pipeline body shared by the self-join (one input) and the R-S join
// (inputs R and S), which differ only in their inputs and in which stage-2
// and stage-3 functions run. Stage 1 runs on the first input only
// (relation R of an R-S join, Section 4).
Result<JoinRunResult> RunPipeline(mr::Dfs* dfs,
                                  const std::vector<std::string>& inputs,
                                  const std::string& output_prefix,
                                  const JoinConfig& config) {
  FJ_RETURN_IF_ERROR(config.Validate());
  // One executor serves every job of the pipeline: workers persist across
  // stage boundaries instead of being rebuilt per phase. Callers that set
  // config.executor share theirs (bench sweeps reuse one across runs).
  JoinConfig cfg = config;
  if (!cfg.executor) {
    cfg.executor = std::make_shared<Executor>(cfg.local_threads);
  }
  JoinRunResult result;
  result.ordering_file = output_prefix + ".ordering";
  result.rid_pairs_file = output_prefix + ".ridpairs";
  result.output_file = output_prefix + ".joined";

  FJ_ASSIGN_OR_RETURN(uint64_t fingerprint,
                      PipelineFingerprint(cfg, *dfs, inputs));
  StageCheckpointer ckpt(dfs, output_prefix + ".manifest", fingerprint,
                         config.resume);
  FJ_RETURN_IF_ERROR(ckpt.Init());

  FJ_RETURN_IF_ERROR(RunStage(
      &ckpt, &result, std::string("1-") + Stage1Name(cfg.stage1),
      {result.ordering_file}, [&] {
        return JobsOf(RunStage1(dfs, inputs[0], result.ordering_file, cfg));
      }));
  const bool rs = inputs.size() == 2;
  FJ_RETURN_IF_ERROR(RunStage(
      &ckpt, &result, std::string("2-") + Stage2Name(cfg.stage2),
      {result.rid_pairs_file}, [&] {
        return rs ? JobsOf(RunStage2RSJoin(dfs, inputs[0], inputs[1],
                                           result.ordering_file,
                                           result.rid_pairs_file, cfg))
                  : JobsOf(RunStage2SelfJoin(dfs, inputs[0],
                                             result.ordering_file,
                                             result.rid_pairs_file, cfg));
      }));
  FJ_RETURN_IF_ERROR(RunStage(
      &ckpt, &result, std::string("3-") + Stage3Name(cfg.stage3),
      {result.output_file}, [&] {
        return rs ? JobsOf(RunStage3RSJoin(dfs, inputs[0], inputs[1],
                                           result.rid_pairs_file,
                                           result.output_file, cfg))
                  : JobsOf(RunStage3SelfJoin(dfs, inputs[0],
                                             result.rid_pairs_file,
                                             result.output_file, cfg));
      }));
  return result;
}

}  // namespace

double JoinRunResult::TotalWallSeconds() const {
  double total = 0;
  for (const auto& stage : stages) {
    for (const auto& job : stage.jobs) total += job.wall_seconds;
  }
  return total;
}

double JoinRunResult::SimulatedSeconds(const mr::ClusterConfig& cluster) const {
  double total = 0;
  for (size_t i = 0; i < stages.size(); ++i) {
    total += SimulatedStageSeconds(i, cluster);
  }
  return total;
}

double JoinRunResult::SimulatedStageSeconds(
    size_t stage_index, const mr::ClusterConfig& cluster) const {
  if (stage_index >= stages.size()) return 0;
  return mr::SimulatePipelineSeconds(stages[stage_index].jobs, cluster);
}

Result<JoinRunResult> RunSelfJoin(mr::Dfs* dfs, const std::string& input_file,
                                  const std::string& output_prefix,
                                  const JoinConfig& config) {
  return RunPipeline(dfs, {input_file}, output_prefix, config);
}

Result<JoinRunResult> RunRSJoin(mr::Dfs* dfs, const std::string& r_file,
                                const std::string& s_file,
                                const std::string& output_prefix,
                                const JoinConfig& config) {
  return RunPipeline(dfs, {r_file, s_file}, output_prefix, config);
}

}  // namespace fj::join
