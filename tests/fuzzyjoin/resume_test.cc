// Checkpoint/resume contract tests: a pipeline killed after stage 2
// resumes from its manifest re-running only stage 3 and produces
// byte-identical output; a manifest from a different configuration is
// refused; a corrupted checkpoint re-runs its stage instead of feeding bad
// data forward; and a fully completed run resumes as a no-op.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/generator.h"
#include "fuzzyjoin/fuzzyjoin.h"
#include "fuzzyjoin/manifest.h"
#include "text/tokenizer.h"

namespace fj::join {
namespace {

std::vector<std::string> SelfInputLines() {
  auto config = data::DblpLikeConfig(220, 17);
  config.payload_bytes = 24;
  return data::RecordsToLines(data::GenerateRecords(config));
}

std::vector<std::string> OuterInputLines() {
  auto config = data::CiteseerxLikeConfig(150, 23);
  config.payload_bytes = 24;
  return data::RecordsToLines(data::GenerateRecords(config));
}

JoinConfig BaseConfig() {
  JoinConfig config;
  config.num_map_tasks = 4;
  config.num_reduce_tasks = 3;
  return config;
}

// A plan that kills stage 3 permanently (every attempt of reduce task 0
// of any stage-3 job crashes immediately).
std::shared_ptr<const mr::FaultPlan> KillStage3Plan() {
  auto plan = std::make_shared<mr::FaultPlan>();
  plan->faults.push_back(
      mr::FaultSpec{.phase = mr::TaskPhase::kReduce,
                    .task_id = 0,
                    .failing_attempts = mr::FaultSpec::kAllAttempts,
                    .crash_after_records = 0,
                    .job_substring = "stage3"});
  return plan;
}

const std::vector<std::string>& Lines(const mr::Dfs& dfs,
                                      const std::string& file) {
  auto lines = dfs.ReadFile(file);
  EXPECT_TRUE(lines.ok()) << file << ": " << lines.status().ToString();
  return *lines.value();
}

struct PinnedManifest {
  const char* name;
  bool rs;  ///< R-S join of r and s; otherwise a self-join of r
  void (*configure)(JoinConfig*);
  std::vector<std::pair<std::string, uint64_t>> outputs;
  uint64_t fingerprint;
};

TEST(ResumeTest, ManifestChecksumsArePinned) {
  // Golden checksums of every committed stage output of seeded joins,
  // captured at commits whose code the goldens guard:
  //  - a BRJ R-S join whose shuffle runs through binary fjlz blocks under
  //    a 4 KiB sort buffer (so every stage spills and merges encoded
  //    runs), captured before the codec and the output-commit hashing
  //    were rewritten;
  //  - the default self-join (BTO-PK-OPRJ, word tokens) and an OPRJ R-S
  //    join with q-gram tokens, captured before records, tokens and RID
  //    pairs were parsed in place, and while the default shuffle still
  //    held typed pairs instead of run blocks.
  // Any change to a committed byte, or to how the Dfs folds line
  // checksums, moves them. The fingerprints moved when the record format
  // left the fold (0x709225853bfac271 -> 0xc98df1fb1e9165b1,
  // 0x00f39605e793b4e6 -> 0x955f467cfb2150cd, 0xc8103e4c441c17c2 ->
  // 0xa10e5410600c2340); no output checksum did.
  const std::vector<PinnedManifest> cases = {
      {"binary fjlz BRJ R-S join", true,
       [](JoinConfig* config) {
         config->stage3 = Stage3Algorithm::kBRJ;
         config->block_codec = mr::BlockCodec::kFjlz;
         config->sort_buffer_bytes = 4096;
       },
       {{"out.ordering", 0x11c9e09893895d91ULL},
        {"out.ridpairs", 0x505483c55ea73a71ULL},
        {"out.joined", 0xebfccf4a707588ffULL}},
       0xc98df1fb1e9165b1ULL},
      {"default self-join", false, [](JoinConfig*) {},
       {{"out.ordering", 0x11c9e09893895d91ULL},
        {"out.ridpairs", 0xd5b618c815c8bd57ULL},
        {"out.joined", 0x472994821ad4fc44ULL}},
       0x955f467cfb2150cdULL},
      {"q-gram OPRJ R-S join", true,
       [](JoinConfig* config) {
         config->stage3 = Stage3Algorithm::kOPRJ;
         config->tokenizer = std::make_shared<text::QGramTokenizer>(3);
       },
       {{"out.ordering", 0x5425fa8ec43010b3ULL},
        {"out.ridpairs", 0x306058fbdd46ffbeULL},
        {"out.joined", 0x54ac4b1318e4e2d1ULL}},
       0xa10e5410600c2340ULL},
  };

  auto r_config = data::DblpLikeConfig(220, 17);
  r_config.payload_bytes = 24;
  const std::vector<data::Record> r = data::GenerateRecords(r_config);
  auto s_config = data::CiteseerxLikeConfig(150, 23);
  s_config.payload_bytes = 24;
  std::vector<data::Record> s = data::GenerateRecords(s_config);
  data::InjectOverlap(r, 0.25, /*max_edits=*/1, 29, &s);

  for (const PinnedManifest& c : cases) {
    SCOPED_TRACE(c.name);
    mr::Dfs dfs;
    ASSERT_TRUE(dfs.WriteFile("r", data::RecordsToLines(r)).ok());
    ASSERT_TRUE(dfs.WriteFile("s", data::RecordsToLines(s)).ok());
    JoinConfig config = BaseConfig();
    c.configure(&config);
    auto result = c.rs ? RunRSJoin(&dfs, "r", "s", "out", config)
                       : RunSelfJoin(&dfs, "r", "out", config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    auto manifest = LoadManifest(dfs, "out.manifest");
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    std::vector<std::pair<std::string, uint64_t>> outputs;
    std::string printed;
    for (const ManifestStage& stage : manifest->stages) {
      for (const auto& output : stage.outputs) {
        outputs.push_back(output);
        EXPECT_EQ(dfs.FileChecksum(output.first).value(), output.second)
            << output.first;
        EXPECT_TRUE(dfs.VerifyFile(output.first).ok()) << output.first;
        char hex[24];
        std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                      static_cast<unsigned long long>(output.second));
        printed += output.first + "=" + hex + " ";
      }
    }
    EXPECT_EQ(outputs, c.outputs) << printed;
    EXPECT_GT(Lines(dfs, "out.joined").size(), 10u);
    EXPECT_EQ(manifest->fingerprint, c.fingerprint)
        << std::hex << manifest->fingerprint;
  }
}

TEST(ResumeTest, ResumesAfterPermanentStage3KillRunningOnlyStage3) {
  // Golden output from an undisturbed run in its own Dfs.
  mr::Dfs golden_dfs;
  ASSERT_TRUE(golden_dfs.WriteFile("records", SelfInputLines()).ok());
  auto golden = RunSelfJoin(&golden_dfs, "records", "out", BaseConfig());
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();

  // Run 1: stage 3 is cursed — stages 1 and 2 commit, then the pipeline
  // dies. The manifest records exactly the two committed stages.
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", SelfInputLines()).ok());
  auto doomed_config = BaseConfig();
  doomed_config.fault_plan = KillStage3Plan();
  auto doomed = RunSelfJoin(&dfs, "records", "out", doomed_config);
  ASSERT_FALSE(doomed.ok());
  EXPECT_TRUE(dfs.Exists("out.ordering"));
  EXPECT_TRUE(dfs.Exists("out.ridpairs"));
  EXPECT_FALSE(dfs.Exists("out.joined"));
  auto manifest = LoadManifest(dfs, "out.manifest");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->stages.size(), 2u);
  EXPECT_EQ(manifest->stages[0].stage_name, "1-BTO");
  EXPECT_EQ(manifest->stages[1].stage_name, "2-PK");

  // Run 2: same configuration, faults gone, resume on. Stages 1-2 are
  // skipped (zero jobs — the job-count bookkeeping proves nothing re-ran),
  // stage 3 executes, and the output is byte-identical to the golden run.
  auto resume_config = BaseConfig();
  resume_config.resume = true;
  auto resumed = RunSelfJoin(&dfs, "records", "out", resume_config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed->stages.size(), 3u);
  EXPECT_TRUE(resumed->stages[0].resumed_from_checkpoint);
  EXPECT_TRUE(resumed->stages[1].resumed_from_checkpoint);
  EXPECT_FALSE(resumed->stages[2].resumed_from_checkpoint);
  EXPECT_TRUE(resumed->stages[0].jobs.empty());
  EXPECT_TRUE(resumed->stages[1].jobs.empty());
  EXPECT_FALSE(resumed->stages[2].jobs.empty());
  EXPECT_EQ(Lines(dfs, "out.joined"), Lines(golden_dfs, "out.joined"));

  // The completed run's manifest now records all three stages.
  auto completed = LoadManifest(dfs, "out.manifest");
  ASSERT_TRUE(completed.ok());
  EXPECT_EQ(completed->stages.size(), 3u);
}

TEST(ResumeTest, CrashBetweenTempWriteAndRenameLeavesNoPartialOutput) {
  // The output-commit protocol is write-temp-then-RenameFile. A process
  // killed in the window between the two leaves "<name>.__commit" behind
  // but must never expose a partial "<name>" — and a resume over that
  // wreckage has to re-run the stage cleanly (adopting nothing from the
  // temp) and converge on byte-identical output.
  mr::Dfs golden_dfs;
  ASSERT_TRUE(golden_dfs.WriteFile("records", SelfInputLines()).ok());
  auto golden = RunSelfJoin(&golden_dfs, "records", "out", BaseConfig());
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();

  // Stages 1-2 commit, stage 3 dies...
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", SelfInputLines()).ok());
  auto doomed_config = BaseConfig();
  doomed_config.fault_plan = KillStage3Plan();
  ASSERT_FALSE(RunSelfJoin(&dfs, "records", "out", doomed_config).ok());

  // ...and we reconstruct the crash window by hand: the stage-3 job wrote
  // its temp (here: a half-finished, wrong prefix of the real output) and
  // was killed before RenameFile.
  std::vector<std::string> partial(Lines(golden_dfs, "out.joined"));
  ASSERT_GT(partial.size(), 1u);
  partial.resize(partial.size() / 2);
  ASSERT_TRUE(dfs.WriteFile("out.joined.__commit", partial).ok());

  // The crash-window invariant: no observer ever sees a partial output
  // under the committed name.
  EXPECT_FALSE(dfs.Exists("out.joined"));
  EXPECT_FALSE(dfs.ReadFile("out.joined").ok());

  // Resume re-runs stage 3, discards the orphaned temp instead of
  // adopting or colliding with it, and lands the full output.
  auto resume_config = BaseConfig();
  resume_config.resume = true;
  auto resumed = RunSelfJoin(&dfs, "records", "out", resume_config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(Lines(dfs, "out.joined"), Lines(golden_dfs, "out.joined"));
  EXPECT_FALSE(dfs.Exists("out.joined.__commit"));
}

TEST(ResumeTest, FingerprintMismatchRefusesToResume) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", SelfInputLines()).ok());
  auto doomed_config = BaseConfig();
  doomed_config.fault_plan = KillStage3Plan();
  ASSERT_FALSE(RunSelfJoin(&dfs, "records", "out", doomed_config).ok());

  // Different tau — the checkpointed ordering and RID pairs are useless.
  auto changed = BaseConfig();
  changed.resume = true;
  changed.tau = 0.9;
  auto refused = RunSelfJoin(&dfs, "records", "out", changed);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  // Different input content refuses too.
  mr::Dfs dfs2;
  ASSERT_TRUE(dfs2.WriteFile("records", SelfInputLines()).ok());
  ASSERT_FALSE(RunSelfJoin(&dfs2, "records", "out", doomed_config).ok());
  ASSERT_TRUE(dfs2.DeleteFile("records").ok());
  auto other_input = SelfInputLines();
  other_input.pop_back();
  ASSERT_TRUE(dfs2.WriteFile("records", std::move(other_input)).ok());
  auto resume_config = BaseConfig();
  resume_config.resume = true;
  auto refused2 = RunSelfJoin(&dfs2, "records", "out", resume_config);
  ASSERT_FALSE(refused2.ok());
  EXPECT_EQ(refused2.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ResumeTest, CompletedRunResumesAsNoOp) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", SelfInputLines()).ok());
  auto first = RunSelfJoin(&dfs, "records", "out", BaseConfig());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::vector<std::string> output = Lines(dfs, "out.joined");

  auto resume_config = BaseConfig();
  resume_config.resume = true;
  auto resumed = RunSelfJoin(&dfs, "records", "out", resume_config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (const auto& stage : resumed->stages) {
    EXPECT_TRUE(stage.resumed_from_checkpoint) << stage.stage_name;
    EXPECT_TRUE(stage.jobs.empty()) << stage.stage_name;
  }
  EXPECT_EQ(Lines(dfs, "out.joined"), output);
}

TEST(ResumeTest, CorruptedCheckpointReRunsItsStageAndEverythingAfter) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", SelfInputLines()).ok());
  auto first = RunSelfJoin(&dfs, "records", "out", BaseConfig());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::vector<std::string> output = Lines(dfs, "out.joined");

  // Bit-rot the stage-2 checkpoint. Resume must NOT trust it: stage 1 is
  // still clean and resumes, stages 2 and 3 re-run from scratch.
  ASSERT_TRUE(dfs.CorruptByteForTest("out.ridpairs", 5).ok());
  auto resume_config = BaseConfig();
  resume_config.resume = true;
  auto resumed = RunSelfJoin(&dfs, "records", "out", resume_config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed->stages.size(), 3u);
  EXPECT_TRUE(resumed->stages[0].resumed_from_checkpoint);
  EXPECT_FALSE(resumed->stages[1].resumed_from_checkpoint);
  EXPECT_FALSE(resumed->stages[2].resumed_from_checkpoint);
  EXPECT_EQ(Lines(dfs, "out.joined"), output);
  // The re-written RID pairs verify again.
  EXPECT_TRUE(dfs.VerifyFile("out.ridpairs").ok());
}

TEST(ResumeTest, ResumeWithoutManifestRunsEverything) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", SelfInputLines()).ok());
  auto config = BaseConfig();
  config.resume = true;
  auto result = RunSelfJoin(&dfs, "records", "out", config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const auto& stage : result->stages) {
    EXPECT_FALSE(stage.resumed_from_checkpoint) << stage.stage_name;
    EXPECT_FALSE(stage.jobs.empty()) << stage.stage_name;
  }
}

TEST(ResumeTest, RSJoinResumesAfterStage3Kill) {
  mr::Dfs golden_dfs;
  ASSERT_TRUE(golden_dfs.WriteFile("r", SelfInputLines()).ok());
  ASSERT_TRUE(golden_dfs.WriteFile("s", OuterInputLines()).ok());
  auto golden = RunRSJoin(&golden_dfs, "r", "s", "out", BaseConfig());
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();

  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("r", SelfInputLines()).ok());
  ASSERT_TRUE(dfs.WriteFile("s", OuterInputLines()).ok());
  auto doomed_config = BaseConfig();
  doomed_config.fault_plan = KillStage3Plan();
  ASSERT_FALSE(RunRSJoin(&dfs, "r", "s", "out", doomed_config).ok());

  auto resume_config = BaseConfig();
  resume_config.resume = true;
  auto resumed = RunRSJoin(&dfs, "r", "s", "out", resume_config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed->stages.size(), 3u);
  EXPECT_TRUE(resumed->stages[0].resumed_from_checkpoint);
  EXPECT_TRUE(resumed->stages[1].resumed_from_checkpoint);
  EXPECT_FALSE(resumed->stages[2].resumed_from_checkpoint);
  EXPECT_EQ(Lines(dfs, "out.joined"), Lines(golden_dfs, "out.joined"));
}

TEST(ResumeTest, ResumeIsTransparentToVerificationChanges) {
  // verify_integrity is byte-transparent, so it is excluded from the
  // fingerprint: a run executed without verification resumes under it.
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", SelfInputLines()).ok());
  auto doomed_config = BaseConfig();
  doomed_config.fault_plan = KillStage3Plan();
  ASSERT_FALSE(RunSelfJoin(&dfs, "records", "out", doomed_config).ok());

  auto resume_config = BaseConfig();
  resume_config.resume = true;
  resume_config.verify_integrity = true;
  auto resumed = RunSelfJoin(&dfs, "records", "out", resume_config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->stages[0].resumed_from_checkpoint);
  EXPECT_TRUE(resumed->stages[1].resumed_from_checkpoint);
}

TEST(ResumeTest, ManifestRoundTripsThroughTheDfs) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("a", {"x"}).ok());
  Manifest manifest;
  manifest.fingerprint = 0xdeadbeefcafe1234ULL;
  manifest.stages.push_back(
      ManifestStage{"1-BTO", {{"a", dfs.FileChecksum("a").value()}}});
  manifest.stages.push_back(ManifestStage{"2-PK", {{"b", 42}, {"c=d", 7}}});
  ASSERT_TRUE(SaveManifest(&dfs, "m", manifest).ok());
  // Saving again replaces atomically instead of failing on the old file.
  ASSERT_TRUE(SaveManifest(&dfs, "m", manifest).ok());
  EXPECT_FALSE(dfs.Exists("m.__commit"));

  auto loaded = LoadManifest(dfs, "m");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->fingerprint, manifest.fingerprint);
  ASSERT_EQ(loaded->stages.size(), 2u);
  EXPECT_EQ(loaded->stages[0].stage_name, "1-BTO");
  EXPECT_EQ(loaded->stages[0].outputs, manifest.stages[0].outputs);
  // File names containing '=' survive (the parser splits on the LAST '=').
  EXPECT_EQ(loaded->stages[1].outputs,
            manifest.stages[1].outputs);
  EXPECT_EQ(LoadManifest(dfs, "missing").status().code(),
            StatusCode::kNotFound);
}

TEST(ResumeTest, FingerprintTracksResultAffectingKnobsOnly) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"1\tt\ta\tp"}).ok());
  JoinConfig base;
  uint64_t fp = PipelineFingerprint(base, dfs, {"in"}).value();

  JoinConfig tau = base;
  tau.tau = 0.7;
  EXPECT_NE(PipelineFingerprint(tau, dfs, {"in"}).value(), fp);

  JoinConfig tasks = base;
  tasks.num_reduce_tasks = 5;  // changes output line order
  EXPECT_NE(PipelineFingerprint(tasks, dfs, {"in"}).value(), fp);

  // The codec changes the encoded run blocks a resumed attempt would
  // re-read, and so the metered bytes.
  JoinConfig packed = base;
  packed.block_codec = mr::BlockCodec::kFjlz;
  EXPECT_NE(PipelineFingerprint(packed, dfs, {"in"}).value(), fp);

  // Byte-transparent knobs leave the fingerprint alone.
  JoinConfig transparent = base;
  transparent.verify_integrity = true;
  transparent.sort_buffer_bytes = 256;
  transparent.local_threads = 4;
  transparent.fault_plan = std::make_shared<mr::FaultPlan>();
  EXPECT_EQ(PipelineFingerprint(transparent, dfs, {"in"}).value(), fp);

  EXPECT_EQ(PipelineFingerprint(base, dfs, {"nope"}).status().code(),
            StatusCode::kNotFound);
}

TEST(ResumeTest, HandEditedManifestRefusesCleanly) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", SelfInputLines()).ok());
  ASSERT_TRUE(RunSelfJoin(&dfs, "records", "out", BaseConfig()).ok());
  ASSERT_TRUE(dfs.DeleteFile("out.manifest").ok());
  ASSERT_TRUE(dfs.WriteFile("out.manifest", {"garbage header"}).ok());

  auto resume_config = BaseConfig();
  resume_config.resume = true;
  auto refused = RunSelfJoin(&dfs, "records", "out", resume_config);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace fj::join