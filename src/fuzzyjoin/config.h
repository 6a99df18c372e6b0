// Configuration of the three-stage parallel set-similarity join pipeline.
// Every algorithm choice evaluated in the paper is a knob here:
//
//   stage 1: BTO (two MapReduce phases) or OPTO (one phase, in-memory sort)
//   stage 2: BK (nested-loop kernel) or PK (PPJoin+ kernel), with
//            individual-token or grouped-token routing
//   stage 3: BRJ (two phases) or OPRJ (one phase, broadcast RID pairs)
//
// plus the Section 5 insufficient-memory block-processing strategies.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "mapreduce/job_spec.h"
#include "similarity/similarity.h"
#include "text/tokenizer.h"

namespace fj::join {

enum class Stage1Algorithm {
  kBTO,   ///< Basic Token Ordering: count job + sort job
  kOPTO,  ///< One-Phase Token Ordering: count job with in-reducer sort
};

enum class Stage2Algorithm {
  kBK,  ///< Basic Kernel: nested loop with filters in the reducer
  kPK,  ///< PPJoin+ Kernel: indexed, length-sorted streaming reducer
};

enum class Stage3Algorithm {
  kBRJ,   ///< Basic Record Join: two phases through the shuffle
  kOPRJ,  ///< One-Phase Record Join: RID pairs broadcast to every mapper
};

enum class TokenRouting {
  kIndividualTokens,  ///< each prefix token is its own routing key
  kGroupedTokens,     ///< tokens assigned round-robin to num_groups keys
  /// Footnote 2 / Section 2.2's other signature example: route by "ranges
  /// of similar string lengths" INSTEAD of prefix tokens. The paper
  /// explored this and rejected it — "the performance was not good because
  /// it suffered from the skewed distribution of string lengths" — kept
  /// here (BK self-join only) so that finding can be reproduced
  /// (bench_length_signatures).
  kLengthSignatures,
};

/// How tokens are assigned to groups under kGroupedTokens. The paper
/// assigns tokens "to groups in a Round-Robin order" over the frequency
/// ordering, "balanc[ing] the sum of token frequencies across groups";
/// contiguous range assignment is the natural strawman that does NOT
/// balance (one group gets all the rare tokens, another all the frequent
/// ones) — kept for the ablation benchmark.
enum class GroupAssignment {
  kRoundRobin,  ///< group = rank % num_groups (the paper's choice)
  kContiguous,  ///< group = rank / ceil(dictionary / num_groups)
};

enum class BlockProcessing {
  kNone,         ///< whole reducer group held in memory
  kMapBased,     ///< mapper replicates/interleaves blocks (Section 5)
  kReduceBased,  ///< reducer spills blocks to local disk (Section 5)
};

const char* Stage1Name(Stage1Algorithm a);
const char* Stage2Name(Stage2Algorithm a);
const char* Stage3Name(Stage3Algorithm a);

/// The paper's algorithm choices and the job shape, plus the engine
/// settings every job of the pipeline runs under. record_format and
/// block_codec choose only how spill runs are encoded: every stage file
/// is text lines either way.
struct JoinConfig : mr::EngineOptions {
  /// Bound on the task counts below, so a mistyped count fails Validate
  /// instead of allocating tasks without bound.
  static constexpr size_t kMaxTasks = 65536;

  // --- similarity predicate (paper default: Jaccard, tau = 0.80) ---
  sim::SimilarityFunction function = sim::SimilarityFunction::kJaccard;
  double tau = 0.80;

  // --- algorithm selection ---
  Stage1Algorithm stage1 = Stage1Algorithm::kBTO;
  Stage2Algorithm stage2 = Stage2Algorithm::kPK;
  Stage3Algorithm stage3 = Stage3Algorithm::kOPRJ;

  TokenRouting routing = TokenRouting::kIndividualTokens;
  /// Token-group count under kGroupedTokens (ignored for individual
  /// tokens). The paper's best setting is "one group per token", i.e.
  /// individual routing.
  uint32_t num_groups = 64;
  /// Token-to-group assignment under kGroupedTokens.
  GroupAssignment group_assignment = GroupAssignment::kRoundRobin;

  /// Stage 1 aggregates per-task token counts with a combiner before the
  /// shuffle (Section 3.1.1). Disable only for the ablation benchmark.
  bool use_stage1_combiner = true;

  // --- Section 5: insufficient-memory handling (BK kernel) ---
  BlockProcessing block_processing = BlockProcessing::kNone;
  /// Number of sub-blocks per reducer group when block processing is on.
  uint32_t num_blocks = 4;

  /// Section 5, first paragraph: "we can exploit the length filter even in
  /// the BK algorithm, by using the length filter as a secondary
  /// record-routing criterion". When enabled (BK self-join; an R-S join
  /// refuses it), records are additionally routed by length class —
  /// partitioning each token group further and shrinking reducer memory
  /// at the cost of extra replicas.
  bool bk_length_routing = false;
  /// Lengths l in [k*width, (k+1)*width) share length class k.
  uint32_t length_class_width = 4;

  // --- MapReduce shape (mirrors the Hadoop job configuration) ---
  /// Map tasks per job; 0 = one per input file. At most kMaxTasks.
  size_t num_map_tasks = 8;
  /// Reduce tasks per job (the paper runs 4 per node); in [1, kMaxTasks].
  size_t num_reduce_tasks = 8;

  /// Resume a previous run of the same pipeline from its stage manifest
  /// ("<output_prefix>.manifest"): stages whose manifest entry validates
  /// (outputs present, checksums clean) are skipped, and execution
  /// restarts at the first incomplete stage. A manifest written under a
  /// different configuration or different inputs (fingerprint mismatch)
  /// is refused with FailedPrecondition — resuming it would splice
  /// incompatible intermediate files into the pipeline.
  bool resume = false;

  /// OPRJ loads the whole RID-pair list in every mapper. If the estimated
  /// in-memory size exceeds this budget, stage 3 fails with
  /// ResourceExhausted — reproducing the paper's OPRJ out-of-memory
  /// behaviour at large scale factors. 0 = unlimited.
  uint64_t oprj_memory_limit_bytes = 0;

  /// Tokenizer for the join attribute (defaults to word tokens, as in the
  /// paper's evaluation).
  std::shared_ptr<const text::Tokenizer> tokenizer =
      std::make_shared<text::WordTokenizer>();

  sim::SimilaritySpec MakeSpec() const {
    return sim::SimilaritySpec(function, tau);
  }

  /// Validates knob combinations (e.g. block processing requires BK, a
  /// block codec the binary format), the count limits, and the engine
  /// settings (EngineOptions::Validate).
  Status Validate() const;
};

}  // namespace fj::join
