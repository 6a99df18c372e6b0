#include "fuzzyjoin/config.h"

#include <string>

namespace fj::join {

const char* Stage1Name(Stage1Algorithm a) {
  switch (a) {
    case Stage1Algorithm::kBTO:
      return "BTO";
    case Stage1Algorithm::kOPTO:
      return "OPTO";
  }
  return "?";
}

const char* Stage2Name(Stage2Algorithm a) {
  switch (a) {
    case Stage2Algorithm::kBK:
      return "BK";
    case Stage2Algorithm::kPK:
      return "PK";
  }
  return "?";
}

const char* Stage3Name(Stage3Algorithm a) {
  switch (a) {
    case Stage3Algorithm::kBRJ:
      return "BRJ";
    case Stage3Algorithm::kOPRJ:
      return "OPRJ";
  }
  return "?";
}

Status JoinConfig::Validate() const {
  if (tau <= 0.0 || tau > 1.0) {
    return Status::InvalidArgument("tau must be in (0, 1]");
  }
  if (routing == TokenRouting::kGroupedTokens && num_groups == 0) {
    return Status::InvalidArgument("num_groups must be >= 1");
  }
  if (block_processing != BlockProcessing::kNone) {
    if (stage2 != Stage2Algorithm::kBK) {
      return Status::InvalidArgument(
          "block processing applies to the BK kernel (PK bounds its memory "
          "via the length filter)");
    }
    if (num_blocks == 0) {
      return Status::InvalidArgument("num_blocks must be >= 1");
    }
  }
  if (routing == TokenRouting::kLengthSignatures) {
    if (stage2 != Stage2Algorithm::kBK) {
      return Status::InvalidArgument(
          "length-signature routing has no prefix tokens; only the BK "
          "kernel applies");
    }
    if (block_processing != BlockProcessing::kNone) {
      return Status::InvalidArgument(
          "length-signature routing does not compose with block "
          "processing");
    }
    if (length_class_width == 0) {
      return Status::InvalidArgument("length_class_width must be >= 1");
    }
  }
  if (bk_length_routing) {
    if (stage2 != Stage2Algorithm::kBK) {
      return Status::InvalidArgument(
          "length-based secondary routing applies to the BK kernel");
    }
    if (block_processing != BlockProcessing::kNone) {
      return Status::InvalidArgument(
          "length routing and block processing are alternative "
          "memory-reduction strategies; enable one");
    }
    if (length_class_width == 0) {
      return Status::InvalidArgument("length_class_width must be >= 1");
    }
  }
  if (num_reduce_tasks == 0) {
    return Status::InvalidArgument("num_reduce_tasks must be >= 1");
  }
  if (num_map_tasks > kMaxTasks) {
    return Status::InvalidArgument("num_map_tasks must be <= " +
                                   std::to_string(kMaxTasks));
  }
  if (num_reduce_tasks > kMaxTasks) {
    return Status::InvalidArgument("num_reduce_tasks must be <= " +
                                   std::to_string(kMaxTasks));
  }
  FJ_RETURN_IF_ERROR(EngineOptions::Validate());
  if (tokenizer == nullptr) {
    return Status::InvalidArgument("tokenizer must be set");
  }
  return Status::OK();
}

}  // namespace fj::join
