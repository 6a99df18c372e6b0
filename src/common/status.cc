#include "common/status.h"

namespace fj {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kDataLoss:
      return "DataLoss";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace fj
