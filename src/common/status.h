// Status: lightweight error propagation without exceptions.
//
// Follows the RocksDB / Abseil idiom: fallible functions return a Status (or
// a Result<T>, see result.h) instead of throwing. The core library is
// exception-free; gtest assertions inspect Status values in tests.
#pragma once

#include <string>
#include <utility>

namespace fj {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kResourceExhausted,  ///< e.g. a reducer exceeded its memory budget
  kInternal,
  kIOError,
  kUnimplemented,
  kDataLoss,  ///< checksum mismatch: stored data no longer matches its hash
  kFailedPrecondition,  ///< system state rejects the operation (e.g. resuming
                        ///< a checkpoint written by a different pipeline)
  kUnavailable,         ///< a peer is unreachable / lost (retryable elsewhere)
};

/// Returns a short human-readable name for a StatusCode (e.g. "NotFound").
const char* StatusCodeName(StatusCode code);

/// A success-or-error value. Cheap to copy in the OK case (no allocation).
///
/// [[nodiscard]] on the class makes every function returning a Status
/// nodiscard by default — silently dropping an error is a compile error
/// (promoted by -Werror); deliberate drops must spell out `(void)`.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace fj

/// Propagates a non-OK Status to the caller. Usage: FJ_RETURN_IF_ERROR(expr);
#define FJ_RETURN_IF_ERROR(expr)                  \
  do {                                            \
    ::fj::Status _fj_status = (expr);             \
    if (!_fj_status.ok()) return _fj_status;      \
  } while (0)
