#ifndef GAMMA_COMMON_STATUS_H_
#define GAMMA_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace gammadb {

/// \brief Outcome of a fallible operation, in the RocksDB/Arrow style.
///
/// Functions that can fail for reasons other than programming errors return a
/// Status (or a Result<T>). Internal invariant violations use GAMMA_CHECK
/// instead. The OK status carries no allocation.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kAlreadyExists,
    kOutOfRange,
    kResourceExhausted,
    kFailedPrecondition,
    kCorruption,
    kNotImplemented,
    /// A retryable I/O failure (transient disk fault). Callers with a retry
    /// budget may re-issue the operation.
    kIOError,
    /// A permanently failed component (dead disk node). Queries may fail
    /// over to a surviving replica but must not retry the same component.
    kUnavailable,
  };

  Status() : code_(Code::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(Code::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(Code::kOutOfRange, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(Code::kResourceExhausted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(Code::kFailedPrecondition, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(Code::kNotImplemented, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(Code::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsAlreadyExists() const { return code_ == Code::kAlreadyExists; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsFailedPrecondition() const {
    return code_ == Code::kFailedPrecondition;
  }
  bool IsResourceExhausted() const {
    return code_ == Code::kResourceExhausted;
  }
  bool IsOutOfRange() const { return code_ == Code::kOutOfRange; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }

  /// Human-readable rendering, e.g. "NotFound: no such relation".
  std::string ToString() const;

 private:
  Status(Code code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

}  // namespace gammadb

#endif  // GAMMA_COMMON_STATUS_H_
