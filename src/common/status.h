#ifndef VAQ_COMMON_STATUS_H_
#define VAQ_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace vaq {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kIoError,
  kUnimplemented,
  kDeadlineExceeded,  ///< Query budget expired in strict-deadline mode.
  kCancelled,         ///< Caller cancelled the operation.
  kUnavailable,  ///< Overloaded: admission control rejected the request;
                 ///< safe to retry later or against another replica.
};

/// Lightweight error-or-success result, modeled after Arrow/RocksDB style
/// status objects. Functions in the public API that can fail return a
/// Status (or a Result<T>) instead of throwing exceptions.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable representation, e.g. "InvalidArgument: bad budget".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// A process-wide OK status, for functions that return a reference to
/// one (Result::status()).
const Status& OkStatus();

/// Value-or-error wrapper. Either holds a T or a non-OK Status.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value is intentional: it lets functions
  /// `return value;` directly.
  Result(T value) : data_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : data_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(data_); }

  const Status& status() const {
    if (ok()) return OkStatus();
    return std::get<Status>(data_);
  }

  /// Access to the contained value. Must only be called when ok().
  const T& value() const& { return std::get<T>(data_); }
  T& value() & { return std::get<T>(data_); }
  T&& value() && { return std::move(std::get<T>(data_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> data_;
};

}  // namespace vaq

#endif  // VAQ_COMMON_STATUS_H_
