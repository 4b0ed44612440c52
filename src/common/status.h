#ifndef TRAJLDP_COMMON_STATUS_H_
#define TRAJLDP_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace trajldp {

/// Canonical error codes, modeled after the codes used by RocksDB/Arrow.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kInternal,
  kUnimplemented,
};

/// \brief Lightweight success-or-error result used across the library.
///
/// The library never throws; every fallible public operation returns a
/// Status (or a StatusOr<T>, see status_or.h). A default-constructed Status
/// is OK. Statuses are cheap to copy.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// Factory helpers for each canonical code.
  static Status Ok() { return Status(); }
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
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable "CODE: message" string, "OK" for success.
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Returns the canonical name of a status code ("OK", "InvalidArgument"...).
std::string_view StatusCodeName(StatusCode code);

/// Prints StatusCodeName(code), so that a failed check on a code names it.
std::ostream& operator<<(std::ostream& os, StatusCode code);

/// Propagates a non-OK status to the caller. Mirrors the RocksDB/Arrow
/// RETURN_NOT_OK idiom.
#define TRAJLDP_RETURN_NOT_OK(expr)          \
  do {                                       \
    ::trajldp::Status _st = (expr);          \
    if (!_st.ok()) return _st;               \
  } while (false)

}  // namespace trajldp

#endif  // TRAJLDP_COMMON_STATUS_H_
