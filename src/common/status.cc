#include "common/status.h"

namespace trajldp {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeName(code_));
  out += ": ";
  out += message_;
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

std::ostream& operator<<(std::ostream& os, StatusCode code) {
  return os << StatusCodeName(code);
}

}  // namespace trajldp
