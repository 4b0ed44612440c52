#include "net/connection_state.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace trajldp::net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

StatusOr<ConnectionState::ReadEvent> ConnectionState::PumpRead() {
  while (!assembler_.ready()) {
    const ssize_t n =
        ::recv(socket_.fd(), assembler_.next(), assembler_.wanted(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return ReadEvent::kWouldBlock;
      }
      return Errno("recv");
    }
    if (n == 0) {
      TRAJLDP_RETURN_NOT_OK(assembler_.AtEnd());
      return ReadEvent::kPeerClosed;
    }
    bytes_read_ += static_cast<uint64_t>(n);
    TRAJLDP_RETURN_NOT_OK(assembler_.Advance(static_cast<size_t>(n)));
  }
  return ReadEvent::kFrameReady;
}

std::string ConnectionState::TakeFrame() { return assembler_.Take(); }

void ConnectionState::QueueWrite(std::string_view bytes) {
  if (out_pos_ == out_.size()) {
    out_.clear();
    out_pos_ = 0;
  }
  out_.append(bytes);
}

StatusOr<bool> ConnectionState::PumpWrite() {
  while (out_pos_ < out_.size()) {
    const ssize_t n = ::send(socket_.fd(), out_.data() + out_pos_,
                             out_.size() - out_pos_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      return Errno("send");
    }
    out_pos_ += static_cast<size_t>(n);
    bytes_written_ += static_cast<uint64_t>(n);
  }
  out_.clear();
  out_pos_ = 0;
  return true;
}

}  // namespace trajldp::net
