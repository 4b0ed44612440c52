#ifndef TRAJLDP_NET_SOCKET_H_
#define TRAJLDP_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status_or.h"

namespace trajldp::net {

/// \brief Thin RAII layer over POSIX TCP sockets — the transport floor
/// of the networked ingest path (docs/NETWORK.md).
///
/// Everything here returns Status instead of raising or crashing:
/// resolution failures, refused connections, peers vanishing mid-frame —
/// all are ordinary outcomes for a collector that must outlive its
/// flakiest device. Nothing in this header knows about wire frames;
/// framing lives one layer up (net/connection_state.h).

/// Move-only owner of one socket file descriptor. Closes on destruction.
class Socket {
 public:
  Socket() = default;
  /// Takes ownership of `fd` (-1 means "no socket").
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Closes the descriptor. Idempotent.
  void Close();

  /// shutdown(SHUT_RDWR): wakes any thread blocked in recv/send on this
  /// socket (they see EOF / an error) WITHOUT invalidating the fd, so it
  /// is the safe cross-thread unblock — Close() from another thread
  /// races fd reuse; this does not. The owner still calls Close() (or
  /// destructs) afterwards.
  void ShutdownBoth() const;

  /// shutdown(SHUT_WR): sends FIN but keeps the read side open — how a
  /// client (or proxy) says "no more frames" while still draining the
  /// acks the server owes it.
  void ShutdownWrite() const;

 private:
  int fd_ = -1;
};

struct ListenOptions {
  /// Interface to bind. The default keeps the collector loopback-only;
  /// a real deployment binds "0.0.0.0" behind its own transport auth.
  std::string host = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port — read it back with
  /// LocalPort. This is what makes parallel test/harness servers safe.
  uint16_t port = 0;
  int backlog = 64;
};

/// Creates a listening TCP socket (SO_REUSEADDR set, so harness restarts
/// do not trip over TIME_WAIT).
StatusOr<Socket> TcpListen(const ListenOptions& options);

/// The port a listener actually bound — resolves port 0.
StatusOr<uint16_t> LocalPort(const Socket& listener);

/// Blocks until a connection arrives. Transient per-connection aborts
/// (ECONNABORTED) are retried internally; fd/memory pressure surfaces
/// as ResourceExhausted (retryable). A listener shut down from another
/// thread (ShutdownBoth) surfaces as FailedPrecondition — the accept
/// loop's clean exit signal. NOTE: waking a blocked accept() via
/// shutdown() on the listener is Linux semantics (the only platform
/// this library targets; BSDs return ENOTCONN and leave accept()
/// blocked — a self-pipe wakeup would be needed there).
StatusOr<Socket> Accept(const Socket& listener);

/// Non-blocking accept for readiness loops: returns a connection when
/// one is queued, or sets `*would_block` (and returns an invalid
/// Socket) when the backlog is empty. Errno classification matches
/// Accept: transient per-connection aborts are retried inline,
/// fd/memory pressure is ResourceExhausted (the reactor backs off and
/// re-arms instead of spinning hot), anything else FailedPrecondition.
/// The accepted socket is created non-blocking (accept4).
StatusOr<Socket> AcceptNonBlocking(const Socket& listener, bool* would_block);

/// Puts `fd` in non-blocking mode (O_NONBLOCK via fcntl).
Status SetNonBlocking(int fd);

/// Connects to host:port (numeric addresses or names, via getaddrinfo).
StatusOr<Socket> TcpConnect(const std::string& host, uint16_t port);

/// Sends every byte of `data` (loops over partial sends; SIGPIPE is
/// suppressed — a vanished peer is a Status, not a signal).
Status SendAll(const Socket& socket, std::string_view data);

/// Receives exactly `size` bytes into `out`. EOF anywhere — even before
/// the first byte — is a truncation error.
Status RecvExact(const Socket& socket, char* out, size_t size);

/// True when the peer has closed its end (a non-blocking MSG_PEEK sees
/// EOF). Lets a client detect a dead connection BEFORE writing a frame
/// into it — bytes written after the peer's FIN vanish silently.
bool PeerClosed(const Socket& socket);

}  // namespace trajldp::net

#endif  // TRAJLDP_NET_SOCKET_H_
