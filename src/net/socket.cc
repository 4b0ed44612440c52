#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace trajldp::net {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::ShutdownWrite() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

StatusOr<Socket> TcpListen(const ListenOptions& options) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* resolved = nullptr;
  const std::string port_str = std::to_string(options.port);
  if (int rc = ::getaddrinfo(options.host.c_str(), port_str.c_str(), &hints,
                             &resolved);
      rc != 0) {
    return Status::InvalidArgument("cannot resolve listen address " +
                                   options.host + ": " + gai_strerror(rc));
  }
  Socket sock(::socket(resolved->ai_family, resolved->ai_socktype,
                       resolved->ai_protocol));
  if (!sock.valid()) {
    ::freeaddrinfo(resolved);
    return Status::Internal(Errno("socket"));
  }
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const int bound =
      ::bind(sock.fd(), resolved->ai_addr, resolved->ai_addrlen);
  ::freeaddrinfo(resolved);
  if (bound != 0) {
    return Status::Internal(
        Errno("bind " + options.host + ":" + port_str));
  }
  if (::listen(sock.fd(), options.backlog) != 0) {
    return Status::Internal(Errno("listen"));
  }
  return sock;
}

StatusOr<uint16_t> LocalPort(const Socket& listener) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listener.fd(), reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    return Status::Internal(Errno("getsockname"));
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

StatusOr<Socket> Accept(const Socket& listener) {
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    // A client that connected and RST before we reaped the handshake is
    // its problem, not the listener's — keep accepting.
    if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
      continue;
    }
    // Fd/memory pressure starves accept but does not invalidate the
    // listener; report it as retryable so the accept loop can back off
    // instead of dying.
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      return Status::ResourceExhausted(Errno("accept"));
    }
    // EINVAL is what Linux returns once the listener was shut down from
    // another thread — the accept loop's normal exit.
    return Status::FailedPrecondition(Errno("accept"));
  }
}

StatusOr<Socket> AcceptNonBlocking(const Socket& listener,
                                   bool* would_block) {
  *would_block = false;
  for (;;) {
    const int fd =
        ::accept4(listener.fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) return Socket(fd);
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      *would_block = true;
      return Socket();
    }
    if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
      continue;
    }
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      return Status::ResourceExhausted(Errno("accept"));
    }
    return Status::FailedPrecondition(Errno("accept"));
  }
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Status::Internal(Errno("fcntl(F_GETFL)"));
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status::Internal(Errno("fcntl(F_SETFL, O_NONBLOCK)"));
  }
  return Status::Ok();
}

StatusOr<Socket> TcpConnect(const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const std::string port_str = std::to_string(port);
  if (int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints,
                             &resolved);
      rc != 0) {
    return Status::InvalidArgument("cannot resolve " + host + ": " +
                                   gai_strerror(rc));
  }
  Status last = Status::Internal("no addresses for " + host);
  for (const addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    Socket sock(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!sock.valid()) {
      last = Status::Internal(Errno("socket"));
      continue;
    }
    if (::connect(sock.fd(), ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(resolved);
      return sock;
    }
    last = Status::Internal(Errno("connect " + host + ":" + port_str));
  }
  ::freeaddrinfo(resolved);
  return last;
}

Status SendAll(const Socket& socket, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(socket.fd(), data.data() + sent,
                             data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("send"));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status RecvExact(const Socket& socket, char* out, size_t size) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(socket.fd(), out + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("recv"));
    }
    if (n == 0) {
      return Status::InvalidArgument(
          "connection truncated: peer closed after " + std::to_string(got) +
          " of " + std::to_string(size) + " expected byte(s)");
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

bool PeerClosed(const Socket& socket) {
  char probe;
  const ssize_t n =
      ::recv(socket.fd(), &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n == 0) return true;  // FIN already received
  if (n < 0) {
    // No data yet (EAGAIN) or an interrupted probe (EINTR) say nothing
    // about the peer — treating them as "closed" would tear down a
    // healthy connection on any stray signal. Only a real socket error
    // (ECONNRESET & co.) means the connection is gone.
    return errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR;
  }
  return false;  // readable data pending — peer alive
}

}  // namespace trajldp::net
