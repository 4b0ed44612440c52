#include "obs/admin_server.h"

#include <sys/epoll.h>
#include <sys/socket.h>

#include <cerrno>

#include "obs/exposition.h"

namespace trajldp::obs {

namespace {

// A scraper's request line plus headers comfortably fits; anything
// bigger is not a scrape.
constexpr size_t kMaxRequestBytes = 8192;

std::string HttpResponse(const std::string& status,
                         const std::string& content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.1 " + status + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

StatusOr<std::unique_ptr<AdminServer>> AdminServer::Start(
    const Registry* registry) {
  return Start(registry, Options());
}

StatusOr<std::unique_ptr<AdminServer>> AdminServer::Start(
    const Registry* registry, Options options) {
  if (registry == nullptr) {
    return Status::InvalidArgument("admin server needs a registry");
  }
  std::unique_ptr<AdminServer> server(new AdminServer());
  server->registry_ = registry;

  net::ListenOptions listen;
  listen.host = options.host;
  listen.port = options.port;
  listen.backlog = options.backlog;
  auto listener = net::TcpListen(listen);
  if (!listener.ok()) return listener.status();
  server->listener_ = std::move(listener).value();
  auto port = net::LocalPort(server->listener_);
  if (!port.ok()) return port.status();
  server->port_ = port.value();
  TRAJLDP_RETURN_NOT_OK(net::SetNonBlocking(server->listener_.fd()));

  TRAJLDP_RETURN_NOT_OK(server->reactor_.Start("admin"));
  AdminServer* raw = server.get();
  server->reactor_.Post([raw] {
    (void)raw->reactor_.Add(raw->listener_.fd(), EPOLLIN,
                            [raw](uint32_t) { raw->OnAccept(); });
  });
  return server;
}

AdminServer::~AdminServer() { Shutdown(); }

void AdminServer::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  reactor_.Stop();
  // Loop joined: conns_ and the listener are ours alone now.
  conns_.clear();
  listener_.Close();
}

void AdminServer::OnAccept() {
  for (;;) {
    bool would_block = false;
    auto accepted = net::AcceptNonBlocking(listener_, &would_block);
    if (!accepted.ok()) return;  // backlog drained next readiness round
    if (would_block) return;
    net::Socket socket = std::move(accepted).value();
    const int fd = socket.fd();
    auto conn = std::make_unique<Conn>();
    conn->socket = std::move(socket);
    conns_[fd] = std::move(conn);
    if (!reactor_
             .Add(fd, EPOLLIN,
                  [this, fd](uint32_t events) { OnConnEvent(fd, events); })
             .ok()) {
      conns_.erase(fd);
    }
  }
}

void AdminServer::OnConnEvent(int fd, uint32_t events) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;

  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseConn(fd);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    PumpWrite(fd, conn);
    return;
  }
  if ((events & EPOLLIN) == 0) return;

  char buffer[4096];
  bool peer_done = false;
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn.in.append(buffer, static_cast<size_t>(n));
      if (conn.in.size() > kMaxRequestBytes) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      CloseConn(fd);
      return;
    }
    // FIN: a client may half-close right after its request, so the
    // request read in this same wakeup still gets its answer.
    peer_done = true;
    break;
  }
  if (conn.responded) return;
  if (conn.in.size() > kMaxRequestBytes) {
    conn.out = HttpResponse("400 Bad Request", "text/plain",
                            "request too large\n");
    conn.responded = true;
  } else if (conn.in.find("\r\n\r\n") != std::string::npos) {
    RespondTo(conn);
  } else if (peer_done) {
    CloseConn(fd);  // closed before a full request: nothing to say
    return;
  } else {
    return;  // headers not complete yet
  }
  PumpWrite(fd, conn);
}

void AdminServer::RespondTo(Conn& conn) {
  conn.responded = true;
  const size_t line_end = conn.in.find("\r\n");
  const std::string line = conn.in.substr(0, line_end);
  const size_t method_end = line.find(' ');
  if (method_end == std::string::npos) {
    conn.out =
        HttpResponse("400 Bad Request", "text/plain", "malformed request\n");
    return;
  }
  const std::string method = line.substr(0, method_end);
  const size_t path_end = line.find(' ', method_end + 1);
  if (path_end == std::string::npos) {
    conn.out =
        HttpResponse("400 Bad Request", "text/plain", "malformed request\n");
    return;
  }
  const std::string path =
      line.substr(method_end + 1, path_end - method_end - 1);
  if (method != "GET") {
    conn.out = HttpResponse("405 Method Not Allowed", "text/plain",
                            "only GET is served here\n");
    return;
  }
  if (path == "/metrics") {
    conn.out = HttpResponse(
        "200 OK", "text/plain; version=0.0.4; charset=utf-8",
        RenderPrometheus(registry_->Snapshot()));
  } else if (path == "/statusz") {
    conn.out = HttpResponse("200 OK", "application/json",
                            RenderJson(registry_->Snapshot()));
  } else {
    conn.out = HttpResponse("404 Not Found", "text/plain",
                            "try /metrics or /statusz\n");
  }
}

void AdminServer::PumpWrite(int fd, Conn& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = ::send(fd, conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      (void)reactor_.Mod(fd, EPOLLOUT);
      return;
    }
    break;  // peer vanished mid-response
  }
  CloseConn(fd);
}

void AdminServer::CloseConn(int fd) {
  reactor_.Del(fd);
  conns_.erase(fd);
}

}  // namespace trajldp::obs
