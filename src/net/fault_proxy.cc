#include "net/fault_proxy.h"

#include <sys/socket.h>

#include <algorithm>
#include <utility>

#include "io/wire.h"
#include "net/connection_state.h"

namespace trajldp::net {

StatusOr<std::unique_ptr<FaultProxy>> FaultProxy::Start(
    std::string upstream_host, uint16_t upstream_port,
    std::vector<FaultPlan> plans) {
  ListenOptions listen;  // loopback, ephemeral port
  auto listener = TcpListen(listen);
  if (!listener.ok()) return listener.status();
  auto port = LocalPort(*listener);
  if (!port.ok()) return port.status();
  std::unique_ptr<FaultProxy> proxy(
      new FaultProxy(std::move(upstream_host), upstream_port,
                     std::move(plans), std::move(*listener), *port));
  proxy->accept_thread_ =
      std::thread([raw = proxy.get()] { raw->AcceptLoop(); });
  return proxy;
}

FaultProxy::FaultProxy(std::string upstream_host, uint16_t upstream_port,
                       std::vector<FaultPlan> plans, Socket listener,
                       uint16_t port)
    : upstream_host_(std::move(upstream_host)),
      upstream_port_(upstream_port),
      plans_(std::move(plans)),
      listener_(std::move(listener)),
      port_(port) {}

FaultProxy::~FaultProxy() { Shutdown(); }

void FaultProxy::Shutdown() {
  if (stopping_.exchange(true)) return;
  listener_.ShutdownBoth();
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    if (live_client_ != nullptr) live_client_->ShutdownBoth();
    if (live_upstream_ != nullptr) live_upstream_->ShutdownBoth();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
}

void FaultProxy::AcceptLoop() {
  for (size_t index = 0;; ++index) {
    auto accepted = Accept(listener_);
    if (!accepted.ok()) return;  // listener shut down (or died): stop
    if (stopping_.load(std::memory_order_relaxed)) return;
    connections_proxied_.fetch_add(1, std::memory_order_relaxed);
    const FaultPlan plan =
        index < plans_.size() ? plans_[index] : FaultPlan{};
    ProxyConnection(std::move(*accepted), plan);
  }
}

void FaultProxy::ProxyConnection(Socket client_socket, const FaultPlan& plan) {
  auto upstream = TcpConnect(upstream_host_, upstream_port_);
  if (!upstream.ok()) {
    client_socket.ShutdownBoth();
    return;  // upstream down: the client sees its connection die
  }
  // Client frames are read with the server's own reassembler. The
  // socket stays blocking, so PumpRead yields a frame or the clean end.
  ConnectionState reader(std::move(client_socket));
  Socket& client = reader.socket();
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    live_client_ = &client;
    live_upstream_ = &*upstream;
  }

  // Reverse relay: stream the server's bytes (acks) to the client
  // verbatim. When the upstream dies or finishes, the whole proxied
  // connection is over — shut BOTH sockets so the client (possibly
  // blocked reading an ack) and the forward loop below both unblock,
  // exactly as if the server itself had vanished.
  std::thread reverse([&client, &upstream] {
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::recv(upstream->fd(), buffer, sizeof(buffer), 0);
      if (n <= 0) break;
      if (!SendAll(client, std::string_view(buffer,
                                            static_cast<size_t>(n)))
               .ok()) {
        break;
      }
    }
    upstream->ShutdownBoth();
    client.ShutdownBoth();
  });

  // Forward pump: parse data frames off the client, apply the plan,
  // forward.
  const auto abort_both = [&] {
    client.ShutdownBoth();
    upstream->ShutdownBoth();
  };
  for (size_t index = 0;; ++index) {
    auto event = reader.PumpRead();
    if (!event.ok()) {
      // Client vanished mid-frame (or the reverse relay shut us down):
      // kill what remains and move on.
      abort_both();
      break;
    }
    if (*event != ConnectionState::ReadEvent::kFrameReady) {
      // Clean client FIN: propagate it upstream but keep reading acks —
      // the server still owes the client the tail of its ack stream.
      upstream->ShutdownWrite();
      break;
    }
    std::string frame = reader.TakeFrame();
    if (plan.stall_before_frame == index) {
      faults_injected_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(plan.stall_for);
    }
    if (plan.cut_after_frames == index) {
      faults_injected_.fetch_add(1, std::memory_order_relaxed);
      const size_t partial = std::min(plan.cut_extra_bytes, frame.size());
      if (partial > 0) {
        (void)SendAll(*upstream, std::string_view(frame).substr(0, partial));
      }
      abort_both();
      break;
    }
    if (plan.drop_frame == index) {
      faults_injected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (plan.corrupt_frame == index) {
      faults_injected_.fetch_add(1, std::memory_order_relaxed);
      // Flip a payload byte (or the CRC itself for an empty payload):
      // either way the server's CRC gate must reject the frame.
      const size_t target = frame.size() > io::kWireHeaderBytes +
                                               io::kWireTrailerBytes
                                ? io::kWireHeaderBytes
                                : frame.size() - 1;
      frame[target] = static_cast<char>(frame[target] ^ 0x01);
    }
    if (!SendAll(*upstream, frame).ok()) {
      abort_both();
      break;
    }
    if (plan.duplicate_frame == index) {
      faults_injected_.fetch_add(1, std::memory_order_relaxed);
      if (!SendAll(*upstream, frame).ok()) {
        abort_both();
        break;
      }
    }
  }
  reverse.join();
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    live_client_ = nullptr;
    live_upstream_ = nullptr;
  }
}

}  // namespace trajldp::net
