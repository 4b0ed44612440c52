#include "net/report_client.h"

#include <algorithm>
#include <random>
#include <thread>
#include <utility>

namespace trajldp::net {

ReportClient::ReportClient(std::string host, uint16_t port)
    : ReportClient(std::move(host), port, Options()) {}

ReportClient::ReportClient(std::string host, uint16_t port, Options options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      backoff_rng_(std::random_device{}()) {}

void ReportClient::CountBackoffSleep(std::chrono::milliseconds sleep) {
  ++backoff_sleeps_;
  backoff_sleep_total_ms_ += static_cast<uint64_t>(sleep.count());
}

std::chrono::milliseconds ReportClient::DecorrelatedBackoff(
    std::chrono::milliseconds previous, std::chrono::milliseconds base,
    std::chrono::milliseconds cap, Rng& rng) {
  const auto lo = static_cast<uint64_t>(std::max<int64_t>(base.count(), 0));
  const auto prev =
      static_cast<uint64_t>(std::max<int64_t>(previous.count(), 0));
  const uint64_t hi = std::max(lo, 3 * prev);
  const uint64_t span = hi - lo;
  const uint64_t draw =
      span == 0 ? lo : lo + rng.UniformUint64(span + 1);  // [lo, hi]
  return std::min(cap, std::chrono::milliseconds(
                           static_cast<int64_t>(draw)));
}

Status ReportClient::EnsureConnected() {
  if (socket_.valid()) {
    if (!PeerClosed(socket_)) return Status::Ok();
    socket_.Close();  // peer FIN between frames — reconnect below
    transmitted_ = 0;
  }
  auto connected = TcpConnect(host_, port_);
  if (!connected.ok()) {
    ++connect_failures_;
    return connected.status();
  }
  socket_ = std::move(*connected);
  transmitted_ = 0;  // a fresh connection has seen none of the window
  if (ever_connected_) ++reconnects_;
  ever_connected_ = true;
  return Status::Ok();
}

Status ReportClient::SendBatch(std::span<const io::WireReport> batch) {
  io::WireEncodeOptions encode;
  encode.include_user_range = true;
  if (options_.enable_sequencing) {
    encode.sequence =
        io::WireSequence{.stream_id = options_.stream_id, .seq = next_seq_};
  }
  auto frame = io::EncodeReportBatch(batch, encode);
  if (!frame.ok()) return frame.status();
  if (!options_.enable_sequencing) return SendFrame(*frame);
  window_.push_back(InFlight{.seq = next_seq_, .frame = *std::move(frame)});
  ++next_seq_;
  return Pump(/*target=*/options_.window);
}

Status ReportClient::SendFrame(std::string_view frame) {
  const size_t attempts = options_.max_attempts == 0 ? 1
                                                     : options_.max_attempts;
  std::chrono::milliseconds sleep = options_.initial_backoff;
  Status last;
  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      sleep = DecorrelatedBackoff(sleep, options_.initial_backoff,
                                  options_.max_backoff, backoff_rng_);
      CountBackoffSleep(sleep);
      std::this_thread::sleep_for(sleep);
    }
    last = EnsureConnected();
    if (!last.ok()) continue;
    last = SendAll(socket_, frame);
    if (last.ok()) {
      ++frames_sent_;
      return Status::Ok();
    }
    socket_.Close();  // stale connection; the next attempt redials
  }
  return Status(last.code(),
                "giving up after " + std::to_string(attempts) +
                    " attempt(s) to " + host_ + ":" +
                    std::to_string(port_) + ": " +
                    std::string(last.message()));
}

Status ReportClient::Flush() {
  if (!options_.enable_sequencing || window_.empty()) return Status::Ok();
  return Pump(/*target=*/0);
}

Status ReportClient::Pump(size_t target) {
  const size_t attempts = options_.max_attempts == 0 ? 1
                                                     : options_.max_attempts;
  std::chrono::milliseconds sleep = options_.initial_backoff;
  Status last;
  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      sleep = DecorrelatedBackoff(sleep, options_.initial_backoff,
                                  options_.max_backoff, backoff_rng_);
      CountBackoffSleep(sleep);
      std::this_thread::sleep_for(sleep);
    }
    last = PumpOnce(target);
    if (last.ok()) return Status::Ok();
    // Anything mid-pump — a failed send, a torn or missing ack — means
    // this connection is unusable. Drop it; the next attempt redials
    // and retransmits the unacked suffix (the server's seq dedup
    // absorbs any copy it already consumed).
    socket_.Close();
    transmitted_ = 0;
  }
  return Status(last.code(),
                "giving up after " + std::to_string(attempts) +
                    " attempt(s) to " + host_ + ":" +
                    std::to_string(port_) + " with " +
                    std::to_string(window_.size()) +
                    " frame(s) unacked: " + std::string(last.message()));
}

Status ReportClient::PumpOnce(size_t target) {
  TRAJLDP_RETURN_NOT_OK(EnsureConnected());
  // Transmit everything this connection has not yet carried. Frames
  // before `transmitted_` are already in flight on this connection and
  // must not be sent again on it.
  while (transmitted_ < window_.size()) {
    InFlight& f = window_[transmitted_];
    TRAJLDP_RETURN_NOT_OK(SendAll(socket_, f.frame));
    if (f.transmitted_once) {
      ++frames_resent_;
    } else {
      f.transmitted_once = true;
      ++frames_sent_;
    }
    ++transmitted_;
  }
  // Drain acks until the window is small enough. The server acks every
  // data frame (duplicates re-ack the high-water mark), so each blocking
  // read here is matched by an ack already sent or about to be — and a
  // FIN, even between acks, means the server vanished with the window
  // unacknowledged: reconnect and resend.
  std::string ack_frame(io::kAckFrameBytes, '\0');
  while (window_.size() > target) {
    TRAJLDP_RETURN_NOT_OK(
        RecvExact(socket_, ack_frame.data(), ack_frame.size()));
    auto ack = io::DecodeAckFrame(ack_frame);
    if (!ack.ok()) return ack.status();
    ++acks_received_;
    if (*ack > last_ack_) last_ack_ = *ack;
    while (!window_.empty() && window_.front().seq <= last_ack_) {
      window_.pop_front();
      if (transmitted_ > 0) --transmitted_;
    }
  }
  return Status::Ok();
}

void ReportClient::Close() { socket_.Close(); }

}  // namespace trajldp::net
