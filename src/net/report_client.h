#ifndef TRAJLDP_NET_REPORT_CLIENT_H_
#define TRAJLDP_NET_REPORT_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "common/status.h"
#include "io/wire.h"
#include "net/socket.h"

namespace trajldp::net {

/// \brief The device side of the networked ingest path: streams wire
/// report batches to one IngestServer endpoint, reconnecting and
/// retrying around transient failures.
///
/// ### Delivery semantics
///
/// Two modes (docs/NETWORK.md §Delivery semantics):
///
/// * **Raw (default)** — retries cover every failure the client can
///   OBSERVE: a refused or dropped connection, a failed send, a peer FIN
///   probed (PeerClosed) before the next frame. What TCP cannot promise,
///   this mode does not either: a send() "succeeds" once bytes reach the
///   kernel buffer, so a server that dies before reading them loses
///   frames with no error here, and a retry after a consumed frame
///   duplicates it. The backstop is downstream and loud —
///   MergeShardReleases hard-fails on a missing OR duplicated user.
///
/// * **Sequenced (Options::enable_sequencing)** — exactly-once against
///   an acking, journaling IngestServer. Every SendBatch frame carries a
///   (stream_id, seq) identity; the client keeps the unacked suffix in
///   an in-flight window and, after any reconnect, resends ONLY frames
///   beyond the last ack. The server journals before acking and drops
///   (seq ≤ high-water) duplicates, so a frame it already consumed is
///   never double-ingested and a frame it never durably saw is always
///   retried. Flush() is the delivery barrier: it returns Ok only once
///   every sent frame has been acked durable. Close() does NOT flush.
///
/// Reconnect backoff uses decorrelated jitter — sleep_k drawn uniformly
/// from [base, 3·sleep_{k−1}], capped — and every client seeds its
/// jitter from std::random_device, so a fleet of devices redialing a
/// restarted collector spreads out instead of thundering-herding. Sleep
/// times need no reproducibility: no release depends on them.
class ReportClient {
 public:
  struct Options {
    /// Total connect+send (or pump) attempts per call before giving up.
    size_t max_attempts = 4;
    /// Decorrelated-jitter backoff: the sleep before retry k is drawn
    /// uniformly from [initial_backoff, 3 × previous sleep], capped at
    /// max_backoff. Always within [initial_backoff, max_backoff].
    std::chrono::milliseconds initial_backoff{25};
    std::chrono::milliseconds max_backoff{3000};
    /// Sequenced mode: stamp every SendBatch frame with (stream_id,
    /// consecutive seq starting at 1) and run the in-flight window /
    /// ack protocol. Requires an acking server (IngestServer acks every
    /// sequenced frame) — against a mute server, sends stall on the ack
    /// read and fail once attempts are exhausted.
    bool enable_sequencing = false;
    /// Identifies this client's stream to the server's dedup map. Must
    /// be unique among clients sharing a server within one run.
    uint64_t stream_id = 0;
    /// Max unacked frames in flight before SendBatch blocks draining
    /// acks. Bounds client memory; Flush() drains to zero regardless.
    size_t window = 32;
  };

  /// Connects lazily on the first send.
  ReportClient(std::string host, uint16_t port);
  ReportClient(std::string host, uint16_t port, Options options);

  ReportClient(const ReportClient&) = delete;
  ReportClient& operator=(const ReportClient&) = delete;

  /// Encodes `batch` with the batch user-range field, so a
  /// range-validating shard server can route or reject it cheaply, and
  /// sends it as one frame. In sequenced mode the frame enters the
  /// in-flight window and may be acked only later — call Flush() for the
  /// delivery barrier.
  Status SendBatch(std::span<const io::WireReport> batch);

  /// Sends one already-encoded frame, reconnecting/retrying per
  /// Options. Raw-mode only (frames here carry no sequence): in
  /// sequenced mode prefer SendBatch, which stamps the identity.
  Status SendFrame(std::string_view frame);

  /// Sequenced mode: blocks until every in-flight frame is acked,
  /// resending across reconnects as needed. The exactly-once contract
  /// holds only for frames a Flush() has confirmed. No-op (Ok) in raw
  /// mode or with an empty window.
  Status Flush();

  /// Closes the connection (the server sees a clean end of stream —
  /// its frame reader observes FIN on a frame boundary). Idempotent;
  /// a later send reconnects. Does NOT flush: unacked frames stay in
  /// the window and are resent by the next send/Flush.
  void Close();

  /// The next sleep in a decorrelated-jitter schedule: drawn uniformly
  /// from [base, max(base, 3 × previous)], then capped at `cap`. The
  /// result is always within [base, cap]. Exposed so tests can pin the
  /// bounds without timing real sleeps.
  static std::chrono::milliseconds DecorrelatedBackoff(
      std::chrono::milliseconds previous, std::chrono::milliseconds base,
      std::chrono::milliseconds cap, Rng& rng);

  size_t frames_sent() const { return frames_sent_; }
  /// Connections established beyond the first — how often the retry
  /// path actually ran.
  size_t reconnects() const { return reconnects_; }
  /// Sequenced mode: frames transmitted again after their first send
  /// (duplicates on the wire; the server's seq dedup absorbs them).
  size_t frames_resent() const { return frames_resent_; }
  size_t acks_received() const { return acks_received_; }
  /// Highest sequence the server has confirmed durable (0 = none yet).
  uint64_t last_ack() const { return last_ack_; }
  /// Backoff sleeps actually taken (attempt > 0 across SendFrame/Pump)
  /// and their summed duration — how much wall clock this client spent
  /// waiting out a flaky or restarting server.
  size_t backoff_sleeps() const { return backoff_sleeps_; }
  uint64_t backoff_sleep_total_ms() const { return backoff_sleep_total_ms_; }
  /// TcpConnect attempts that failed (refused/unreachable). Distinct
  /// from reconnects(), which counts connections that SUCCEEDED beyond
  /// the first.
  size_t connect_failures() const { return connect_failures_; }

 private:
  struct InFlight {
    uint64_t seq = 0;
    std::string frame;
    bool transmitted_once = false;
  };

  Status EnsureConnected();
  /// One attempt: connect, transmit the untransmitted window suffix,
  /// then drain acks until at most `target` frames remain in flight.
  Status PumpOnce(size_t target);
  /// PumpOnce under the retry/backoff loop.
  Status Pump(size_t target);
  /// Records one taken backoff sleep.
  void CountBackoffSleep(std::chrono::milliseconds sleep);

  const std::string host_;
  const uint16_t port_;
  const Options options_;
  Socket socket_;
  Rng backoff_rng_;
  bool ever_connected_ = false;
  size_t frames_sent_ = 0;
  size_t reconnects_ = 0;
  size_t backoff_sleeps_ = 0;
  uint64_t backoff_sleep_total_ms_ = 0;
  size_t connect_failures_ = 0;

  // Sequenced-mode state.
  std::deque<InFlight> window_;
  uint64_t next_seq_ = 1;
  uint64_t last_ack_ = 0;
  /// How many window_ fronts have been transmitted on the CURRENT
  /// connection; reset on every reconnect so the suffix is resent.
  size_t transmitted_ = 0;
  size_t frames_resent_ = 0;
  size_t acks_received_ = 0;
};

}  // namespace trajldp::net

#endif  // TRAJLDP_NET_REPORT_CLIENT_H_
