#ifndef TRAJLDP_NET_INGEST_SERVER_H_
#define TRAJLDP_NET_INGEST_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/event_fds.h"
#include "common/status_or.h"
#include "core/streaming_collector.h"
#include "io/journal.h"
#include "net/connection_state.h"
#include "net/reactor.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace trajldp::net {

/// \brief Tracks, per stream, the highest sequence number through which
/// EVERY frame has been made durable downstream — the "released
/// watermark" that licenses journal compaction.
///
/// The collector's Config::on_frame_processed callback reports frames
/// in completion order, which is NOT stream order (workers race), but
/// compaction may only drop a journal record when everything at or
/// below it is durable. This class turns the racy completion feed into
/// the contiguous floor compaction needs: Note(stream, seq) parks
/// out-of-order completions and advances the floor only across an
/// unbroken run. Thread-safe; designed to be wired directly as
/// `on_frame_processed` and read by IngestServer's compact_watermarks.
class ReleaseWatermarks {
 public:
  /// Records that (stream_id, seq) is durable downstream.
  void Note(uint64_t stream_id, uint64_t seq);

  /// The current contiguous floor per stream — safe watermarks for
  /// io::FrameJournal::Compact.
  std::unordered_map<uint64_t, uint64_t> Snapshot() const;

 private:
  struct StreamState {
    uint64_t floor = 0;           // all seq <= floor are durable
    std::set<uint64_t> pending;   // completions above a gap
  };
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, StreamState> streams_;
};

/// \brief The socket front-end of a collector shard: an epoll readiness
/// reactor that accepts concurrent device connections, reassembles TLWB
/// frames off each, and feeds them — still encoded — into a
/// core::StreamingCollector.
///
/// ### Event-driven, not thread-per-connection
///
/// Connections are distributed round-robin across N reactor threads
/// (Options::reactor_threads), each running one epoll loop. A
/// connection lives on exactly one reactor and all of its state
/// (ConnectionState reassembly buffers, held frame, pending acks) is
/// touched only from that loop — so a million idle devices cost a
/// million fds and reassembly buffers, not a million stacks. The only
/// cross-thread state is the journal + sequence map (one mutex, held
/// for appends and lookups only) and the stats counters.
///
/// ### Backpressure, end to end
///
/// A connection holds at most ONE assembled frame. When the collector's
/// bounded queue is full (reconstruction is the slow stage), the
/// non-blocking push bounces and the reactor PAUSES the connection:
/// EPOLLIN interest is dropped, the held frame is parked, and a
/// per-reactor retry timer re-attempts the push every push_retry. The
/// kernel receive buffer fills, TCP advertises a zero window, and the
/// devices' send() calls block. Slow reconstruction therefore
/// propagates to the network as flow control, exactly as in the
/// thread-per-connection design — memory in flight stays bounded by
/// queue capacity + one frame per connection + kernel socket buffers.
///
/// ### Per-connection error isolation
///
/// A malformed or hostile connection — garbage where a header should
/// be, an over-limit declared length, a truncating disconnect, a CRC
/// mismatch, a batch claiming users outside this shard
/// (expected_range), a sequence gap — fails THAT connection with a
/// clean Status, recorded in stats()/first_connection_error(). Other
/// connections and the collector itself are untouched; the server keeps
/// accepting. Fd exhaustion at accept time (EMFILE & co.) deregisters
/// the listener and re-arms it after a backoff interval, so pressure
/// never becomes a hot spin or a permanently deaf server.
///
/// ### Exactly-once ordering (unchanged from the threaded design)
///
/// Per connection, each frame runs: CRC check → duplicate drop (seq at
/// or below the stream high-water mark → drop + re-ack hwm) → gap check
/// → shard-range check → journal append (BEFORE anything downstream) →
/// collector push → hwm advance → ack. Acks ride the reactor's write
/// path (EPOLLOUT when the socket's buffer is full). Replay at Start()
/// still runs to completion before the listener exists.
///
/// ### Journal maintenance
///
/// Every fsync happens inside an append, as the journal's SyncPolicy
/// decides (docs/DURABILITY.md §Fsync policies), and each one is timed
/// into `trajldp_journal_sync_seconds`. Size-triggered compaction
/// (journal_compact_threshold_bytes + compact_watermarks) rewrites the
/// journal down to its live suffix — see docs/DURABILITY.md §Compaction.
///
/// ### Shutdown protocol
///
/// Shutdown() (also run by the destructor) stops the reactors, closes
/// every connection, and returns. It does NOT Finish() the collector —
/// the owner decides when the stream ends, typically: wait for the
/// expected reports_released() count, Shutdown() the server, then
/// Finish() the collector and check its Status.
class IngestServer {
 public:
  struct Options {
    /// Bind address; loopback by default (see ListenOptions::host).
    std::string host = "127.0.0.1";
    /// 0 → ephemeral; the bound port is available from port().
    uint16_t port = 0;
    int backlog = 64;
    /// Reactor (epoll loop) threads; 0 → one per hardware thread.
    size_t reactor_threads = 0;
    /// When set, a frame that carries the wire user-range field must
    /// declare a range contained in this [min, max) shard interval
    /// (core::ShardPlan::RangeOf) or its connection fails — shard
    /// membership validated without decoding a single report. Frames
    /// without the field skip the check (it is an optimisation, not an
    /// authentication boundary).
    std::optional<std::pair<uint64_t, uint64_t>> expected_range;
    /// Backpressure retry cadence: how often a reactor re-attempts the
    /// collector push for its paused connections, and the listener
    /// re-arm delay after fd-exhaustion backoff. Latency ceiling on
    /// those recoveries, not a throughput knob.
    std::chrono::milliseconds push_retry{50};
    /// Non-empty → exactly-once mode: every validated data frame is
    /// appended to this io::FrameJournal BEFORE it is acked, and Start()
    /// first recovers the journal and replays its frames through the
    /// normal PushEncoded path (rebuilding each stream's sequence
    /// high-water mark), so a restarted server resumes acking where the
    /// dead one stopped. Pair a journaled server with a collector
    /// running Config::dedup_user_ids — replayed frames and client
    /// re-uploads on fresh streams are deduplicated per user id, which
    /// is what makes a restart bit-identical to an uninterrupted run
    /// (docs/DURABILITY.md).
    std::string journal_path;
    /// Fsync policy etc. for the journal (ignored without journal_path).
    io::FrameJournal::Options journal_options;
    /// > 0 → compact the journal whenever its valid extent grows past
    /// this many bytes beyond the last compaction. Requires
    /// compact_watermarks; ignored without journal_path.
    uint64_t journal_compact_threshold_bytes = 0;
    /// Supplies the per-stream released watermarks (typically
    /// ReleaseWatermarks::Snapshot) that bound what compaction may
    /// drop. A record is only dropped when its seq is at or below its
    /// stream's watermark — the caller asserts everything through the
    /// watermark is DURABLE DOWNSTREAM (released AND persisted), since
    /// the journal is the only recovery source for acked frames.
    std::function<std::unordered_map<uint64_t, uint64_t>()>
        compact_watermarks;
    /// Metrics registry every trajldp_ingest_* / trajldp_journal_* /
    /// trajldp_reactor_* series registers into. Null → the server uses
    /// the fed collector's registry, so one scrape covers the whole
    /// shard pipeline. An external registry must outlive the server,
    /// and any concurrent scraper (obs::AdminServer) must be shut down
    /// BEFORE the server is destroyed — the server removes its
    /// collection hook in its destructor.
    obs::Registry* metrics = nullptr;
    /// Labels stamped on every series this server registers (e.g.
    /// {{"shard", "3"}}). Use distinct labels when several servers
    /// share one registry, or their counters alias.
    obs::Labels metric_labels;
  };

  /// Monotonic counters, readable at any time.
  struct Stats {
    size_t connections_accepted = 0;
    /// Connections fully torn down, cleanly or not — every frame such a
    /// connection carried is at least in the collector's queue, so
    /// `connections_closed == expected clients` followed by Finish() is
    /// the harness's drain barrier.
    size_t connections_closed = 0;
    size_t connections_failed = 0;
    size_t frames_ingested = 0;
    /// Transient accept() failures (fd/memory pressure) the listener
    /// backed off from and recovered — informational, never fatal.
    size_t accept_backoffs = 0;
    /// Exactly-once counter trio (docs/DURABILITY.md §Observability).
    size_t frames_journaled = 0;  ///< appended this run (excl. recovered)
    size_t frames_replayed = 0;   ///< recovered frames re-pushed at Start
    /// Sequenced frames dropped at the server because their seq was at
    /// or below the stream's high-water mark — resent duplicates the
    /// dedup layer absorbed before they could reach the collector.
    size_t duplicate_frames_dropped = 0;
    /// Reports the collector's user-id dedup skipped
    /// (StreamingCollector::duplicates_dropped — replay + re-upload
    /// overlap), surfaced here so one Stats read tells the whole
    /// exactly-once story.
    size_t duplicate_reports_dropped = 0;
    /// Backpressure observability: the collector ingest queue's current
    /// depth and all-time high-water mark (BoundedQueue). A high-water
    /// mark pinned at the queue capacity means ingest was limited by
    /// reconstruction throughput, not the network.
    size_t queue_depth = 0;
    size_t queue_high_water = 0;
    /// Journal bytes appended but not yet fsynced (0 without a journal,
    /// and always 0 under kEveryRecord; under kEveryBytes at most the
    /// sync_every_bytes threshold).
    uint64_t journal_unsynced_bytes = 0;
    /// Completed journal compactions this run.
    size_t journal_compactions = 0;
  };

  /// Binds host:port, starts the reactors, returns a running server.
  /// `collector` must outlive the server and must not be Finish()ed
  /// while the server is running.
  static StatusOr<std::unique_ptr<IngestServer>> Start(
      core::StreamingCollector* collector, Options options);

  /// Runs Shutdown().
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// The port actually bound (resolves Options::port == 0).
  uint16_t port() const { return port_; }

  /// Graceful stop; idempotent; safe from any thread except a sink or
  /// worker callback of the fed collector, and except a reactor thread.
  void Shutdown();

  /// Adapter over the registry-backed counters (plus collector and
  /// journal state) — the pre-telemetry Stats shape, unchanged, so
  /// existing harnesses and tests keep reading one struct.
  Stats stats() const;

  /// The registry this server's series live in (Options::metrics, or
  /// the collector's when that was null). Hand it to obs::AdminServer
  /// to serve /metrics, or snapshot it directly.
  obs::Registry* metrics() const { return registry_; }

  /// The first connection failure, Ok when every connection so far
  /// ended cleanly. Connection errors never take the server down; this
  /// is how tests and operators observe them.
  Status first_connection_error() const;

 private:
  IngestServer(core::StreamingCollector* collector, Options options,
               Socket listener, uint16_t port);

  /// One connection, owned by exactly one reactor. Everything here is
  /// loop-thread-only (or post-join in Shutdown).
  struct Conn {
    explicit Conn(Socket socket) : state(std::move(socket)) {}
    ConnectionState state;
    size_t reactor = 0;
    /// Backpressure: EPOLLIN interest dropped, one frame parked. A
    /// parked frame was journaled before its first push; the retry must
    /// never append it again.
    bool paused = false;
    std::string held_frame;
    uint64_t held_stream = 0;
    uint64_t held_seq = 0;
    /// Clean FIN seen; the conn lingers only to flush pending acks.
    bool read_done = false;
  };

  /// Per-reactor state. The loop thread owns everything but `reactor`'s
  /// control surface; Shutdown touches the rest only after the join.
  struct ReactorState {
    Reactor reactor;
    TimerFd retry_timer;
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
    std::vector<int> blocked;  // fds paused on backpressure
    bool retry_armed = false;
  };

  /// Registers every counter/histogram and the journal-state collection
  /// hook. Runs in the constructor, before any reactor thread exists.
  void RegisterMetrics();
  Status StartReactors();
  /// Opens Options::journal_path, replays every recovered frame through
  /// the collector, and rebuilds stream_hwm_. Runs in Start() before
  /// the reactors exist, so replay never races live ingest. Marker
  /// records (empty payload, written by compaction) rebuild hwm only.
  Status OpenJournalAndReplay();

  // --- reactor-thread handlers -------------------------------------
  void OnAccept();
  void OnAcceptBackoffTimer();
  void AdoptConn(size_t reactor_index, Socket socket);
  void OnConnEvent(size_t reactor_index, int fd, uint32_t events);
  void OnRetryTimer(size_t reactor_index);

  /// The exactly-once frame pipeline: CRC → dup → gap → range →
  /// journal → push → hwm → ack. Pauses the connection instead of
  /// blocking when the collector queue is full.
  Status HandleFrame(ReactorState& rs, Conn* conn, std::string frame);
  /// Non-blocking push + post-push bookkeeping (hwm, ack); pauses the
  /// conn when the queue is full.
  Status TryPushAndAck(ReactorState& rs, Conn* conn, std::string frame,
                       uint64_t stream_id, uint64_t seq);
  Status QueueAck(ReactorState& rs, Conn* conn, uint64_t ack_seq);
  /// Appends under journal_mu_, times the fsync the append caused (if
  /// any), then runs the size-triggered compaction as needed.
  Status JournalAppend(uint64_t stream_id, uint64_t seq,
                       std::string_view frame);

  void FailConn(ReactorState& rs, Conn* conn, Status status);
  void CloseConn(ReactorState& rs, Conn* conn);
  uint32_t InterestOf(const Conn& conn) const;

  void RecordConnectionError(Status status);

  core::StreamingCollector* const collector_;
  const Options options_;
  Socket listener_;
  const uint16_t port_;
  const size_t num_reactors_;

  std::atomic<bool> stopping_{false};

  /// Registry-backed counters (striped atomics inside obs::Counter —
  /// the direct replacements for the former std::atomic<size_t> stats
  /// fields). Registered once in RegisterMetrics; pointers are stable
  /// for the registry's lifetime.
  obs::Registry* registry_ = nullptr;
  obs::Counter* connections_accepted_ = nullptr;
  obs::Counter* connections_closed_ = nullptr;
  obs::Counter* connections_failed_ = nullptr;
  obs::Counter* frames_ingested_ = nullptr;
  obs::Counter* accept_backoffs_ = nullptr;
  obs::Counter* frames_journaled_ = nullptr;
  obs::Counter* frames_replayed_ = nullptr;
  obs::Counter* duplicate_frames_dropped_ = nullptr;
  /// Lifetime wire bytes, folded in from each ConnectionState's plain
  /// counters when its connection closes (cheaper than a counter op
  /// per recv/send on the hot path).
  obs::Counter* bytes_read_ = nullptr;
  obs::Counter* bytes_written_ = nullptr;
  obs::Histogram* journal_append_seconds_ = nullptr;
  obs::Histogram* journal_sync_seconds_ = nullptr;
  /// Journal-state gauges are exported by a collection hook (reads
  /// journal_ under journal_mu_ at scrape time); removed in ~IngestServer.
  std::size_t hook_id_ = 0;

  /// Guards journal_, stream_hwm_, compact_next_trigger_
  /// across reactor threads. Held around appends / map lookups /
  /// maintenance — never across a collector push.
  mutable std::mutex journal_mu_;
  std::optional<io::FrameJournal> journal_;
  /// Per-stream highest contiguously ingested sequence (the ack value).
  std::unordered_map<uint64_t, uint64_t> stream_hwm_;
  /// Next valid_bytes() level that triggers a compaction (thrash guard:
  /// re-based after every run).
  uint64_t compact_next_trigger_ = 0;

  mutable std::mutex error_mu_;
  Status first_connection_error_;

  std::mutex shutdown_mu_;
  bool shutdown_ran_ = false;

  /// Round-robin target for the next accepted connection (accept runs
  /// only on reactor 0, so plain, not atomic… but atomic is free and
  /// keeps TSan quiet if accept ever moves).
  std::atomic<size_t> next_reactor_{0};

  /// Reactor 0 extra: listener backoff.
  TimerFd accept_backoff_timer_;

  std::vector<std::unique_ptr<ReactorState>> reactors_;
};

}  // namespace trajldp::net

#endif  // TRAJLDP_NET_INGEST_SERVER_H_
