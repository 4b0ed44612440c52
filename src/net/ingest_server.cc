#include "net/ingest_server.h"

#include <sys/epoll.h>

#include <algorithm>
#include <thread>

#include "io/wire.h"

namespace trajldp::net {

// ----------------------------------------------------- ReleaseWatermarks

void ReleaseWatermarks::Note(uint64_t stream_id, uint64_t seq) {
  if (seq == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  StreamState& state = streams_[stream_id];
  if (seq <= state.floor) return;  // replay overlap: already counted
  state.pending.insert(seq);
  // Advance the floor across the unbroken run now available. Out-of-
  // order completions park in `pending` until the gap below them fills.
  auto it = state.pending.begin();
  while (it != state.pending.end() && *it == state.floor + 1) {
    state.floor = *it;
    it = state.pending.erase(it);
  }
}

std::unordered_map<uint64_t, uint64_t> ReleaseWatermarks::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, uint64_t> out;
  out.reserve(streams_.size());
  for (const auto& [stream_id, state] : streams_) {
    if (state.floor > 0) out.emplace(stream_id, state.floor);
  }
  return out;
}

// ----------------------------------------------------------- IngestServer

StatusOr<std::unique_ptr<IngestServer>> IngestServer::Start(
    core::StreamingCollector* collector, Options options) {
  if (collector == nullptr) {
    return Status::InvalidArgument("IngestServer needs a collector");
  }
  if (options.journal_compact_threshold_bytes > 0 &&
      !options.compact_watermarks) {
    return Status::InvalidArgument(
        "journal compaction needs compact_watermarks: without released "
        "watermarks nothing bounds what a rewrite may drop");
  }
  ListenOptions listen;
  listen.host = options.host;
  listen.port = options.port;
  listen.backlog = options.backlog;
  auto listener = TcpListen(listen);
  if (!listener.ok()) return listener.status();
  auto port = LocalPort(*listener);
  if (!port.ok()) return port.status();

  std::unique_ptr<IngestServer> server(new IngestServer(
      collector, std::move(options), std::move(*listener), *port));
  // Recovery runs to completion BEFORE the first connection can be
  // accepted: replayed frames and live frames never interleave, and the
  // first ack any client sees already reflects the recovered high-water
  // mark.
  if (!server->options_.journal_path.empty()) {
    TRAJLDP_RETURN_NOT_OK(server->OpenJournalAndReplay());
  }
  TRAJLDP_RETURN_NOT_OK(server->StartReactors());
  return server;
}

IngestServer::IngestServer(core::StreamingCollector* collector,
                           Options options, Socket listener, uint16_t port)
    : collector_(collector),
      options_(std::move(options)),
      listener_(std::move(listener)),
      port_(port),
      num_reactors_(options_.reactor_threads > 0
                        ? options_.reactor_threads
                        : std::max<size_t>(
                              1, std::thread::hardware_concurrency())) {
  RegisterMetrics();
}

IngestServer::~IngestServer() {
  Shutdown();
  if (hook_id_ != 0) registry_->RemoveHook(hook_id_);
}

void IngestServer::RegisterMetrics() {
  registry_ = options_.metrics != nullptr ? options_.metrics
                                          : collector_->metrics();
  const obs::Labels& labels = options_.metric_labels;
  connections_accepted_ = registry_->GetCounter(
      "trajldp_ingest_connections_accepted_total",
      "Connections accepted by the ingest listener", labels);
  connections_closed_ = registry_->GetCounter(
      "trajldp_ingest_connections_closed_total",
      "Connections fully torn down, cleanly or not", labels);
  connections_failed_ = registry_->GetCounter(
      "trajldp_ingest_connections_failed_total",
      "Connections failed with an error on a live server", labels);
  frames_ingested_ = registry_->GetCounter(
      "trajldp_ingest_frames_total",
      "Frames accepted into the collector queue", labels);
  accept_backoffs_ = registry_->GetCounter(
      "trajldp_ingest_accept_backoffs_total",
      "Transient accept failures the listener backed off from", labels);
  duplicate_frames_dropped_ = registry_->GetCounter(
      "trajldp_ingest_duplicate_frames_total",
      "Sequenced frames dropped at or below the stream high-water mark",
      labels);
  bytes_read_ = registry_->GetCounter(
      "trajldp_ingest_bytes_read_total",
      "Wire bytes received across all ingest connections", labels);
  bytes_written_ = registry_->GetCounter(
      "trajldp_ingest_bytes_written_total",
      "Wire bytes (acks) sent across all ingest connections", labels);
  frames_journaled_ = registry_->GetCounter(
      "trajldp_journal_frames_appended_total",
      "Frames appended to the journal this run (excl. recovered)", labels);
  frames_replayed_ = registry_->GetCounter(
      "trajldp_journal_frames_replayed_total",
      "Recovered frames re-pushed through the collector at Start", labels);
  journal_append_seconds_ = registry_->GetHistogram(
      "trajldp_journal_append_seconds",
      "Latency of one journal append (excl. compaction)",
      obs::DefaultLatencyBounds(), labels);
  journal_sync_seconds_ = registry_->GetHistogram(
      "trajldp_journal_sync_seconds", "Latency of one journal fsync",
      obs::DefaultLatencyBounds(), labels);
  // Journal state is mutex-guarded, not atomic, so it is exported by a
  // scrape-time hook instead of a continuously-updated gauge. The hook
  // runs on the scraping thread and takes journal_mu_ — never while a
  // reactor holds it across anything slow (appends only).
  obs::Gauge* unsynced = registry_->GetGauge(
      "trajldp_journal_unsynced_bytes",
      "Journal bytes appended but not yet fsynced", labels);
  obs::Gauge* valid = registry_->GetGauge(
      "trajldp_journal_valid_bytes",
      "Validated journal extent recovery would trust", labels);
  obs::Gauge* records = registry_->GetGauge(
      "trajldp_journal_records", "Records in the journal's valid extent",
      labels);
  obs::Gauge* compactions = registry_->GetGauge(
      "trajldp_journal_compactions", "Completed journal compactions", labels);
  obs::Gauge* fsyncs = registry_->GetGauge(
      "trajldp_journal_fsyncs", "Journal fsyncs issued", labels);
  hook_id_ = registry_->AddHook(
      [this, unsynced, valid, records, compactions, fsyncs] {
        std::lock_guard<std::mutex> lock(journal_mu_);
        if (!journal_.has_value()) return;
        unsynced->Set(static_cast<double>(journal_->unsynced_bytes()));
        valid->Set(static_cast<double>(journal_->valid_bytes()));
        records->Set(static_cast<double>(journal_->records()));
        compactions->Set(static_cast<double>(journal_->compactions()));
        fsyncs->Set(static_cast<double>(journal_->syncs()));
      });
}

Status IngestServer::OpenJournalAndReplay() {
  auto journal =
      io::FrameJournal::Open(options_.journal_path, options_.journal_options);
  if (!journal.ok()) return journal.status();
  journal_.emplace(std::move(*journal));
  compact_next_trigger_ = options_.journal_compact_threshold_bytes;
  size_t replayed = 0;
  // Replay through the NORMAL ingest path: the collector decodes and
  // validates replayed frames exactly as it would live ones, on its
  // workers, tagged with their wire identity so durability feedback
  // (Config::on_frame_processed) covers replays too. seq 0 marks a
  // record journaled from an unsequenced frame — it carries no
  // high-water information. An EMPTY payload is a compaction marker:
  // it rebuilds the high-water mark and is never pushed.
  Status status = journal_->Replay(
      [&](uint64_t stream_id, uint64_t seq, std::string_view frame) {
        if (seq > 0) {
          uint64_t& hwm = stream_hwm_[stream_id];
          if (seq > hwm) hwm = seq;
        }
        if (frame.empty()) return Status::Ok();
        ++replayed;
        return collector_->PushEncoded(std::string(frame), stream_id, seq);
      });
  frames_replayed_->Add(replayed);
  return status;
}

Status IngestServer::StartReactors() {
  TRAJLDP_RETURN_NOT_OK(SetNonBlocking(listener_.fd()));
  TRAJLDP_RETURN_NOT_OK(accept_backoff_timer_.Open());
  // Loop telemetry is shared across every reactor of this server: one
  // wakeup/event series for the shard, striped internally so N loops
  // never contend on a cache line.
  Reactor::LoopMetrics loop_metrics;
  loop_metrics.wakeups = registry_->GetCounter(
      "trajldp_reactor_wakeups_total", "epoll_wait returns across reactors",
      options_.metric_labels);
  loop_metrics.events = registry_->GetCounter(
      "trajldp_reactor_events_dispatched_total",
      "epoll events dispatched across reactors", options_.metric_labels);
  reactors_.reserve(num_reactors_);
  for (size_t i = 0; i < num_reactors_; ++i) {
    auto rs = std::make_unique<ReactorState>();
    TRAJLDP_RETURN_NOT_OK(rs->retry_timer.Open());
    rs->reactor.set_loop_metrics(loop_metrics);
    reactors_.push_back(std::move(rs));
  }
  for (size_t i = 0; i < num_reactors_; ++i) {
    ReactorState* rs = reactors_[i].get();
    TRAJLDP_RETURN_NOT_OK(rs->reactor.Start("ingest-reactor"));
    // Registrations happen ON the loop thread (Add is loop-thread-only
    // once the loop runs). The listener lives on reactor 0, as does the
    // accept-backoff timer.
    rs->reactor.Post([this, i, rs] {
      (void)rs->reactor.Add(rs->retry_timer.fd(), EPOLLIN,
                            [this, i](uint32_t) { OnRetryTimer(i); });
      if (i != 0) return;
      (void)rs->reactor.Add(accept_backoff_timer_.fd(), EPOLLIN,
                            [this](uint32_t) { OnAcceptBackoffTimer(); });
      (void)rs->reactor.Add(listener_.fd(), EPOLLIN,
                            [this](uint32_t) { OnAccept(); });
    });
  }
  return Status::Ok();
}

void IngestServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shutdown_ran_) return;
    shutdown_ran_ = true;
  }
  stopping_.store(true, std::memory_order_relaxed);
  // Join every loop first; after this nothing dispatches, so the
  // per-reactor connection maps are safe to touch from this thread.
  for (auto& rs : reactors_) rs->reactor.Stop();
  for (auto& rs : reactors_) {
    for (auto& [fd, conn] : rs->conns) {
      // A connection cut off BY shutdown is the protocol working, not a
      // device misbehaving: closed, never failed.
      conn->state.socket().ShutdownBoth();
      bytes_read_->Add(conn->state.bytes_read());
      bytes_written_->Add(conn->state.bytes_written());
      connections_closed_->Add(1);
    }
    rs->conns.clear();
  }
  listener_.ShutdownBoth();
  // Every reactor is joined; nothing can append any more.
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (journal_.has_value()) (void)journal_->Close();
}

IngestServer::Stats IngestServer::stats() const {
  Stats stats;
  stats.connections_accepted =
      static_cast<size_t>(connections_accepted_->Value());
  stats.connections_closed = static_cast<size_t>(connections_closed_->Value());
  stats.connections_failed = static_cast<size_t>(connections_failed_->Value());
  stats.frames_ingested = static_cast<size_t>(frames_ingested_->Value());
  stats.accept_backoffs = static_cast<size_t>(accept_backoffs_->Value());
  stats.frames_journaled = static_cast<size_t>(frames_journaled_->Value());
  stats.frames_replayed = static_cast<size_t>(frames_replayed_->Value());
  stats.duplicate_frames_dropped =
      static_cast<size_t>(duplicate_frames_dropped_->Value());
  stats.duplicate_reports_dropped = collector_->duplicates_dropped();
  stats.queue_depth = collector_->queue_depth();
  stats.queue_high_water = collector_->queue_high_water();
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    if (journal_.has_value()) {
      stats.journal_unsynced_bytes = journal_->unsynced_bytes();
      stats.journal_compactions = journal_->compactions();
    }
  }
  return stats;
}

Status IngestServer::first_connection_error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return first_connection_error_;
}

void IngestServer::RecordConnectionError(Status status) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (first_connection_error_.ok()) {
    first_connection_error_ = std::move(status);
  }
}

// ------------------------------------------------------- accept path

void IngestServer::OnAccept() {
  for (;;) {
    if (stopping_.load(std::memory_order_relaxed)) return;
    bool would_block = false;
    auto accepted = AcceptNonBlocking(listener_, &would_block);
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      if (accepted.status().code() == StatusCode::kResourceExhausted) {
        // Fd/memory pressure: deregister the listener so a full backlog
        // cannot hot-spin a level-triggered loop, and re-arm after a
        // backoff. Counted, NOT latched into first_connection_error —
        // harnesses treat that channel as fatal, and nothing failed.
        accept_backoffs_->Add(1);
        reactors_[0]->reactor.Del(listener_.fd());
        (void)accept_backoff_timer_.ArmOnce(options_.push_retry);
        return;
      }
      // Anything else means the listener itself died; record it and
      // stop accepting (connections already serving keep going).
      RecordConnectionError(accepted.status());
      reactors_[0]->reactor.Del(listener_.fd());
      return;
    }
    if (would_block) return;
    connections_accepted_->Add(1);
    const size_t target =
        next_reactor_.fetch_add(1, std::memory_order_relaxed) % num_reactors_;
    if (target == 0) {
      AdoptConn(0, std::move(*accepted));
    } else {
      // Hand the socket to its owning reactor's thread. shared_ptr only
      // because std::function must be copyable; ownership is singular.
      auto sock = std::make_shared<Socket>(std::move(*accepted));
      reactors_[target]->reactor.Post(
          [this, target, sock] { AdoptConn(target, std::move(*sock)); });
    }
  }
}

void IngestServer::OnAcceptBackoffTimer() {
  accept_backoff_timer_.Drain();
  if (stopping_.load(std::memory_order_relaxed)) return;
  // Re-register and immediately reap whatever queued during the backoff
  // (a level-triggered Add alone would also fire, but this saves a
  // round trip — and hits the EMFILE path again if pressure persists).
  (void)reactors_[0]->reactor.Add(listener_.fd(), EPOLLIN,
                                  [this](uint32_t) { OnAccept(); });
  OnAccept();
}

void IngestServer::AdoptConn(size_t reactor_index, Socket socket) {
  ReactorState& rs = *reactors_[reactor_index];
  if (stopping_.load(std::memory_order_relaxed)) {
    connections_closed_->Add(1);
    return;  // late arrival during shutdown: drop (socket closes)
  }
  const int fd = socket.fd();
  auto conn = std::make_unique<Conn>(std::move(socket));
  conn->reactor = reactor_index;
  Conn* raw = conn.get();
  rs.conns.emplace(fd, std::move(conn));
  if (Status s = rs.reactor.Add(
          fd, EPOLLIN,
          [this, reactor_index, fd](uint32_t events) {
            OnConnEvent(reactor_index, fd, events);
          });
      !s.ok()) {
    FailConn(rs, raw, std::move(s));
  }
}

// --------------------------------------------------- connection events

uint32_t IngestServer::InterestOf(const Conn& conn) const {
  uint32_t events = 0;
  if (!conn.paused && !conn.read_done) events |= EPOLLIN;
  if (conn.state.wants_write()) events |= EPOLLOUT;
  return events;
}

void IngestServer::OnConnEvent(size_t reactor_index, int fd,
                               uint32_t events) {
  ReactorState& rs = *reactors_[reactor_index];
  const auto it = rs.conns.find(fd);
  if (it == rs.conns.end()) return;  // closed earlier this round
  Conn* conn = it->second.get();

  if ((events & EPOLLOUT) != 0) {
    auto drained = conn->state.PumpWrite();
    if (!drained.ok()) {
      FailConn(rs, conn, drained.status());
      return;
    }
    if (*drained) {
      if (conn->read_done) {
        CloseConn(rs, conn);
        return;
      }
      (void)rs.reactor.Mod(fd, InterestOf(*conn));
    }
  }

  if (conn->paused || conn->read_done) return;
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) return;

  // Drain every frame the kernel already has. Level-triggered epoll
  // would re-notify, but looping here saves a syscall per frame.
  for (;;) {
    auto event = conn->state.PumpRead();
    if (!event.ok()) {
      FailConn(rs, conn, event.status());
      return;
    }
    switch (*event) {
      case ConnectionState::ReadEvent::kWouldBlock:
        return;
      case ConnectionState::ReadEvent::kPeerClosed:
        // Clean FIN. Linger only to flush acks still in our buffer.
        conn->read_done = true;
        if (conn->state.wants_write()) {
          (void)rs.reactor.Mod(fd, EPOLLOUT);
          return;
        }
        CloseConn(rs, conn);
        return;
      case ConnectionState::ReadEvent::kFrameReady: {
        Status handled = HandleFrame(rs, conn, conn->state.TakeFrame());
        if (!handled.ok()) {
          FailConn(rs, conn, std::move(handled));
          return;
        }
        if (conn->paused) return;  // backpressure: stop reading
        break;
      }
    }
  }
}

void IngestServer::FailConn(ReactorState& rs, Conn* conn, Status status) {
  // A connection cut off BY shutdown is the protocol working, not a
  // device misbehaving; only failures on a live server are recorded.
  if (!stopping_.load(std::memory_order_relaxed)) {
    connections_failed_->Add(1);
    RecordConnectionError(std::move(status));
  }
  CloseConn(rs, conn);
}

void IngestServer::CloseConn(ReactorState& rs, Conn* conn) {
  const int fd = conn->state.fd();
  rs.reactor.Del(fd);
  rs.blocked.erase(std::remove(rs.blocked.begin(), rs.blocked.end(), fd),
                   rs.blocked.end());
  // Notify the peer NOW (it sees RST/EOF on its next send instead of
  // writing into a buffer nobody reads).
  conn->state.socket().ShutdownBoth();
  bytes_read_->Add(conn->state.bytes_read());
  bytes_written_->Add(conn->state.bytes_written());
  connections_closed_->Add(1);
  rs.conns.erase(fd);  // destroys conn, closes the fd
}

// ------------------------------------------------------ frame pipeline

Status IngestServer::HandleFrame(ReactorState& rs, Conn* conn,
                                 std::string frame) {
  TRAJLDP_RETURN_NOT_OK(io::VerifyFrameChecksum(frame));

  // Sequence dedup BEFORE any other work: a frame this server (or the
  // journal it recovered) has already consumed must never reach the
  // collector twice, and its resender is owed a fresh ack of the
  // high-water mark so its window can advance.
  auto sequence = io::PeekSequence(frame);
  if (!sequence.ok()) return sequence.status();
  uint64_t stream_id = 0;
  uint64_t seq = 0;
  if (sequence->has_value()) {
    stream_id = (*sequence)->stream_id;
    seq = (*sequence)->seq;
    uint64_t hwm = 0;
    {
      std::lock_guard<std::mutex> lock(journal_mu_);
      const auto it = stream_hwm_.find(stream_id);
      hwm = it == stream_hwm_.end() ? 0 : it->second;
    }
    if (seq <= hwm) {
      duplicate_frames_dropped_->Add(1);
      return QueueAck(rs, conn, hwm);
    }
    if (seq != hwm + 1) {
      // A hole in the stream: the frame filling it was lost between
      // client and server, and acking past it would declare durable
      // something that never arrived. Fail the connection; the client
      // reconnects and resends its whole unacked suffix in order.
      return Status::InvalidArgument(
          "sequence gap on stream " + std::to_string(stream_id) +
          ": got seq " + std::to_string(seq) + " after high-water " +
          std::to_string(hwm));
    }
  }

  if (options_.expected_range.has_value()) {
    auto range = io::PeekUserRange(frame);
    if (!range.ok()) return range.status();
    if (range->has_value()) {
      const io::WireUserRange shard{options_.expected_range->first,
                                    options_.expected_range->second};
      if (!(*range)->ContainedIn(shard)) {
        return Status::InvalidArgument(
            "frame declares users [" +
            std::to_string((*range)->min_user_id) + ", " +
            std::to_string((*range)->max_user_id) +
            ") outside this shard's [" + std::to_string(shard.min_user_id) +
            ", " + std::to_string(shard.max_user_id) + ")");
      }
    }
  }

  // Durability first: the journal append must land before the ack can
  // be sent, and before the frame buffer is consumed by the push.
  if (journal_.has_value()) {
    TRAJLDP_RETURN_NOT_OK(JournalAppend(stream_id, seq, frame));
  }

  return TryPushAndAck(rs, conn, std::move(frame), stream_id, seq);
}

Status IngestServer::JournalAppend(uint64_t stream_id, uint64_t seq,
                                   std::string_view frame) {
  std::lock_guard<std::mutex> lock(journal_mu_);
  const size_t syncs_before = journal_->syncs();
  const auto append_start = std::chrono::steady_clock::now();
  TRAJLDP_RETURN_NOT_OK(journal_->Append(stream_id, seq, frame));
  journal_append_seconds_->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    append_start)
          .count());
  // The policy fsyncs inside Append; the journal times it (io does not
  // depend on obs), and the span records it here.
  if (journal_->syncs() != syncs_before) {
    journal_sync_seconds_->Observe(journal_->last_sync_seconds());
  }
  frames_journaled_->Add(1);

  // Size-triggered compaction: rewrite down to the live suffix once the
  // valid extent outgrows the threshold. The trigger re-bases on the
  // POST-compaction size so a journal whose live suffix itself exceeds
  // the threshold (nothing released yet) cannot thrash rewrites.
  if (options_.journal_compact_threshold_bytes > 0 &&
      journal_->valid_bytes() >= compact_next_trigger_) {
    auto info = journal_->Compact(options_.compact_watermarks());
    if (!info.ok()) return info.status();
    compact_next_trigger_ =
        journal_->valid_bytes() + options_.journal_compact_threshold_bytes;
  }
  return Status::Ok();
}

Status IngestServer::TryPushAndAck(ReactorState& rs, Conn* conn,
                                   std::string frame, uint64_t stream_id,
                                   uint64_t seq) {
  bool accepted = false;
  TRAJLDP_RETURN_NOT_OK(
      collector_->TryPushEncoded(frame, &accepted, stream_id, seq));
  if (!accepted) {
    // Collector queue full: park the frame, drop EPOLLIN (the kernel
    // buffer filling is what turns this into TCP flow control), and let
    // the reactor's retry timer re-attempt. The frame was journaled
    // BEFORE the first push attempt, so retries must never re-append.
    conn->paused = true;
    conn->held_frame = std::move(frame);
    conn->held_stream = stream_id;
    conn->held_seq = seq;
    rs.blocked.push_back(conn->state.fd());
    (void)rs.reactor.Mod(conn->state.fd(), InterestOf(*conn));
    if (!rs.retry_armed) {
      if (rs.retry_timer.ArmOnce(options_.push_retry).ok()) {
        rs.retry_armed = true;
      }
    }
    return Status::Ok();
  }
  frames_ingested_->Add(1);

  // Durable (journaled) and queued: advance the stream's high-water
  // mark and ack it. Ack AFTER the hwm update so a duplicate arriving
  // on a parallel stream connection can never observe the ack before
  // the dedup map knows about seq.
  if (seq > 0) {
    {
      std::lock_guard<std::mutex> lock(journal_mu_);
      uint64_t& hwm = stream_hwm_[stream_id];
      if (seq > hwm) hwm = seq;
    }
    return QueueAck(rs, conn, seq);
  }
  return Status::Ok();
}

Status IngestServer::QueueAck(ReactorState& rs, Conn* conn,
                              uint64_t ack_seq) {
  conn->state.QueueWrite(io::EncodeAckFrame(ack_seq));
  auto drained = conn->state.PumpWrite();
  if (!drained.ok()) return drained.status();
  if (!*drained) {
    // Socket buffer full mid-ack: EPOLLOUT drives the rest.
    (void)rs.reactor.Mod(conn->state.fd(), InterestOf(*conn));
  }
  return Status::Ok();
}

void IngestServer::OnRetryTimer(size_t reactor_index) {
  ReactorState& rs = *reactors_[reactor_index];
  rs.retry_timer.Drain();
  rs.retry_armed = false;
  // Retry every parked frame once. TryPushAndAck re-parks (and re-arms
  // the timer) for whoever still does not fit.
  const std::vector<int> blocked = std::move(rs.blocked);
  rs.blocked.clear();
  for (const int fd : blocked) {
    const auto it = rs.conns.find(fd);
    if (it == rs.conns.end()) continue;
    Conn* conn = it->second.get();
    std::string frame = std::move(conn->held_frame);
    const uint64_t stream_id = conn->held_stream;
    const uint64_t seq = conn->held_seq;
    conn->held_frame.clear();
    conn->paused = false;
    Status status = TryPushAndAck(rs, conn, std::move(frame), stream_id, seq);
    if (!status.ok()) {
      FailConn(rs, conn, std::move(status));
      continue;
    }
    if (!conn->paused) {
      // Resumed: re-enable EPOLLIN. Frames the kernel buffered while
      // paused re-notify immediately (level-triggered).
      (void)rs.reactor.Mod(fd, InterestOf(*conn));
    }
  }
}

}  // namespace trajldp::net
