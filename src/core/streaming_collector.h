#ifndef TRAJLDP_CORE_STREAMING_COLLECTOR_H_
#define TRAJLDP_CORE_STREAMING_COLLECTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <variant>
#include <vector>

#include "common/bounded_queue.h"
#include "common/status_or.h"
#include "common/thread_pool.h"
#include "core/collector_pipeline.h"
#include "core/mechanism.h"
#include "io/wire.h"
#include "obs/metrics.h"

namespace trajldp::core {

/// Device-side convenience shared by tests, benches, and examples:
/// frames the perturbed sets of a dense user range (one per user, as
/// BatchReleaseEngine::ReleaseAll returns them) into wire reports —
/// global id `first_user_id + i`, the trajectory length, and the ε′ the
/// perturber spends per draw. `perturbed` is consumed.
io::ReportBatch MakeWireReports(
    std::span<const region::RegionTrajectory> users,
    std::vector<PerturbedNgramSet> perturbed, const NgramPerturber& perturber,
    uint64_t first_user_id = 0);

/// \brief Streaming, bounded-memory ingest of ε-LDP report batches.
///
/// Where BatchReleaseEngine needs every user materialised in one vector,
/// this collector is an incremental consumer: producers Push report
/// batches (already decoded, or still as wire-format frames) as they
/// arrive; a bounded queue applies backpressure; worker threads decode,
/// validate, reconstruct, and emit one FullRelease per report through
/// the sink as soon as it is ready. Memory in flight is bounded by
/// queue_capacity + one batch per worker, independent of how many users
/// the stream carries.
///
/// ### Determinism and sharding
///
/// Each report's collector-side randomness is derived from the global
/// user id: CollectorRng(UserRng(seed, user_id)) — see CollectorPipeline.
/// Emission order is nondeterministic (workers race), but every emitted
/// release is a pure function of (seed, user_id, report), so any
/// partition of a report stream across K independent StreamingCollectors
/// — different processes, different machines — merges (MergeShardReleases)
/// into output bit-identical to BatchReleaseEngine::ReleaseAllFull over
/// the same users with the same seed.
///
/// ### Error policy
///
/// The first failing report (malformed frame, out-of-range region id, an
/// ε′ this mechanism does not spend, reconstruction failure) latches an
/// error: subsequent Push calls fail fast with it, in-flight work is
/// discarded, and Finish() returns it.
/// Reports already emitted stay emitted.
class StreamingCollector {
 public:
  struct Config {
    /// Worker threads; 0 → all hardware threads.
    size_t num_threads = 0;
    /// Maximum batches buffered between producers and workers. This is
    /// the ingest pipeline's memory bound: producers block (backpressure)
    /// when the queue is full.
    size_t queue_capacity = 8;
    /// Drop (not fail) any report whose user id was already processed by
    /// this collector, counting it in duplicates_dropped(). The
    /// exactly-once backstop for journal replay and client re-uploads:
    /// a report is a pure function of (seed, user_id, report bytes), so
    /// whichever copy wins, the released output is identical — dropping
    /// the rest makes a crash-recovered run bit-identical to an
    /// uninterrupted one. Off by default: in normal batch ingest a
    /// duplicate user id is a data bug and should latch an error
    /// downstream (duplicate releases fail the shard merge).
    bool dedup_user_ids = false;
    /// Called on a worker thread after a sequenced frame (pushed with a
    /// stream_id/seq tag, seq >= 1) has been FULLY handled: decoded and
    /// every report either released through the sink or deduped. This
    /// is the durability feedback edge for journal compaction — a
    /// caller that persists releases inside its sink may treat a
    /// callback for (stream, seq) as "this frame is durable downstream"
    /// and advance the stream's released watermark. Calls may arrive
    /// out of order across frames (workers race) and are never made for
    /// a frame whose processing latched an error.
    std::function<void(uint64_t stream_id, uint64_t seq)> on_frame_processed;
    /// User ids already durable downstream from a previous run,
    /// preseeded into the dedup set so a replay whose releases survived
    /// (e.g. restart after journal compaction with persisted partial
    /// releases) cannot double-release them. Requires dedup_user_ids.
    std::vector<uint64_t> pre_released_user_ids;
    /// Telemetry registry (docs/OBSERVABILITY.md). When set, the
    /// collector registers its counters, stage histograms, and
    /// queue/dedup/domain-cache gauges there under `metric_labels`
    /// (e.g. {{"shard", "0"}}); it must outlive the collector AND any
    /// concurrent scraper must stop before the collector is destroyed
    /// (snapshot hooks read collector state). When null the collector
    /// owns a private registry, so the instruments — and the accessors
    /// they back — always exist.
    obs::Registry* metrics = nullptr;
    obs::Labels metric_labels;
    /// Stage-timing spans: queue-wait, decode, per-report validate and
    /// reconstruct histograms. On by default — the
    /// `metrics_overhead_ratio` gate in BENCH_net.json holds the
    /// telemetered hot path within 1.05x of this switched off. Off
    /// removes the clock reads; the (cheaper) counters stay on.
    bool enable_stage_timing = true;
  };

  /// Receives each finished release. Calls are serialised (one at a
  /// time) but arrive in nondeterministic order and on worker threads.
  using Sink = std::function<void(UserRelease)>;

  /// Composes several sinks into one that forwards every release to each
  /// in order — how live analytics consumers ride along with a primary
  /// sink (materialisation, persistence) on the same collector without
  /// the collector growing a consumer registry. The release is copied to
  /// all sinks but the last, which receives the original by move. Null
  /// sinks are skipped; the collector's sink serialisation covers every
  /// fan-out target, so targets need no locking of their own.
  static Sink FanOutSink(std::vector<Sink> sinks);

  /// `mechanism` must outlive this collector. `seed` must match the
  /// batch engine's seed for bit-identical output.
  StreamingCollector(const NGramMechanism* mechanism, uint64_t seed,
                     Sink sink);
  StreamingCollector(const NGramMechanism* mechanism, uint64_t seed,
                     Sink sink, Config config);

  /// Closes the stream and joins workers; a Finish() error that was
  /// never observed is swallowed here.
  ~StreamingCollector();

  StreamingCollector(const StreamingCollector&) = delete;
  StreamingCollector& operator=(const StreamingCollector&) = delete;

  /// Enqueues one decoded batch. Blocks while the queue is full; fails
  /// fast once a worker has latched an error or Finish() was called.
  Status Push(io::ReportBatch batch);

  /// Enqueues one wire-format frame; decoding happens on a worker
  /// thread, so ingest threads never pay the parse cost. A non-zero
  /// (stream_id, seq) tag marks the frame for Config::on_frame_processed
  /// feedback; the default tag (seq 0) means "untracked".
  Status PushEncoded(std::string frame, uint64_t stream_id = 0,
                     uint64_t seq = 0);

  /// Non-blocking PushEncoded for transports that must never block on
  /// backpressure (the ingest reactor). On success `frame` is consumed
  /// and `*accepted` is true; on a full queue it returns Ok with
  /// `*accepted` false and `frame` intact, so the caller retries the
  /// same frame without copying. Errors (latched worker error, Finish
  /// already called) fail fast as Push does. Tag semantics as in
  /// PushEncoded.
  Status TryPushEncoded(std::string& frame, bool* accepted,
                        uint64_t stream_id = 0, uint64_t seq = 0);

  /// Signals end of stream, drains the queue, joins the workers, and
  /// returns the first error (Ok when every report released cleanly).
  /// Idempotent; Push after Finish fails.
  Status Finish();

  size_t num_threads() const { return pool_.size(); }
  /// Reports fully processed and emitted so far. Thin adapter over the
  /// registry counter (trajldp_collector_reports_released_total).
  size_t reports_released() const {
    return static_cast<size_t>(released_ctr_->Value());
  }
  /// Reports skipped by user-id dedup (Config::dedup_user_ids). Adapter
  /// over trajldp_collector_duplicate_reports_total.
  size_t duplicates_dropped() const {
    return static_cast<size_t>(duplicates_ctr_->Value());
  }
  /// User ids currently claimed in the dedup set (preseeded + won by a
  /// worker). A report that fails validation or reconstruction gives its
  /// claim back, so a corrected re-upload of that user is not dropped as
  /// a duplicate; this accessor makes the rollback observable.
  size_t dedup_users_claimed() const;
  /// Current ingest-queue depth and its all-time high-water mark — the
  /// backpressure observability pair surfaced by net::IngestServer::Stats.
  size_t queue_depth() const { return queue_.size(); }
  size_t queue_high_water() const { return queue_.high_water_mark(); }
  /// The registry this collector's instruments live on (the configured
  /// one, or the private fallback).
  obs::Registry* metrics() const { return registry_; }

 private:
  /// A queue item: a decoded batch or a still-encoded wire frame, plus
  /// the wire identity tag (seq 0 = untracked) that drives the
  /// on_frame_processed feedback.
  struct Item {
    std::variant<io::ReportBatch, std::string> payload;
    uint64_t stream_id = 0;
    uint64_t seq = 0;
    /// Stamped at enqueue; the queue-wait histogram measures Pop - this.
    std::chrono::steady_clock::time_point enqueued{};
  };

  void RegisterMetrics(const Config& config);
  void WorkerLoop(size_t worker);
  /// Returns true when every report in the batch was handled (released
  /// or deduped) — the precondition for on_frame_processed feedback.
  bool ProcessBatch(const io::ReportBatch& batch, PipelineWorkspace& ws);
  void LatchError(Status status);
  Status FirstError() const;

  const CollectorPipeline pipeline_;
  const uint64_t seed_;
  const Sink sink_;
  const bool dedup_user_ids_;
  const std::function<void(uint64_t, uint64_t)> on_frame_processed_;

  // Telemetry: the registry outlives the workers (owned or external);
  // instruments are stable pointers into it. Histogram pointers are
  // null when Config::enable_stage_timing is off.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  const NgramDomain* domain_ = nullptr;  // cache-stat gauges (hook)
  obs::Counter* released_ctr_ = nullptr;
  obs::Counter* duplicates_ctr_ = nullptr;
  obs::Counter* frames_ctr_ = nullptr;
  obs::Counter* poi_attempts_ctr_ = nullptr;
  obs::Counter* smoothed_ctr_ = nullptr;
  obs::Histogram* queue_wait_seconds_ = nullptr;
  obs::Histogram* decode_seconds_ = nullptr;
  obs::Histogram* validate_seconds_ = nullptr;
  obs::Histogram* reconstruct_seconds_ = nullptr;
  std::size_t hook_id_ = 0;

  // Destruction order matters: workers reference the queue, workspaces,
  // and counters, so the pool (joined in its destructor) is declared
  // last and destroyed first.
  BoundedQueue<Item> queue_;
  std::vector<PipelineWorkspace> workspaces_;
  mutable std::mutex seen_mu_;
  std::unordered_set<uint64_t> seen_users_;
  std::atomic<bool> has_error_{false};
  mutable std::mutex error_mu_;
  Status first_error_;
  std::mutex sink_mu_;
  std::atomic<bool> finished_{false};
  ThreadPool pool_;
};

}  // namespace trajldp::core

#endif  // TRAJLDP_CORE_STREAMING_COLLECTOR_H_
