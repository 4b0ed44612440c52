#include "workloads.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "analytics/stream_analytics.h"
#include "core/mechanism.h"
#include "core/streaming_collector.h"
#include "eval/normalized_error.h"
#include "io/wire.h"
#include "layer_pass.h"
#include "net/ingest_server.h"
#include "net/report_client.h"
#include "world.h"

namespace trajldp::suite {

namespace {

enum class Transport { kInMemory, kLoopback, kExactlyOnce };

struct Sizes {
  /// Distinct trajectories in the world.
  size_t pool = 0;
  size_t warmup_users = 0;
  size_t frame_users = 1;
  /// NE is computed over users [0, ne_users); every timed loop runs at
  /// least that far so the utility metrics are deterministic per seed.
  uint64_t ne_users = 0;
  /// The layer pass replays users [0, pass_users), pass_users <= ne_users.
  uint64_t pass_users = 0;
  /// Users per second the pre-generated input is sized for.
  double rate_hint = 0.0;
  int setup_reps = 5;
};

/// Timed users the input pool holds: twice rate_hint × seconds (a faster
/// host ends its loop early on an exhausted pool).
uint64_t Capacity(const Options& options, const Sizes& sizes) {
  const auto sized = static_cast<uint64_t>(sizes.rate_hint * options.seconds * 2);
  const uint64_t users = std::max<uint64_t>(sized, sizes.ne_users);
  return (users + sizes.frame_users - 1) / sizes.frame_users *
         sizes.frame_users;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Resident memory once freed memory went back to the kernel.
double SettledRssMb() {
  malloc_trim(0);
  return RssMb();
}

StatusOr<std::unique_ptr<core::NGramMechanism>> Build(const World& world) {
  TRAJLDP_ASSIGN_OR_RETURN(
      auto mechanism,
      core::NGramMechanism::Build(&*world.db, world.time, world.config));
  return std::make_unique<core::NGramMechanism>(std::move(mechanism));
}

/// Times set-ups 1 .. reps-1 of a run, each in a forked copy of the
/// process (TimeInChild). Call it once the benchmark's inputs exist and
/// before anything of the system does: every copy then starts from the
/// memory a freshly started collector has, as set-up 0 in this process
/// does. Set-ups torn down in one process would not: the allocator keeps
/// part of their memory resident, and a later Build that reuses it skips
/// the page faults (up to 0.8 s of a 1.9 s city Build).
template <typename SetUp>
StatusOr<std::vector<double>> SetUpTimes(int reps, const SetUp& set_up) {
  std::vector<double> seconds;
  for (int rep = 1; rep < reps; ++rep) {
    TRAJLDP_ASSIGN_OR_RETURN(
        const double s, TimeInChild([&]() -> Status {
          TRAJLDP_ASSIGN_OR_RETURN(auto system,
                                   set_up(static_cast<size_t>(rep)));
          // Left for the copy's exit to discard, outside the timing.
          static_cast<void>(system.release());
          return Status::Ok();
        }));
    seconds.push_back(s);
  }
  return seconds;
}

// ------------------------------------------------------------- sink

/// The benchmark's side of the collector sink: per-user exactly-once
/// bookkeeping, hand-off → release latency, fingerprints of the releases
/// the checks compare, the released trajectories NE scores, and (when
/// tracing) sink spans. Everything is sized up front, so the sink does
/// not allocate while the loop is timed. The collector serialises sink
/// calls, so the plain members have one writer at a time; the release
/// counters publish them to the thread that waits on them.
class SinkState {
 public:
  /// Fingerprints users that Sampled() or below `keep_below`, and keeps
  /// the trajectories of users below `keep_below` for NE. Reads the peak
  /// RSS when the `keep_below`-th timed release arrives.
  SinkState(const World& world, uint64_t capacity, size_t frame_users,
            uint64_t keep_below)
      : frame_users_(frame_users),
        keep_below_(keep_below),
        seen_(capacity, 0),
        latency_ms_(capacity, 0.0),
        fingerprint_(capacity, 0),
        handoff_ns_((capacity + frame_users - 1) / frame_users),
        kept_offset_(keep_below + 1, 0) {
    for (uint64_t u = 0; u < keep_below; ++u) {
      kept_offset_[u + 1] = kept_offset_[u] + world.Real(u).size();
    }
    kept_points_.resize(kept_offset_.back());
  }

  core::StreamingCollector::Sink Wrap(core::StreamingCollector::Sink inner) {
    return [this, inner = std::move(inner)](core::UserRelease release) {
      const int64_t now = NowNs();
      const uint64_t user = release.user_id;
      const bool warm = user >= kWarmupBase;
      const bool tracing = tracing_.load(std::memory_order_relaxed);
      int32_t span = -1;
      if (!warm) {
        if (user >= seen_.size() || seen_[user]++ != 0) {
          ++unexpected_;
        } else {
          const int64_t handoff = handoff_ns_[user / frame_users_].load(
              std::memory_order_relaxed);
          latency_ms_[user] = static_cast<double>(now - handoff) / 1e6;
          if (Sampled(user) || user < keep_below_) {
            fingerprint_[user] = Fingerprint(release.release);
          }
          if (user < keep_below_) Keep(user, release.release.trajectory);
        }
        if (tracing && Sampled(user)) span = log_.Begin(Layer::kSink, user);
      }
      inner(std::move(release));
      const int64_t done = NowNs();
      log_.End(span);
      if (tracing && !warm) sink_ns_ += done - now;
      last_release_ns_.store(done, std::memory_order_relaxed);
      if (!warm && released_.load(std::memory_order_relaxed) + 1 == keep_below_) {
        peak_rss_mb_ = PeakRssMb();
      }
      (warm ? warm_released_ : released_)
          .fetch_add(1, std::memory_order_release);
    };
  }

  void StampHandoff(size_t frame, int64_t ns) {
    handoff_ns_[frame].store(ns, std::memory_order_relaxed);
  }
  /// Flip only while the collector is idle (between phases).
  void set_tracing(bool on) { tracing_.store(on); }

  /// Blocks until `timed` timed and `warm` warm-up releases arrived.
  Status WaitReleased(uint64_t timed, uint64_t warm) const {
    const int64_t give_up = NowNs() + int64_t{60'000'000'000};
    while (released_.load(std::memory_order_acquire) < timed ||
           warm_released_.load(std::memory_order_acquire) < warm) {
      if (NowNs() > give_up) {
        return Status::Internal("timed out waiting for releases");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return Status::Ok();
  }

  uint64_t released() const {
    return released_.load(std::memory_order_acquire);
  }
  int64_t last_release_ns() const {
    return last_release_ns_.load(std::memory_order_relaxed);
  }
  /// Releases of unknown or repeated users, and kept trajectories whose
  /// length differs from the real one.
  uint64_t unexpected() const { return unexpected_; }
  uint8_t seen(uint64_t user) const { return seen_[user]; }
  uint64_t fingerprint(uint64_t user) const { return fingerprint_[user]; }
  model::Trajectory KeptTrajectory(uint64_t user) const {
    return model::Trajectory(std::vector<model::TrajectoryPoint>(
        kept_points_.begin() + static_cast<ptrdiff_t>(kept_offset_[user]),
        kept_points_.begin() + static_cast<ptrdiff_t>(kept_offset_[user + 1])));
  }
  std::vector<double> LatenciesMs(uint64_t first, uint64_t count) const {
    return std::vector<double>(latency_ms_.begin() + first,
                               latency_ms_.begin() + first + count);
  }
  const SpanLog& log() const { return log_; }
  /// VmHWM when the `keep_below`-th timed release arrived.
  double peak_rss_mb() const { return peak_rss_mb_; }
  double traced_sink_seconds() const {
    return static_cast<double>(sink_ns_) / 1e9;
  }

 private:
  void Keep(uint64_t user, const model::Trajectory& trajectory) {
    const auto& points = trajectory.points();
    if (points.size() != kept_offset_[user + 1] - kept_offset_[user]) {
      ++unexpected_;
      return;
    }
    std::copy(points.begin(), points.end(),
              kept_points_.begin() + static_cast<ptrdiff_t>(kept_offset_[user]));
  }

  const size_t frame_users_;
  const uint64_t keep_below_;
  std::vector<uint8_t> seen_;
  std::vector<double> latency_ms_;
  std::vector<uint64_t> fingerprint_;
  std::vector<std::atomic<int64_t>> handoff_ns_;
  std::vector<size_t> kept_offset_;
  std::vector<model::TrajectoryPoint> kept_points_;
  uint64_t unexpected_ = 0;
  double peak_rss_mb_ = 0.0;
  int64_t sink_ns_ = 0;
  SpanLog log_{true};
  std::atomic<bool> tracing_{false};
  std::atomic<uint64_t> released_{0};
  std::atomic<uint64_t> warm_released_{0};
  std::atomic<int64_t> last_release_ns_{0};
};

// -------------------------------------------------------- collector

/// One set-up of the collector side. Members are destroyed bottom-up:
/// the server before the collector it feeds, the collector before the
/// sinks it calls, everything before the mechanism.
struct Pipeline {
  std::unique_ptr<core::NGramMechanism> mechanism;
  std::optional<analytics::StreamAnalytics> bundle;
  std::vector<core::UserRelease> materialized;
  std::unique_ptr<core::StreamingCollector> collector;
  std::unique_ptr<net::IngestServer> server;
  /// Clients that connected to `server` so far.
  size_t connections = 0;
};

/// Starts the collector (library defaults, except what the transport
/// requires) behind `transport`, feeding the FanOutSink of an optional
/// materialising sink and the world's analytics bundle.
Status StartCollector(const World& world, uint64_t seed, Transport transport,
                      bool materialize, const std::string& journal_path,
                      SinkState* state, Pipeline* p) {
  TRAJLDP_ASSIGN_OR_RETURN(
      auto bundle,
      analytics::StreamAnalytics::Create(&*world.db, world.time,
                                         world.analytics));
  p->bundle.emplace(std::move(bundle));
  std::vector<core::StreamingCollector::Sink> sinks;
  if (materialize) {
    sinks.push_back([p](core::UserRelease release) {
      p->materialized.push_back(std::move(release));
    });
  }
  sinks.push_back(
      [p](core::UserRelease release) { p->bundle->Consume(release); });
  core::StreamingCollector::Config config;
  config.dedup_user_ids = transport == Transport::kExactlyOnce;
  p->collector = std::make_unique<core::StreamingCollector>(
      p->mechanism.get(), seed,
      state->Wrap(core::StreamingCollector::FanOutSink(std::move(sinks))),
      config);
  if (transport == Transport::kInMemory) return Status::Ok();
  net::IngestServer::Options options;
  if (transport == Transport::kExactlyOnce) {
    options.journal_path = journal_path;
    options.journal_options.sync = io::FrameJournal::SyncPolicy::kEveryBytes;
    options.journal_options.sync_every_bytes = 64u << 10;
  }
  TRAJLDP_ASSIGN_OR_RETURN(p->server,
                           net::IngestServer::Start(p->collector.get(), options));
  return Status::Ok();
}

Status StopCollector(Pipeline* p) {
  if (p->server != nullptr) {
    p->server->Shutdown();
    TRAJLDP_RETURN_NOT_OK(p->server->first_connection_error());
  }
  TRAJLDP_RETURN_NOT_OK(p->collector->Finish());
  return p->bundle->status();
}

Status WaitConnectionsClosed(const Pipeline& p) {
  if (p.server == nullptr) return Status::Ok();
  const int64_t give_up = NowNs() + int64_t{30'000'000'000};
  while (p.server->stats().connections_closed < p.connections) {
    if (NowNs() > give_up) {
      return Status::Internal("timed out waiting for connections to close");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::Ok();
}

/// The generator's end of one transport: PushEncoded in memory, or one
/// ReportClient connection (raw SendFrame, or sequenced SendBatch).
class Sender {
 public:
  Sender(Transport transport, Pipeline* p, uint64_t stream_id)
      : transport_(transport), p_(p) {
    if (transport == Transport::kInMemory) return;
    net::ReportClient::Options options;
    options.enable_sequencing = transport == Transport::kExactlyOnce;
    options.stream_id = stream_id;
    client_ = std::make_unique<net::ReportClient>(
        "127.0.0.1", p->server->port(), options);
    ++p->connections;
  }

  /// Hands one frame to the transport. A timed frame (`frame` >= 0) gets
  /// its hand-off time stamped for the latency metric and, with `log`, a
  /// span around the call.
  Status Send(const std::string& bytes, int64_t frame, SinkState* state,
              SpanLog* log) {
    std::string copy;
    io::ReportBatch batch;
    if (transport_ == Transport::kInMemory) {
      copy = bytes;
    } else if (transport_ == Transport::kExactlyOnce) {
      TRAJLDP_ASSIGN_OR_RETURN(batch, io::DecodeReportBatch(bytes));
    }
    const int64_t start = NowNs();
    if (frame >= 0) state->StampHandoff(static_cast<size_t>(frame), start);
    Status status;
    switch (transport_) {
      case Transport::kInMemory:
        status = p_->collector->PushEncoded(std::move(copy));
        break;
      case Transport::kLoopback:
        status = client_->SendFrame(bytes);
        break;
      case Transport::kExactlyOnce:
        status = client_->SendBatch(batch);
        break;
    }
    if (log != nullptr && frame >= 0) {
      log->Add(Layer::kHandoff, static_cast<uint64_t>(frame), start, NowNs());
    }
    return status;
  }

  /// Delivery barrier (sequenced) and clean close.
  Status Finish() {
    if (client_ == nullptr) return Status::Ok();
    TRAJLDP_RETURN_NOT_OK(client_->Flush());
    client_->Close();
    return Status::Ok();
  }

  const net::ReportClient* client() const { return client_.get(); }

 private:
  const Transport transport_;
  Pipeline* const p_;
  std::unique_ptr<net::ReportClient> client_;
};

/// Users released per second and CPU per user over a whole phase.
PhaseRate WholePhase(uint64_t users, int64_t start_ns, int64_t end_ns,
                     double cpu_s) {
  const auto n = static_cast<double>(users);
  return {Ratio(n, static_cast<double>(end_ns - start_ns) / 1e9),
          Ratio(cpu_s * 1e3, n), 0};
}

struct Phase {
  uint64_t first_user = 0;
  uint64_t users = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double cpu_s = 0.0;
  PhaseRate rate;
  size_t frames_resent = 0;
  size_t reconnects = 0;

  double Seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

/// One closed-loop timed phase: hands frames from `*next_frame` on to the
/// transport until `seconds` passed and users [0, min_users) went out (or
/// the pool ends), then waits until every one of them is released. The
/// phase ends at the last release; its rate is taken over the windows
/// before the deadline, while the transport is kept saturated.
StatusOr<Phase> RunPhase(Pipeline* p, Transport transport, SinkState* state,
                         const std::vector<std::string>& frames,
                         size_t frame_users, uint64_t pool_users,
                         size_t* next_frame, double seconds,
                         uint64_t min_users, uint64_t stream_id,
                         SpanLog* handoff_log) {
  Sender sender(transport, p, stream_id);
  Phase phase;
  phase.first_user = *next_frame * frame_users;
  const uint64_t released_before = state->released();
  phase.cpu_s = -CpuSeconds();
  phase.start_ns = NowNs();
  ProgressSampler sampler(
      [state, released_before] { return state->released() - released_before; });
  const int64_t deadline =
      phase.start_ns + static_cast<int64_t>(seconds * 1e9);
  while (*next_frame < frames.size()) {
    const uint64_t first = *next_frame * frame_users;
    if (NowNs() >= deadline && first >= min_users) break;
    const size_t f = (*next_frame)++;
    TRAJLDP_RETURN_NOT_OK(sender.Send(frames[f], static_cast<int64_t>(f),
                                      state, handoff_log));
    phase.users += std::min<uint64_t>(frame_users, pool_users - first);
  }
  TRAJLDP_RETURN_NOT_OK(sender.Finish());
  TRAJLDP_RETURN_NOT_OK(state->WaitReleased(released_before + phase.users, 0));
  phase.cpu_s += CpuSeconds();
  phase.end_ns = state->last_release_ns();
  phase.rate = sampler.Finish(
      deadline,
      WholePhase(phase.users, phase.start_ns, phase.end_ns, phase.cpu_s));
  if (sender.client() != nullptr) {
    phase.frames_resent = sender.client()->frames_resent();
    phase.reconnects = sender.client()->reconnects();
  }
  TRAJLDP_RETURN_NOT_OK(WaitConnectionsClosed(*p));
  return phase;
}

// ------------------------------------------------------------ checks

/// Exactly-once over users [0, sent) and the 1-in-32 sample against the
/// sequential CollectorPipeline::ReleaseInto, outside the timed window.
void CheckReleases(const World& world, const core::NGramMechanism& mechanism,
                   uint64_t seed, uint64_t sent, const SinkState& state,
                   RunResult* result) {
  uint64_t once = 0;
  for (uint64_t u = 0; u < sent; ++u) once += state.seen(u) == 1 ? 1 : 0;
  result->attempted = sent;
  result->failed = sent - once;
  if (result->failed > 0 || state.unexpected() > 0) {
    result->Fail(std::to_string(result->failed) +
                 " users not released exactly once, " +
                 std::to_string(state.unexpected()) + " unexpected releases");
  }
  const core::CollectorPipeline pipeline = mechanism.pipeline();
  core::PipelineWorkspace ws;
  size_t checked = 0;
  size_t mismatched = 0;
  for (uint64_t u = 0; u < sent; u += kSampleEvery) {
    Rng rng = core::CollectorPipeline::UserRng(seed, u);
    core::FullRelease expected;
    const Status status =
        pipeline.ReleaseInto(world.Regions(u), rng, ws, expected);
    if (!status.ok() || Fingerprint(expected) != state.fingerprint(u)) {
      ++mismatched;
    }
    ++checked;
  }
  std::cout << "check: " << once << "/" << sent
            << " users released exactly once; " << checked
            << " sampled releases vs sequential ReleaseInto, " << mismatched
            << " mismatched\n";
  if (mismatched > 0) {
    result->Fail(std::to_string(mismatched) +
                 " sampled releases differ from ReleaseInto");
  }
}

/// NE of the kept releases of users [0, users) against their real
/// trajectories.
Status AddNormalizedError(const World& world, uint64_t users,
                          const SinkState& state, RunResult* result) {
  model::TrajectorySet real;
  model::TrajectorySet released;
  for (uint64_t u = 0; u < users; ++u) {
    real.push_back(world.Real(u));
    released.push_back(state.KeptTrajectory(u));
  }
  TRAJLDP_ASSIGN_OR_RETURN(
      auto ne,
      eval::ComputeNormalizedError(*world.db, world.time, real, released));
  std::cout << "NE over users [0, " << users << ")\n";
  result->Add("ne_time_h", ne.time_hours, "h");
  result->Add("ne_category", ne.category, "score");
  result->Add("ne_space_km", ne.space_km, "km");
  return Status::Ok();
}

void AddSetUp(const std::vector<double>& seconds, RunResult* result) {
  std::cout << "set-up seconds:";
  for (const double s : seconds) std::cout << " " << s;
  std::cout << "\n";
  result->Add("setup_s", Median(seconds), "s");
}

/// Throughput and latency of an untraced timed phase. Host drift keeps
/// them from repeating within their bounds (README, "Why throughput and
/// latency are layer metrics"), so every run prints them and the traced
/// run reports them as run.* layer metrics.
void ReportRun(const PhaseRate& rate, std::vector<double> latency_ms,
               bool as_metrics, RunResult* result) {
  const double p50 = Quantile(latency_ms, 0.5);
  const double p99 = Quantile(latency_ms, 0.99);
  std::cout << "rate over " << rate.windows << " one-second windows: median "
            << rate.units_per_s << "/s, slowest " << rate.slowest
            << "/s, fastest " << rate.fastest << "/s\n"
            << "latency over " << latency_ms.size() << " users: p50 " << p50
            << " ms, p99 " << p99 << " ms\n";
  if (!as_metrics) return;
  result->Add("run.users_per_s", rate.units_per_s, "1/s");
  result->Add("run.latency_p50_ms", p50, "ms");
  result->Add("run.latency_p99_ms", p99, "ms");
}

/// peak_rss_mb: the process's peak RSS from the start of its set-up
/// until the timed loop has finished its first N users (the NE users),
/// less what the benchmark's own inputs and bookkeeping hold (`inputs_mb`,
/// measured before the peak was reset). That is a fixed amount of work:
/// N users give every worker its steady workspace, and a faster collector
/// does not read as a memory regression because it admitted more ids to
/// the dedup set by the end of the loop. The other set-ups ran in forked
/// copies, so none of their memory is here.
void AddMemory(double inputs_mb, double peak_mb, RunResult* result) {
  std::cout << "peak RSS " << peak_mb << " MB, of which " << inputs_mb
            << " MB the benchmark's inputs and bookkeeping\n";
  result->Add("peak_rss_mb", peak_mb - inputs_mb, "MB");
}

// ------------------------------------------------ per-layer metrics

void AddDeviceLayers(const LayerTimes& device, double bytes_per_report,
                     const core::CacheStats& cache, RunResult* result) {
  result->Add("core.perturb.us_per_user", device.Mean(Layer::kPerturb), "us");
  result->Add("core.domain.weight_hit_ratio",
              Ratio(static_cast<double>(cache.weight_hits),
                    static_cast<double>(cache.weight_hits +
                                        cache.weight_misses)),
              "ratio");
  result->Add("core.domain.weight_rows",
              static_cast<double>(cache.weight_rows), "count");
  result->Add("io.wire.encode_us_per_frame", device.Mean(Layer::kEncode),
              "us");
  result->Add("io.wire.bytes_per_report", bytes_per_report, "B");
}

/// The layer pass's split. An empty pass (city_perturb, where no
/// collector runs) reports zeros.
void AddPassLayers(const LayerPass& pass, RunResult* result) {
  LayerTimes t;
  t.AddLog(pass.log);
  const auto users = static_cast<double>(pass.users);
  const auto frames = static_cast<double>(pass.frames);
  const core::StageBreakdown& s = pass.stages;
  result->Add("core.candidates.us_per_user",
              Ratio(s.reconstruct_prep_seconds * 1e6, users), "us");
  result->Add("core.candidates.per_user", Ratio(pass.candidates, users),
              "count");
  result->Add("core.viterbi.us_per_user",
              Ratio(s.optimal_reconstruct_seconds * 1e6, users), "us");
  result->Add("core.viterbi.fallback_share",
              Ratio(static_cast<double>(pass.fallbacks), users), "ratio");
  result->Add("core.poi.us_per_user", Ratio(s.poi_seconds * 1e6, users), "us");
  result->Add("core.poi.attempts_per_user",
              Ratio(static_cast<double>(pass.poi_attempts), users), "count");
  result->Add("core.poi.smoothed_share",
              Ratio(static_cast<double>(pass.smoothed), users), "ratio");
  result->Add("io.wire.crc_us_per_frame", Ratio(t.Sum(Layer::kCrc), frames),
              "us");
  result->Add("io.wire.decode_us_per_frame",
              Ratio(t.Sum(Layer::kDecode), frames), "us");
  result->Add("core.validate.us_per_report", t.Mean(Layer::kValidate), "us");
  result->Add("analytics.consume_us_per_release", t.Mean(Layer::kConsume),
              "us");
}

/// Collector, reactor and journal layers of the traced phase, from the
/// registry the program keeps (deltas over the phase) and the sink and
/// hand-off spans. Without a collector (city_perturb) every input is
/// empty and the metrics read zero.
void AddCollectorLayers(const obs::RegistrySnapshot& before,
                        const obs::RegistrySnapshot& after, size_t workers,
                        const Phase& phase, const LayerTimes& spans,
                        double sink_seconds, RunResult* result) {
  auto hist_q = [&](const char* name, double q) {
    return HistogramQuantile(Series(before, name), Series(after, name), q);
  };
  auto sum = [&](const char* name) {
    return Series(after, name).sum - Series(before, name).sum;
  };
  auto count = [&](const char* name) {
    return Series(after, name).value - Series(before, name).value;
  };
  const auto users = static_cast<double>(phase.users);
  result->Add("core.collector.queue_wait_p99_ms",
              hist_q("trajldp_collector_queue_wait_seconds", 0.99) * 1e3,
              "ms");
  result->Add("core.collector.queue_high_water",
              Series(after, "trajldp_collector_queue_high_water").value,
              "count");
  result->Add("core.collector.reconstruct_p99_ms",
              hist_q("trajldp_collector_reconstruct_seconds", 0.99) * 1e3,
              "ms");
  const double busy = sum("trajldp_collector_decode_seconds") +
                      sum("trajldp_collector_validate_seconds") +
                      sum("trajldp_collector_reconstruct_seconds") +
                      sink_seconds;
  result->Add("core.collector.worker_busy_share",
              Ratio(busy, static_cast<double>(workers) * phase.Seconds()),
              "ratio");
  result->Add("core.collector.sink_us_per_release", spans.Mean(Layer::kSink),
              "us");
  // The generator's hand-off call: SendFrame / SendBatch over loopback,
  // PushEncoded in memory.
  result->Add("net.client.send_us_per_frame_p50",
              Quantile(spans.of(Layer::kHandoff), 0.5), "us");
  result->Add("net.client.send_us_per_frame_p99",
              Quantile(spans.of(Layer::kHandoff), 0.99), "us");
  result->Add("net.ingest.bytes_per_user",
              Ratio(count("trajldp_ingest_bytes_read_total"), users), "B");
  result->Add("net.reactor.events_per_wakeup",
              Ratio(count("trajldp_reactor_events_dispatched_total"),
                    count("trajldp_reactor_wakeups_total")),
              "count");
  result->Add("net.ingest.connections_failed",
              count("trajldp_ingest_connections_failed_total"), "count");
  result->Add("io.journal.append_p99_us",
              hist_q("trajldp_journal_append_seconds", 0.99) * 1e6, "us");
  result->Add("io.journal.sync_p99_ms",
              hist_q("trajldp_journal_sync_seconds", 0.99) * 1e3, "ms");
  result->Add("io.journal.fsyncs_per_kuser",
              Ratio(1e3 * count("trajldp_journal_fsyncs"), users), "count");
  result->Add("net.client.frames_resent",
              static_cast<double>(phase.frames_resent), "count");
  result->Add("net.client.reconnects", static_cast<double>(phase.reconnects),
              "count");
}

/// The checks and metrics the trace itself owes: how much of the traced
/// time the spans explain, and what tracing cost.
void AddTraceLayers(double unattributed, const PhaseRate& traced,
                    const PhaseRate& untraced, double cpu_share,
                    double single_thread_rate, RunResult* result) {
  if (unattributed > 0.05) {
    result->Fail("spans explain only " +
                 std::to_string(100.0 * (1.0 - unattributed)) +
                 "% of the traced time");
  }
  result->Add("proc.cpu_util", cpu_share, "ratio");
  result->Add("proc.cpu_ms_per_user", traced.cpu_ms_per_unit, "ms");
  result->Add("core.collector.scaling_vs_1t",
              Ratio(traced.units_per_s, single_thread_rate), "ratio");
  result->Add("trace.unattributed_share", unattributed, "ratio");
  result->Add("trace.overhead_ratio",
              Ratio(untraced.units_per_s, traced.units_per_s), "ratio");
}

double CpuShare(double cpu_s, double seconds) {
  return Ratio(cpu_s, seconds * std::max(1u, std::thread::hardware_concurrency()));
}

Status WriteTraceFile(const Options& options,
                      std::vector<const SpanLog*> logs) {
  TRAJLDP_RETURN_NOT_OK(WriteTrace(options.trace_path, options.workload,
                                   options.seed, logs));
  std::cout << "trace: " << options.trace_path << "\n";
  return Status::Ok();
}

/// Removes the run's scratch directory on every exit path.
class ScratchDir {
 public:
  explicit ScratchDir(const Options& options)
      : path_(std::filesystem::path(options.scratch_dir) /
              (options.workload + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

// ------------------------------------------------- collector workloads

Status RunCollectorWorkload(const Options& options, World* world,
                            Transport transport, const Sizes& sizes,
                            bool materialize, RunResult* result) {
  const uint64_t capacity = Capacity(options, sizes);
  const size_t frame_users = sizes.frame_users;
  ScratchDir scratch(options);
  const double rss_before_inputs = SettledRssMb();

  // The devices' work, before and outside set-up: a mechanism of their
  // own perturbs every user into frames.
  std::vector<std::string> frames;
  std::vector<std::string> warm;
  std::vector<SpanLog> device_logs;
  core::CacheStats device_cache;
  {
    TRAJLDP_ASSIGN_OR_RETURN(auto device, Build(*world));
    TRAJLDP_RETURN_NOT_OK(ConvertToRegions(world, device->decomposition()));
    TRAJLDP_ASSIGN_OR_RETURN(
        frames, MakeFrames(*world, *device, options.seed, 0, capacity,
                           frame_users, options.trace ? &device_logs : nullptr));
    TRAJLDP_ASSIGN_OR_RETURN(
        warm, MakeFrames(*world, *device, kWarmupSeed, kWarmupBase,
                         sizes.warmup_users, frame_users, nullptr));
    device_cache = device->domain().cache_stats();
  }
  SinkState state(*world, capacity, frame_users, sizes.ne_users);
  const double inputs_mb = SettledRssMb() - rss_before_inputs;
  ResetPeakRss();

  // One set-up: build, start, warm up. Set-ups 1.. run in forked copies
  // taken before set-up 0 (SetUpTimes), so each starts with no warm-up
  // release counted.
  auto set_up = [&](size_t rep) -> StatusOr<std::unique_ptr<Pipeline>> {
    auto p = std::make_unique<Pipeline>();
    TRAJLDP_ASSIGN_OR_RETURN(p->mechanism, Build(*world));
    TRAJLDP_RETURN_NOT_OK(StartCollector(
        *world, options.seed, transport, materialize,
        scratch.File("journal-" + std::to_string(rep)), &state, p.get()));
    Sender sender(transport, p.get(), 1000 + rep);
    for (const std::string& frame : warm) {
      TRAJLDP_RETURN_NOT_OK(sender.Send(frame, -1, &state, nullptr));
    }
    TRAJLDP_RETURN_NOT_OK(sender.Finish());
    TRAJLDP_RETURN_NOT_OK(state.WaitReleased(0, sizes.warmup_users));
    TRAJLDP_RETURN_NOT_OK(WaitConnectionsClosed(*p));
    return p;
  };
  std::vector<double> setup_s;
  if (!options.trace) {
    TRAJLDP_ASSIGN_OR_RETURN(setup_s, SetUpTimes(sizes.setup_reps, set_up));
  }
  const int64_t setup_start = NowNs();
  TRAJLDP_ASSIGN_OR_RETURN(std::unique_ptr<Pipeline> p, set_up(0));
  setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);
  std::cout << world->name << ": "
            << p->mechanism->decomposition().num_regions() << " regions, "
            << world->real.size() << " trajectories, " << capacity
            << " timed users pre-encoded in " << frames.size()
            << " frames of " << frame_users << "\n";

  size_t next_frame = 0;
  SpanLog handoff(options.trace);
  Phase untraced;
  Phase measured;
  obs::RegistrySnapshot before;
  if (options.trace) {
    TRAJLDP_ASSIGN_OR_RETURN(
        untraced, RunPhase(p.get(), transport, &state, frames, frame_users,
                           capacity, &next_frame, options.seconds / 2,
                           sizes.ne_users, 1, nullptr));
    before = p->collector->metrics()->Snapshot();
    state.set_tracing(true);
    TRAJLDP_ASSIGN_OR_RETURN(
        measured, RunPhase(p.get(), transport, &state, frames, frame_users,
                           capacity, &next_frame, options.seconds / 2, 0, 2,
                           &handoff));
  } else {
    TRAJLDP_ASSIGN_OR_RETURN(
        measured, RunPhase(p.get(), transport, &state, frames, frame_users,
                           capacity, &next_frame, options.seconds,
                           sizes.ne_users, 1, nullptr));
  }
  const obs::RegistrySnapshot after = p->collector->metrics()->Snapshot();
  const size_t workers = p->collector->num_threads();
  TRAJLDP_RETURN_NOT_OK(StopCollector(p.get()));
  const uint64_t sent = measured.first_user + measured.users;
  std::cout << "timed: " << measured.users << " users released in "
            << measured.Seconds() << " s\n";

  CheckReleases(*world, *p->mechanism, options.seed, sent, state, result);
  if (!options.trace) {
    ReportRun(measured.rate,
              state.LatenciesMs(measured.first_user, measured.users), false,
              result);
    AddSetUp(setup_s, result);
    AddMemory(inputs_mb, state.peak_rss_mb(), result);
    return AddNormalizedError(*world, sizes.ne_users, state, result);
  }

  ReportRun(untraced.rate,
            state.LatenciesMs(untraced.first_user, untraced.users), true,
            result);
  LayerTimes device;
  for (const SpanLog& log : device_logs) device.AddLog(log);
  double bytes = 0.0;
  for (const std::string& frame : frames) bytes += static_cast<double>(frame.size());
  AddDeviceLayers(device, bytes / static_cast<double>(capacity), device_cache,
                  result);
  const size_t pass_frames = (sizes.pass_users + frame_users - 1) / frame_users;
  TRAJLDP_ASSIGN_OR_RETURN(
      LayerPass pass,
      RunLayerPass(*world, *p->mechanism, options.seed,
                   std::span<const std::string>(frames.data(), pass_frames),
                   [&state](uint64_t u) { return state.fingerprint(u); }));
  std::cout << "layer pass: " << pass.users << " users in " << pass.frames
            << " frames, "
            << (pass.identical ? "identical" : "NOT identical")
            << " to the collector's releases\n";
  if (!pass.identical) {
    result->Fail("layer pass releases differ from the collector's");
  }
  AddPassLayers(pass, result);
  LayerTimes spans;
  spans.AddLog(state.log());
  spans.AddLog(handoff);
  AddCollectorLayers(before, after, workers, measured, spans,
                     state.traced_sink_seconds(), result);
  AddTraceLayers(pass.UnattributedShare(), measured.rate, untraced.rate,
                 CpuShare(measured.cpu_s, measured.Seconds()),
                 Ratio(static_cast<double>(pass.users), pass.wall_us / 1e6),
                 result);
  std::vector<const SpanLog*> logs;
  for (const SpanLog& log : device_logs) logs.push_back(&log);
  logs.push_back(&handoff);
  logs.push_back(&state.log());
  logs.push_back(&pass.log);
  return WriteTraceFile(options, std::move(logs));
}

// ------------------------------------------------------ city_perturb

/// What the device loop records per user, sized up front: how often each
/// user was produced, its device-unit latency, the fingerprint of every
/// sampled frame and the frames of users [0, ne_frames.size()); and VmHWM
/// once that many users were produced.
struct DeviceOutputs {
  std::vector<uint8_t> produced;
  std::vector<double> latency_us;
  std::vector<uint64_t> sampled_fingerprint;
  std::vector<std::string> ne_frames;
  double peak_rss_mb = 0.0;

  DeviceOutputs(uint64_t capacity, uint64_t ne_users)
      : produced(capacity, 0),
        latency_us(capacity, 0.0),
        sampled_fingerprint(capacity / kSampleEvery + 1, 0),
        ne_frames(ne_users) {}
};

struct DeviceRun {
  uint64_t first_user = 0;
  uint64_t end_user = 0;
  uint64_t users = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double cpu_s = 0.0;
  PhaseRate rate;
  std::vector<SpanLog> logs;

  double Seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

/// The device unit on GeneratorThreads() threads sharing one mechanism:
/// PerturbInto then EncodeReportBatch of a one-report frame, per user.
/// Threads claim users from `*next` in chunks and stop at `end_user`, or
/// once `seconds` passed and users below `min_user` are all claimed.
/// With `out`, every user is recorded there (timed users only).
StatusOr<DeviceRun> RunDevices(const core::NGramMechanism& mechanism,
                               const World& world, uint64_t seed,
                               std::atomic<uint64_t>* next, uint64_t end_user,
                               double seconds, uint64_t min_user, bool trace,
                               DeviceOutputs* out) {
  constexpr uint64_t kChunk = 256;
  const core::CollectorPipeline pipeline = mechanism.pipeline();
  const size_t threads = GeneratorThreads();
  std::vector<uint64_t> users(threads, 0);
  std::vector<int64_t> end_ns(threads, 0);
  std::vector<Status> status(threads);
  DeviceRun run;
  run.logs.assign(threads, SpanLog(trace));
  io::WireEncodeOptions encode;
  encode.include_user_range = true;
  std::atomic<uint64_t> done{0};
  run.first_user = next->load();
  run.cpu_s = -CpuSeconds();
  run.start_ns = NowNs();
  ProgressSampler sampler([&done] { return done.load(); });
  const int64_t deadline = run.start_ns + static_cast<int64_t>(seconds * 1e9);
  auto worker = [&](size_t t) {
    SpanLog& log = run.logs[t];
    core::SamplerWorkspace ws;
    io::ReportBatch one(1);
    for (;;) {
      const uint64_t begin = next->fetch_add(kChunk);
      if (begin >= end_user) break;
      if (begin >= min_user && NowNs() >= deadline) break;
      const uint64_t end = std::min(begin + kChunk, end_user);
      for (uint64_t u = begin; u < end; ++u) {
        const bool sampled = Sampled(u);
        const int64_t start = NowNs();
        const int32_t unit = sampled ? log.Begin(Layer::kDeviceUnit, u) : -1;
        int32_t span = sampled ? log.Begin(Layer::kPerturb, u, unit) : -1;
        status[t] = PerturbUser(pipeline, world, seed, u, ws, &one[0]);
        log.End(span);
        if (!status[t].ok()) return;
        span = sampled ? log.Begin(Layer::kEncode, u, unit) : -1;
        auto frame = io::EncodeReportBatch(one, encode);
        log.End(span);
        log.End(unit);
        if (!frame.ok()) {
          status[t] = frame.status();
          return;
        }
        if (out != nullptr) {
          out->latency_us[u] = static_cast<double>(NowNs() - start) / 1e3;
          ++out->produced[u];
          if (sampled) out->sampled_fingerprint[u / kSampleEvery] = Fingerprint(*frame);
          if (u < out->ne_frames.size()) out->ne_frames[u] = std::move(*frame);
        }
        ++users[t];
      }
      const uint64_t before = done.fetch_add(end - begin);
      if (out != nullptr && before < out->ne_frames.size() &&
          before + (end - begin) >= out->ne_frames.size()) {
        out->peak_rss_mb = PeakRssMb();
      }
    }
    end_ns[t] = NowNs();
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (std::thread& t : pool) t.join();
  run.cpu_s += CpuSeconds();
  for (size_t t = 0; t < threads; ++t) {
    TRAJLDP_RETURN_NOT_OK(status[t]);
    run.users += users[t];
    run.end_ns = std::max(run.end_ns, end_ns[t]);
  }
  run.end_user = std::min(next->load(), end_user);
  run.rate = sampler.Finish(
      deadline, WholePhase(run.users, run.start_ns, run.end_ns, run.cpu_s));
  return run;
}

/// Device-unit latencies of the users `run` produced.
std::vector<double> DeviceLatenciesMs(const DeviceOutputs& out,
                                      const DeviceRun& run) {
  std::vector<double> latency_ms;
  for (uint64_t u = run.first_user; u < run.end_user; ++u) {
    if (out.produced[u] != 0) latency_ms.push_back(out.latency_us[u] / 1e3);
  }
  return latency_ms;
}

/// city_perturb's utility: the reports of users [0, ne_frames.size())
/// through an untimed in-memory StreamingCollector, scored like
/// city_collect's.
Status AddDeviceNormalizedError(const World& world, uint64_t seed,
                                std::unique_ptr<core::NGramMechanism> mechanism,
                                const std::vector<std::string>& ne_frames,
                                RunResult* result) {
  const uint64_t users = ne_frames.size();
  SinkState state(world, users, 1, users);
  Pipeline collect;
  collect.mechanism = std::move(mechanism);
  TRAJLDP_RETURN_NOT_OK(StartCollector(world, seed, Transport::kInMemory,
                                       false, "", &state, &collect));
  size_t next_frame = 0;
  TRAJLDP_RETURN_NOT_OK(RunPhase(&collect, Transport::kInMemory, &state,
                                 ne_frames, 1, users, &next_frame, 0.0, users,
                                 1, nullptr)
                            .status());
  TRAJLDP_RETURN_NOT_OK(StopCollector(&collect));
  if (state.unexpected() > 0) {
    return Status::Internal("NE collector released unexpected users");
  }
  return AddNormalizedError(world, users, state, result);
}

}  // namespace

Status RunCityPerturb(const Options& options, RunResult* result) {
  Sizes sizes;
  sizes.pool = options.smoke ? 512 : 4096;
  sizes.warmup_users = options.smoke ? 5000 : 100000;
  sizes.ne_users = options.smoke ? 32 : 2048;
  sizes.rate_hint = 100000;
  sizes.setup_reps = options.smoke ? 1 : 3;
  const uint64_t capacity = Capacity(options, sizes);
  TRAJLDP_ASSIGN_OR_RETURN(auto world, MakeCity(sizes.pool));
  const double rss_before_inputs = SettledRssMb();
  {
    TRAJLDP_ASSIGN_OR_RETURN(
        auto decomp, region::StcDecomposition::Build(
                         &*world->db, world->time, world->config.decomposition));
    TRAJLDP_RETURN_NOT_OK(ConvertToRegions(world.get(), decomp));
  }
  DeviceOutputs out(capacity, sizes.ne_users);
  const double inputs_mb = SettledRssMb() - rss_before_inputs;
  ResetPeakRss();

  // One set-up: build, then warm the device unit up.
  auto set_up = [&](size_t) -> StatusOr<std::unique_ptr<core::NGramMechanism>> {
    TRAJLDP_ASSIGN_OR_RETURN(auto mechanism, Build(*world));
    std::atomic<uint64_t> warm_next{kWarmupBase};
    const uint64_t warm_end = kWarmupBase + sizes.warmup_users;
    TRAJLDP_RETURN_NOT_OK(RunDevices(*mechanism, *world, kWarmupSeed,
                                     &warm_next, warm_end, 0.0, warm_end,
                                     false, nullptr)
                              .status());
    return mechanism;
  };
  std::vector<double> setup_s;
  if (!options.trace) {
    TRAJLDP_ASSIGN_OR_RETURN(setup_s, SetUpTimes(sizes.setup_reps, set_up));
  }
  const int64_t setup_start = NowNs();
  TRAJLDP_ASSIGN_OR_RETURN(std::unique_ptr<core::NGramMechanism> mechanism,
                           set_up(0));
  setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);
  std::cout << world->name << ": " << mechanism->decomposition().num_regions()
            << " regions, " << world->real.size() << " trajectories, "
            << GeneratorThreads() << " generator threads\n";

  std::atomic<uint64_t> next{0};
  DeviceRun untraced;
  DeviceRun measured;
  if (options.trace) {
    TRAJLDP_ASSIGN_OR_RETURN(
        untraced, RunDevices(*mechanism, *world, options.seed, &next, capacity,
                             options.seconds / 2, sizes.ne_users, false, &out));
    TRAJLDP_ASSIGN_OR_RETURN(
        measured, RunDevices(*mechanism, *world, options.seed, &next, capacity,
                             options.seconds / 2, 0, true, &out));
  } else {
    TRAJLDP_ASSIGN_OR_RETURN(
        measured, RunDevices(*mechanism, *world, options.seed, &next, capacity,
                             options.seconds, sizes.ne_users, false, &out));
  }
  const core::CacheStats cache = mechanism->domain().cache_stats();
  std::cout << "timed: " << measured.users << " users in "
            << measured.Seconds() << " s\n";

  // Exactly-once and the 1-in-32 sample against a sequential PerturbInto.
  const uint64_t end_user = measured.end_user;
  result->attempted = untraced.users + measured.users;
  uint64_t once = 0;
  for (uint64_t u = 0; u < end_user; ++u) once += out.produced[u] == 1 ? 1 : 0;
  result->failed = result->attempted - std::min(once, result->attempted);
  if (result->failed > 0) {
    result->Fail(std::to_string(result->failed) +
                 " users not produced exactly once");
  }
  {
    const core::CollectorPipeline pipeline = mechanism->pipeline();
    core::SamplerWorkspace ws;
    io::ReportBatch one(1);
    io::WireEncodeOptions encode;
    encode.include_user_range = true;
    size_t checked = 0;
    size_t mismatched = 0;
    for (uint64_t u = 0; u < end_user; u += kSampleEvery) {
      if (out.produced[u] == 0) continue;  // claimed after the deadline
      ++checked;
      auto expected =
          PerturbUser(pipeline, *world, options.seed, u, ws, &one[0]).ok()
              ? io::EncodeReportBatch(one, encode)
              : StatusOr<std::string>(Status::Internal("perturb failed"));
      if (!expected.ok() ||
          Fingerprint(*expected) != out.sampled_fingerprint[u / kSampleEvery]) {
        ++mismatched;
      }
    }
    std::cout << "check: " << once << "/" << result->attempted
              << " users produced exactly once; " << checked
              << " sampled frames vs sequential PerturbInto, " << mismatched
              << " mismatched\n";
    if (mismatched > 0 || checked == 0) {
      result->Fail(std::to_string(mismatched) +
                   " sampled frames differ from PerturbInto");
    }
  }

  if (!options.trace) {
    ReportRun(measured.rate, DeviceLatenciesMs(out, measured), false, result);
    AddSetUp(setup_s, result);
    AddMemory(inputs_mb, out.peak_rss_mb, result);
    return AddDeviceNormalizedError(*world, options.seed, std::move(mechanism),
                                    out.ne_frames, result);
  }

  ReportRun(untraced.rate, DeviceLatenciesMs(out, untraced), true, result);
  LayerTimes device;
  for (const SpanLog& log : measured.logs) device.AddLog(log);
  double bytes = 0.0;
  for (const std::string& frame : out.ne_frames) {
    bytes += static_cast<double>(frame.size());
  }
  AddDeviceLayers(device, Ratio(bytes, static_cast<double>(sizes.ne_users)),
                  cache, result);
  // No collector runs here; its layers read zero.
  AddPassLayers(LayerPass{}, result);
  AddCollectorLayers({}, {}, 0, Phase{}, LayerTimes{}, 0.0, result);
  const double unattributed =
      1.0 - Ratio(device.Sum(Layer::kPerturb) + device.Sum(Layer::kEncode),
                  device.Sum(Layer::kDeviceUnit));
  AddTraceLayers(unattributed, measured.rate, untraced.rate,
                 CpuShare(measured.cpu_s, measured.Seconds()),
                 Ratio(1e6, device.Mean(Layer::kDeviceUnit)), result);
  std::vector<const SpanLog*> logs;
  for (const SpanLog& log : measured.logs) logs.push_back(&log);
  return WriteTraceFile(options, std::move(logs));
}

Status RunCityCollect(const Options& options, RunResult* result) {
  Sizes sizes;
  sizes.pool = options.smoke ? 512 : 4096;
  sizes.warmup_users = options.smoke ? 16 : 128;
  sizes.frame_users = 16;
  sizes.ne_users = options.smoke ? 32 : 2048;
  sizes.pass_users = options.smoke ? 16 : 32;
  sizes.rate_hint = 250;
  sizes.setup_reps = options.smoke ? 1 : 3;
  TRAJLDP_ASSIGN_OR_RETURN(auto world, MakeCity(sizes.pool));
  return RunCollectorWorkload(options, world.get(), Transport::kInMemory,
                              sizes, /*materialize=*/true, result);
}

Status RunLattice(const Options& options, bool exactly_once,
                  RunResult* result) {
  Sizes sizes;
  sizes.pool = options.smoke ? 8192 : 65536;
  sizes.warmup_users = options.smoke ? 2000 : 20000;
  sizes.frame_users = 256;
  sizes.ne_users = options.smoke ? 2048 : 20480;
  sizes.pass_users = options.smoke ? 1024 : 8192;
  sizes.rate_hint = 60000;
  sizes.setup_reps = options.smoke ? 1 : 5;
  TRAJLDP_ASSIGN_OR_RETURN(auto world, MakeLattice(options.seed, sizes.pool));
  return RunCollectorWorkload(
      options, world.get(),
      exactly_once ? Transport::kExactlyOnce : Transport::kLoopback, sizes,
      /*materialize=*/false, result);
}

}  // namespace trajldp::suite
