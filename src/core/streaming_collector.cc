#include "core/streaming_collector.h"

#include <memory>
#include <utility>

namespace trajldp::core {

io::ReportBatch MakeWireReports(
    std::span<const region::RegionTrajectory> users,
    std::vector<PerturbedNgramSet> perturbed, const NgramPerturber& perturber,
    uint64_t first_user_id) {
  io::ReportBatch reports(users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    reports[i].user_id = first_user_id + i;
    reports[i].trajectory_len = static_cast<uint32_t>(users[i].size());
    reports[i].epsilon_prime =
        perturber.EpsilonPerPerturbation(users[i].size());
    reports[i].ngrams = std::move(perturbed[i]);
  }
  return reports;
}

StreamingCollector::Sink StreamingCollector::FanOutSink(
    std::vector<Sink> sinks) {
  std::vector<Sink> targets;
  targets.reserve(sinks.size());
  for (Sink& sink : sinks) {
    if (sink) targets.push_back(std::move(sink));
  }
  // shared_ptr because std::function requires a copyable callable.
  auto shared = std::make_shared<std::vector<Sink>>(std::move(targets));
  return [shared](UserRelease release) {
    if (shared->empty()) return;
    for (size_t i = 0; i + 1 < shared->size(); ++i) {
      (*shared)[i](release);
    }
    shared->back()(std::move(release));
  };
}

StreamingCollector::StreamingCollector(const NGramMechanism* mechanism,
                                       uint64_t seed, Sink sink)
    : StreamingCollector(mechanism, seed, std::move(sink), Config()) {}

StreamingCollector::StreamingCollector(const NGramMechanism* mechanism,
                                       uint64_t seed, Sink sink,
                                       Config config)
    : pipeline_(mechanism->pipeline()),
      seed_(seed),
      sink_(std::move(sink)),
      dedup_user_ids_(config.dedup_user_ids),
      on_frame_processed_(std::move(config.on_frame_processed)),
      queue_(config.queue_capacity),
      pool_(config.num_threads) {
  domain_ = &mechanism->domain();
  RegisterMetrics(config);
  seen_users_.insert(config.pre_released_user_ids.begin(),
                     config.pre_released_user_ids.end());
  workspaces_.resize(pool_.size());
  for (size_t worker = 0; worker < pool_.size(); ++worker) {
    pool_.Submit([this, worker] { WorkerLoop(worker); });
  }
}

void StreamingCollector::RegisterMetrics(const Config& config) {
  if (config.metrics != nullptr) {
    registry_ = config.metrics;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  const obs::Labels& labels = config.metric_labels;
  released_ctr_ = registry_->GetCounter(
      "trajldp_collector_reports_released_total",
      "Reports fully processed and released through the sink.", labels);
  duplicates_ctr_ = registry_->GetCounter(
      "trajldp_collector_duplicate_reports_total",
      "Reports dropped by user-id dedup (exactly-once backstop).", labels);
  frames_ctr_ = registry_->GetCounter(
      "trajldp_collector_frames_total",
      "Report batches (frames) consumed off the ingest queue.", labels);
  poi_attempts_ctr_ = registry_->GetCounter(
      "trajldp_collector_poi_attempts_total",
      "POI sampling attempts of released reports (§5.6): increasing-time "
      "proposals made, plus one per trajectory the exact DP drew.",
      labels);
  smoothed_ctr_ = registry_->GetCounter(
      "trajldp_collector_poi_smoothed_total",
      "Released reports whose POI trajectory came from the time-smoothing "
      "fallback: their region sequence has no feasible (POI, timestep) "
      "assignment.",
      labels);
  if (config.enable_stage_timing) {
    queue_wait_seconds_ = registry_->GetHistogram(
        "trajldp_collector_queue_wait_seconds",
        "Time a frame waits in the bounded ingest queue before a worker "
        "pops it.",
        obs::DefaultLatencyBounds(), labels);
    decode_seconds_ = registry_->GetHistogram(
        "trajldp_collector_decode_seconds",
        "Wire-frame decode time on a worker.", obs::DefaultLatencyBounds(),
        labels);
    validate_seconds_ = registry_->GetHistogram(
        "trajldp_collector_validate_seconds",
        "Per-report n-gram validation time.", obs::DefaultLatencyBounds(),
        labels);
    reconstruct_seconds_ = registry_->GetHistogram(
        "trajldp_collector_reconstruct_seconds",
        "Per-report reconstruction time (Viterbi decode + POI resampling).",
        obs::DefaultLatencyBounds(), labels);
  }
  // Pull-style gauges, refreshed by the registry's snapshot hook so the
  // hot path never touches them.
  obs::Gauge* queue_depth_g = registry_->GetGauge(
      "trajldp_collector_queue_depth",
      "Frames currently buffered in the ingest queue.", labels);
  obs::Gauge* queue_high_g = registry_->GetGauge(
      "trajldp_collector_queue_high_water",
      "All-time ingest-queue high-water mark.", labels);
  obs::Gauge* dedup_g = registry_->GetGauge(
      "trajldp_collector_dedup_users_claimed",
      "User ids currently claimed in the dedup set.", labels);
  obs::Gauge* cache_g[6] = {
      registry_->GetGauge("trajldp_domain_cache_weight_rows",
                          "EM weight rows resident in the domain cache.",
                          labels),
      registry_->GetGauge("trajldp_domain_cache_suffix_rows",
                          "Suffix rows resident in the domain cache.", labels),
      registry_->GetGauge("trajldp_domain_cache_weight_hits",
                          "Weight-row cache hits.", labels),
      registry_->GetGauge("trajldp_domain_cache_weight_misses",
                          "Weight-row cache misses.", labels),
      registry_->GetGauge("trajldp_domain_cache_suffix_hits",
                          "Suffix-row cache hits.", labels),
      registry_->GetGauge("trajldp_domain_cache_suffix_misses",
                          "Suffix-row cache misses.", labels),
  };
  hook_id_ = registry_->AddHook([this, queue_depth_g, queue_high_g, dedup_g,
                                 cache_g] {
    queue_depth_g->Set(static_cast<double>(queue_depth()));
    queue_high_g->Set(static_cast<double>(queue_high_water()));
    dedup_g->Set(static_cast<double>(dedup_users_claimed()));
    const CacheStats stats = domain_->cache_stats();
    cache_g[0]->Set(static_cast<double>(stats.weight_rows));
    cache_g[1]->Set(static_cast<double>(stats.suffix_rows));
    cache_g[2]->Set(static_cast<double>(stats.weight_hits));
    cache_g[3]->Set(static_cast<double>(stats.weight_misses));
    cache_g[4]->Set(static_cast<double>(stats.suffix_hits));
    cache_g[5]->Set(static_cast<double>(stats.suffix_misses));
  });
}

StreamingCollector::~StreamingCollector() {
  (void)Finish();
  // After this no snapshot can reach the hook; scrapers of an external
  // registry must already be stopped (see Config::metrics).
  if (hook_id_ != 0) registry_->RemoveHook(hook_id_);
}

Status StreamingCollector::Push(io::ReportBatch batch) {
  if (finished_) {
    return Status::FailedPrecondition("Push after Finish on a collector");
  }
  TRAJLDP_RETURN_NOT_OK(FirstError());
  if (!queue_.Push(
          Item{std::move(batch), 0, 0, std::chrono::steady_clock::now()})) {
    return Status::FailedPrecondition("Push after Finish on a collector");
  }
  return Status::Ok();
}

Status StreamingCollector::PushEncoded(std::string frame, uint64_t stream_id,
                                       uint64_t seq) {
  if (finished_) {
    return Status::FailedPrecondition("Push after Finish on a collector");
  }
  TRAJLDP_RETURN_NOT_OK(FirstError());
  if (!queue_.Push(Item{std::move(frame), stream_id, seq,
                        std::chrono::steady_clock::now()})) {
    return Status::FailedPrecondition("Push after Finish on a collector");
  }
  return Status::Ok();
}

Status StreamingCollector::TryPushEncoded(std::string& frame, bool* accepted,
                                          uint64_t stream_id, uint64_t seq) {
  *accepted = false;
  if (finished_) {
    return Status::FailedPrecondition("Push after Finish on a collector");
  }
  TRAJLDP_RETURN_NOT_OK(FirstError());
  Item item{std::move(frame), stream_id, seq,
            std::chrono::steady_clock::now()};
  const QueuePushResult result = queue_.TryPush(item);
  if (result == QueuePushResult::kOk) {
    *accepted = true;
    return Status::Ok();
  }
  frame = std::move(std::get<std::string>(item.payload));  // back to caller
  if (result == QueuePushResult::kClosed) {
    return Status::FailedPrecondition("Push after Finish on a collector");
  }
  return Status::Ok();
}

Status StreamingCollector::Finish() {
  bool expected = false;
  if (finished_.compare_exchange_strong(expected, true)) {
    queue_.Close();
    pool_.Wait();
  }
  return FirstError();
}

void StreamingCollector::WorkerLoop(size_t worker) {
  PipelineWorkspace& ws = workspaces_[worker];
  while (auto item = queue_.Pop()) {
    if (queue_wait_seconds_ != nullptr) {
      queue_wait_seconds_->Observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        item->enqueued)
              .count());
    }
    // After an error, keep draining so blocked producers unblock, but do
    // no further work.
    if (has_error_.load(std::memory_order_relaxed)) continue;
    frames_ctr_->Add(1);
    bool handled = false;
    if (std::holds_alternative<std::string>(item->payload)) {
      const auto decode_start = decode_seconds_ != nullptr
                                    ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};
      auto batch = io::DecodeReportBatch(std::get<std::string>(item->payload));
      if (decode_seconds_ != nullptr) {
        decode_seconds_->Observe(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          decode_start)
                .count());
      }
      if (!batch.ok()) {
        LatchError(batch.status());
        continue;
      }
      handled = ProcessBatch(*batch, ws);
    } else {
      handled = ProcessBatch(std::get<io::ReportBatch>(item->payload), ws);
    }
    // Durability feedback fires only for a FULLY handled tagged frame:
    // a frame cut short by an error latch must not advance anyone's
    // released watermark (compaction would drop its journal record).
    if (handled && item->seq > 0 && on_frame_processed_) {
      on_frame_processed_(item->stream_id, item->seq);
    }
  }
}

bool StreamingCollector::ProcessBatch(const io::ReportBatch& batch,
                                      PipelineWorkspace& ws) {
  for (const io::WireReport& report : batch) {
    if (has_error_.load(std::memory_order_relaxed)) return false;
    if (dedup_user_ids_) {
      // Claim the user id BEFORE any work: whichever copy of a report —
      // replayed from the journal or re-uploaded by a reconnecting
      // client — wins this insert gets released; every other copy is
      // dropped. Output is identical either way because a release is a
      // pure function of (seed, user_id, report bytes).
      std::lock_guard<std::mutex> lock(seen_mu_);
      if (!seen_users_.insert(report.user_id).second) {
        duplicates_ctr_->Add(1);
        continue;
      }
    }
    // On any failure below, give the dedup claim back: this worker won
    // the insert above (a preseeded or already-claimed id never gets
    // here), so erasing is safe — and without it a client fixing and
    // re-uploading the failed user's report would be dropped as a
    // duplicate even though nothing was ever released for the user.
    auto unclaim = [&] {
      if (!dedup_user_ids_) return;
      std::lock_guard<std::mutex> lock(seen_mu_);
      seen_users_.erase(report.user_id);
    };
    const auto validate_start = validate_seconds_ != nullptr
                                    ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};
    Status valid =
        pipeline_.ValidateReport(report.trajectory_len, report.ngrams);
    if (validate_seconds_ != nullptr) {
      validate_seconds_->Observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        validate_start)
              .count());
    }
    if (!valid.ok()) {
      unclaim();
      LatchError(Status(valid.code(),
                        "user " + std::to_string(report.user_id) + ": " +
                            std::string(valid.message())));
      return false;
    }
    // The whole point of the wire format: the collector stream depends
    // only on (seed, global user id), never on which shard, batch, or
    // worker the report landed on.
    Rng collector_rng = CollectorPipeline::CollectorRng(
        CollectorPipeline::UserRng(seed_, report.user_id));
    UserRelease out;
    out.user_id = report.user_id;
    const auto reconstruct_start =
        reconstruct_seconds_ != nullptr ? std::chrono::steady_clock::now()
                                        : std::chrono::steady_clock::time_point{};
    Status status = pipeline_.ReconstructReportInto(
        report.trajectory_len, report.ngrams, collector_rng, ws,
        out.release);
    if (reconstruct_seconds_ != nullptr) {
      reconstruct_seconds_->Observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        reconstruct_start)
              .count());
    }
    if (!status.ok()) {
      unclaim();
      LatchError(Status(status.code(),
                        "user " + std::to_string(report.user_id) + ": " +
                            std::string(status.message())));
      return false;
    }
    poi_attempts_ctr_->Add(out.release.poi_attempts);
    if (out.release.smoothed) smoothed_ctr_->Add(1);
    {
      std::lock_guard<std::mutex> lock(sink_mu_);
      sink_(std::move(out));
    }
    released_ctr_->Add(1);
  }
  return true;
}

size_t StreamingCollector::dedup_users_claimed() const {
  std::lock_guard<std::mutex> lock(seen_mu_);
  return seen_users_.size();
}

void StreamingCollector::LatchError(Status status) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (first_error_.ok()) {
    first_error_ = std::move(status);
    has_error_.store(true, std::memory_order_relaxed);
  }
}

Status StreamingCollector::FirstError() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return first_error_;
}

}  // namespace trajldp::core
