// Streaming-analytics benchmark (ISSUE 9 acceptance criteria): attach a
// StreamAnalytics bundle (hotspots + PRQ sketch + windowed top-k) to
// StreamingCollector sinks via FanOutSink and verify, with the exit
// code, that
//   (a) K ∈ {1, 2, 4} shard bundles merged together finalize EXACTLY
//       what batch FindHotspots / PrqCurve compute over the materialized
//       releases of the same (seed, users), and
//   (b) running analytics inline costs less than 2× the peak RSS of
//       ingest alone (the aggregates are bounded by entities × bins, not
//       by users).
// Peak RSS per phase is measured by resetting the kernel's high-water
// mark (write "5" to /proc/self/clear_refs) and reading VmHWM after the
// phase; where the reset is unsupported the ratio gate is skipped and
// recorded as such.
//
//   ./build/bench_stream_analytics [--json PATH] [--users N]

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analytics/stream_analytics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/batch_release_engine.h"
#include "core/mechanism.h"
#include "core/shard_plan.h"
#include "core/streaming_collector.h"
#include "eval/hotspots.h"
#include "eval/range_queries.h"
#include "io/wire.h"
#include "test_support.h"

namespace trajldp {
namespace {

using region::RegionId;

// Resets the kernel's peak-RSS high-water mark for this process so the
// next ReadPeakRssBytes() reflects only the phase that follows.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

size_t ReadPeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<size_t>(
                 std::atoll(line.c_str() + sizeof("VmHWM:") - 1)) *
             1024;
    }
  }
  // Fallback: getrusage's monotonic high-water mark (never resets, so
  // phase ratios from it are meaningless — callers check the reset).
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<size_t>(usage.ru_maxrss) * 1024;
}

struct EqualityResult {
  size_t shards = 0;
  bool hotspots_equal = false;
  bool prq_equal = false;
  bool topk_equal = false;
  double seconds = 0.0;

  bool all_equal() const {
    return hotspots_equal && prq_equal && topk_equal;
  }
};

int Run(size_t num_users, const std::string& json_path) {
  constexpr int kN = 2;
  constexpr double kEpsilon = 5.0;
  constexpr size_t kTrajectoryLen = 5;
  constexpr uint64_t kSeed = 20260729;

  // Same ~200-region world as bench_stream_ingest / bench_batch_e2e.
  auto db = bench::MakeLatticeDb(2000);
  if (!db.ok()) {
    std::cerr << db.status() << "\n";
    return 1;
  }
  const auto time = *model::TimeDomain::Create(10);
  core::NGramConfig config;
  config.n = kN;
  config.epsilon = kEpsilon;
  config.decomposition.grid_size = 5;
  config.decomposition.coarse_grids = {1};
  config.decomposition.base_interval_minutes = 1440;
  config.decomposition.merge.kappa = 1;
  config.reachability.speed_kmh = 8.0;
  config.reachability.reference_gap_minutes = 30;
  auto mech = core::NGramMechanism::Build(&*db, time, config);
  if (!mech.ok()) {
    std::cerr << mech.status() << "\n";
    return 1;
  }
  const size_t num_regions = mech->decomposition().num_regions();
  const size_t hw_threads = ThreadPool::DefaultThreadCount();
  std::cout << "world: " << num_regions << " regions, " << num_users
            << " users, n=" << kN << ", epsilon=" << kEpsilon
            << ", L=" << kTrajectoryLen << ", hw threads: " << hw_threads
            << "\n";

  std::vector<region::RegionTrajectory> users(num_users);
  {
    Rng rng(4242);
    for (auto& tau : users) {
      for (size_t i = 0; i < kTrajectoryLen; ++i) {
        tau.push_back(static_cast<RegionId>(rng.UniformUint64(num_regions)));
      }
    }
  }

  // Device side: the ε-LDP wire reports.
  io::ReportBatch reports;
  {
    core::BatchReleaseEngine engine(&mech->perturber(),
                                    core::BatchReleaseEngine::Config{0});
    auto perturbed = engine.ReleaseAll(users, kSeed);
    if (!perturbed.ok()) {
      std::cerr << "device perturb: " << perturbed.status() << "\n";
      return 1;
    }
    reports = core::MakeWireReports(users, std::move(*perturbed),
                                    mech->perturber());
  }

  // Synthetic real POI trajectories (deterministic per user id) — the
  // pairing side of the PRQ curves.
  std::vector<model::Trajectory> real_by_user(num_users);
  for (size_t u = 0; u < num_users; ++u) {
    for (size_t i = 0; i < kTrajectoryLen; ++i) {
      real_by_user[u].Append(
          static_cast<model::PoiId>((u * 7 + i * 3) % db->size()),
          static_cast<model::Timestep>((u + i * 11) %
                                       static_cast<size_t>(
                                           time.num_timesteps())));
    }
  }

  // The bundle configuration shared by every phase.
  analytics::StreamAnalyticsConfig bundle_config;
  bundle_config.hotspots.emplace();
  bundle_config.hotspots->entity = eval::HotspotSpec::Entity::kSpatialGrid;
  bundle_config.hotspots->grid_size = 4;
  bundle_config.hotspots->eta =
      std::max<int>(2, static_cast<int>(num_users / 100));
  bundle_config.prq.push_back(
      {eval::PrqDimension::kSpace, {0.0, 1.0, 4.0, 16.0, 1e9}});
  bundle_config.top_k.emplace();
  bundle_config.top_k->window_minutes = 120;
  bundle_config.top_k->k = 10;
  bundle_config.real_lookup = [&real_by_user](uint64_t id) {
    return id < real_by_user.size() ? &real_by_user[id] : nullptr;
  };

  // --- Batch reference: materialized releases + batch eval. ----------
  model::TrajectorySet released_set, real_set;
  {
    core::BatchReleaseEngine engine(&*mech,
                                    core::BatchReleaseEngine::Config{0});
    auto reference = engine.ReleaseAllFull(users, kSeed);
    if (!reference.ok()) {
      std::cerr << "batch engine: " << reference.status() << "\n";
      return 1;
    }
    for (size_t u = 0; u < num_users; ++u) {
      released_set.push_back(std::move((*reference)[u].trajectory));
      real_set.push_back(real_by_user[u]);
    }
  }
  auto batch_hotspots =
      eval::FindHotspots(*db, time, released_set, *bundle_config.hotspots);
  if (!batch_hotspots.ok()) {
    std::cerr << "batch hotspots: " << batch_hotspots.status() << "\n";
    return 1;
  }
  auto batch_curve = eval::PrqCurve(*db, time, real_set, released_set,
                                    bundle_config.prq[0].dimension,
                                    bundle_config.prq[0].deltas);
  if (!batch_curve.ok()) {
    std::cerr << "batch PRQ: " << batch_curve.status() << "\n";
    return 1;
  }
  auto batch_topk_acc =
      analytics::WindowedTopK::Create(&*db, time, *bundle_config.top_k);
  if (!batch_topk_acc.ok()) {
    std::cerr << "batch top-k: " << batch_topk_acc.status() << "\n";
    return 1;
  }
  for (const auto& traj : released_set) batch_topk_acc->Add(traj);
  const auto batch_topk = batch_topk_acc->Finalize();
  std::cout << "batch eval: " << batch_hotspots->size() << " hotspots (eta "
            << bundle_config.hotspots->eta << ")\n";

  // Runs one K-shard streaming pass. `with_analytics` toggles the
  // analytics fan-out; when off the sink only counts (the ingest-only
  // memory baseline). Returns the merged bundle when analytics ran.
  auto run_stream =
      [&](size_t num_shards, bool with_analytics, double* seconds)
      -> StatusOr<std::vector<analytics::StreamAnalytics>> {
    const core::ShardPlan plan{num_shards};
    auto sharded = core::PartitionByShard(plan, io::ReportBatch(reports));
    std::vector<analytics::StreamAnalytics> bundles;
    if (with_analytics) {
      for (size_t s = 0; s < num_shards; ++s) {
        TRAJLDP_ASSIGN_OR_RETURN(
            auto bundle,
            analytics::StreamAnalytics::Create(&*db, time, bundle_config));
        bundles.push_back(std::move(bundle));
      }
    }
    Stopwatch watch;
    for (size_t s = 0; s < num_shards; ++s) {
      core::StreamingCollector::Config collector_config;
      collector_config.num_threads = std::max<size_t>(1, hw_threads);
      collector_config.queue_capacity = 8;
      core::StreamingCollector::Sink sink;
      if (with_analytics) {
        analytics::StreamAnalytics& bundle = bundles[s];
        sink = [&bundle](core::UserRelease release) {
          bundle.Consume(release);
        };
      } else {
        sink = [](core::UserRelease) {};
      }
      core::StreamingCollector collector(&*mech, kSeed, std::move(sink),
                                         collector_config);
      for (size_t begin = 0; begin < sharded[s].size(); begin += 256) {
        const size_t end = std::min(begin + 256, sharded[s].size());
        TRAJLDP_RETURN_NOT_OK(collector.Push(io::ReportBatch(
            sharded[s].begin() + begin, sharded[s].begin() + end)));
      }
      TRAJLDP_RETURN_NOT_OK(collector.Finish());
      if (with_analytics) {
        TRAJLDP_RETURN_NOT_OK(bundles[s].status());
      }
    }
    *seconds = watch.ElapsedSeconds();
    for (size_t s = 1; s < bundles.size(); ++s) {
      TRAJLDP_RETURN_NOT_OK(bundles[0].Merge(bundles[s]));
    }
    return bundles;
  };

  // --- Memory phases (K = 1): ingest-only, then ingest + analytics. --
  const bool peak_reset_supported = ResetPeakRss();
  double ingest_seconds = 0.0;
  {
    auto result = run_stream(1, /*with_analytics=*/false, &ingest_seconds);
    if (!result.ok()) {
      std::cerr << "ingest-only: " << result.status() << "\n";
      return 1;
    }
  }
  const size_t ingest_peak_bytes = ReadPeakRssBytes();

  if (peak_reset_supported) ResetPeakRss();
  double analytics_seconds = 0.0;
  size_t aggregate_bytes = 0;
  {
    auto result = run_stream(1, /*with_analytics=*/true, &analytics_seconds);
    if (!result.ok()) {
      std::cerr << "ingest+analytics: " << result.status() << "\n";
      return 1;
    }
    aggregate_bytes = (*result)[0].ApproxMemoryBytes();
  }
  const size_t analytics_peak_bytes = ReadPeakRssBytes();
  const double peak_ratio = static_cast<double>(analytics_peak_bytes) /
                            static_cast<double>(ingest_peak_bytes);
  const bool memory_ok = !peak_reset_supported || peak_ratio < 2.0;
  std::printf(
      "peak RSS: ingest-only %.1f MiB, ingest+analytics %.1f MiB "
      "(ratio %.3f%s), aggregates %.1f KiB\n",
      ingest_peak_bytes / 1048576.0, analytics_peak_bytes / 1048576.0,
      peak_ratio, peak_reset_supported ? "" : ", reset unsupported",
      aggregate_bytes / 1024.0);
  std::printf("throughput: ingest-only %.0f users/s, with analytics %.0f "
              "users/s\n",
              num_users / ingest_seconds, num_users / analytics_seconds);

  // --- Equality gate: K ∈ {1, 2, 4} merged bundles vs batch eval. ----
  std::vector<EqualityResult> equality;
  bool all_equal = true;
  for (const size_t num_shards : {1u, 2u, 4u}) {
    EqualityResult result;
    result.shards = num_shards;
    auto bundles = run_stream(num_shards, /*with_analytics=*/true,
                              &result.seconds);
    if (!bundles.ok()) {
      std::cerr << "stream(shards=" << num_shards << "): "
                << bundles.status() << "\n";
      return 1;
    }
    const analytics::StreamAnalytics& merged = (*bundles)[0];
    result.hotspots_equal =
        merged.hotspots()->Finalize() == *batch_hotspots;
    auto stream_curve = merged.prq()[0].Curve();
    if (!stream_curve.ok()) {
      std::cerr << "stream PRQ: " << stream_curve.status() << "\n";
      return 1;
    }
    result.prq_equal = *stream_curve == *batch_curve;  // exact, by design
    result.topk_equal = merged.top_k()->Finalize() == batch_topk;
    all_equal = all_equal && result.all_equal();
    std::printf(
        "shards %zu : hotspots %s  prq %s  topk %s  (%.3f s)\n",
        num_shards, result.hotspots_equal ? "equal" : "MISMATCH",
        result.prq_equal ? "equal" : "MISMATCH",
        result.topk_equal ? "equal" : "MISMATCH", result.seconds);
    equality.push_back(result);
  }

  std::cout << "analytics equal to batch eval across shard counts: "
            << (all_equal ? "yes" : "NO — EQUIVALENCE BUG") << "\n"
            << "peak-memory gate (< 2x ingest-only): "
            << (memory_ok ? "ok" : "EXCEEDED") << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot open " << json_path << " for writing\n";
      return 1;
    }
    out << "{\n"
        << "  \"bench\": \"stream_analytics\",\n"
        << "  \"num_users\": " << num_users << ",\n"
        << "  \"num_regions\": " << num_regions << ",\n"
        << "  \"hotspot_eta\": " << bundle_config.hotspots->eta << ",\n"
        << "  \"batch_hotspots\": " << batch_hotspots->size() << ",\n"
        << "  \"analytics_equal_to_batch_eval\": "
        << (all_equal ? "true" : "false") << ",\n"
        << "  \"analytics_peak_bytes\": " << analytics_peak_bytes << ",\n"
        << "  \"ingest_peak_bytes\": " << ingest_peak_bytes << ",\n"
        << "  \"analytics_peak_ratio\": " << peak_ratio << ",\n"
        << "  \"peak_reset_supported\": "
        << (peak_reset_supported ? "true" : "false") << ",\n"
        << "  \"aggregate_bytes\": " << aggregate_bytes << ",\n"
        << "  \"ingest_users_per_sec\": " << num_users / ingest_seconds
        << ",\n"
        << "  \"analytics_users_per_sec\": "
        << num_users / analytics_seconds << ",\n"
        << "  \"runs\": [\n";
    for (size_t i = 0; i < equality.size(); ++i) {
      const EqualityResult& run = equality[i];
      out << "    {\"shards\": " << run.shards << ", \"hotspots_equal\": "
          << (run.hotspots_equal ? "true" : "false") << ", \"prq_equal\": "
          << (run.prq_equal ? "true" : "false") << ", \"topk_equal\": "
          << (run.topk_equal ? "true" : "false") << ", \"seconds\": "
          << run.seconds << "}" << (i + 1 < equality.size() ? "," : "")
          << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  return (all_equal && memory_ok) ? 0 : 2;
}

}  // namespace
}  // namespace trajldp

int main(int argc, char** argv) {
  // Env default first; an explicit --users flag wins over it.
  size_t num_users = 5000;
  if (const char* env = std::getenv("TRAJLDP_BENCH_ANALYTICS_USERS")) {
    num_users = static_cast<size_t>(std::atoll(env));
  }
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--users") == 0 && i + 1 < argc) {
      num_users = static_cast<size_t>(std::atoll(argv[++i]));
    } else {
      std::cerr << "usage: " << argv[0] << " [--json PATH] [--users N]\n";
      return 1;
    }
  }
  return trajldp::Run(num_users, json_path);
}
