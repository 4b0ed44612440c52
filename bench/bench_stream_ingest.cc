// Streaming-ingest benchmark (ISSUE 3 acceptance criteria): feed
// wire-format report batches through the StreamingCollector and measure
// ingest throughput across batch size × queue depth × shard count, on
// the same ~200-region / n = 2 world as bench_batch_e2e. Every
// configuration's merged output must be bit-identical to
// BatchReleaseEngine::ReleaseAllFull under the same seed — the property
// that makes the collector shard-ready.
//
//   ./build/bench_stream_ingest [--json PATH] [--users N]
//
// The timed section is the collector side only: PushEncoded (framing
// already paid by the devices) → decode + validate + reconstruct on the
// worker pool → sink → shard merge. The batch engine's ReleaseAllFull
// over the same users is timed alongside as the non-streaming baseline.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/batch_release_engine.h"
#include "core/mechanism.h"
#include "core/shard_plan.h"
#include "core/streaming_collector.h"
#include "io/wire.h"
#include "test_support.h"

namespace trajldp {
namespace {

using core::FullRelease;
using region::RegionId;

struct RunResult {
  size_t batch_size = 0;
  size_t queue_capacity = 0;
  size_t shards = 0;
  double seconds = 0.0;
  double users_per_sec = 0.0;
  bool identical = false;
};

int Run(size_t num_users, const std::string& json_path) {
  constexpr int kN = 2;
  constexpr double kEpsilon = 5.0;
  constexpr size_t kTrajectoryLen = 5;
  constexpr uint64_t kSeed = 20260729;

  // Same ~200-region world as bench_batch_e2e.
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

  // --- Baseline: the in-process batch engine. ------------------------
  std::vector<FullRelease> reference;
  double batch_seconds = 0.0;
  {
    core::BatchReleaseEngine engine(&*mech,
                                    core::BatchReleaseEngine::Config{0});
    Stopwatch watch;
    auto result = engine.ReleaseAllFull(users, kSeed);
    batch_seconds = watch.ElapsedSeconds();
    if (!result.ok()) {
      std::cerr << "batch engine: " << result.status() << "\n";
      return 1;
    }
    reference = std::move(*result);
  }

  // --- Device side: the ε-LDP reports, as collected. -----------------
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

  // One streaming configuration: shard the reports, pre-encode frames of
  // `batch_size` reports (framing is the devices' cost), then time
  // PushEncoded → decode/reconstruct → sink → merge.
  auto run_stream = [&](size_t batch_size, size_t queue_capacity,
                        size_t num_shards) -> StatusOr<RunResult> {
    const core::ShardPlan plan{num_shards};
    auto sharded = core::PartitionByShard(plan, io::ReportBatch(reports));
    std::vector<std::vector<std::string>> frames(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      for (size_t begin = 0; begin < sharded[s].size();
           begin += batch_size) {
        const size_t end = std::min(begin + batch_size, sharded[s].size());
        auto frame = io::EncodeReportBatch(
            std::span<const io::WireReport>(sharded[s].data() + begin,
                                            end - begin));
        if (!frame.ok()) return frame.status();
        frames[s].push_back(std::move(*frame));
      }
    }

    std::vector<std::vector<core::UserRelease>> outputs(num_shards);
    RunResult result;
    result.batch_size = batch_size;
    result.queue_capacity = queue_capacity;
    result.shards = num_shards;

    Stopwatch watch;
    {
      core::StreamingCollector::Config collector_config;
      collector_config.num_threads = std::max<size_t>(1, hw_threads);
      collector_config.queue_capacity = queue_capacity;
      std::vector<std::unique_ptr<core::StreamingCollector>> collectors;
      for (size_t s = 0; s < num_shards; ++s) {
        collectors.push_back(std::make_unique<core::StreamingCollector>(
            &*mech, kSeed,
            [&outputs, s](core::UserRelease release) {
              outputs[s].push_back(std::move(release));
            },
            collector_config));
      }
      // Round-robin producer, mimicking frames arriving interleaved.
      size_t remaining = num_shards;
      std::vector<size_t> cursor(num_shards, 0);
      while (remaining > 0) {
        remaining = 0;
        for (size_t s = 0; s < num_shards; ++s) {
          if (cursor[s] >= frames[s].size()) continue;
          TRAJLDP_RETURN_NOT_OK(
              collectors[s]->PushEncoded(std::move(frames[s][cursor[s]])));
          ++cursor[s];
          if (cursor[s] < frames[s].size()) ++remaining;
        }
      }
      for (auto& collector : collectors) {
        TRAJLDP_RETURN_NOT_OK(collector->Finish());
      }
    }
    auto merged = core::MergeShardReleases(std::move(outputs), num_users);
    result.seconds = watch.ElapsedSeconds();
    if (!merged.ok()) return merged.status();
    result.users_per_sec = static_cast<double>(num_users) / result.seconds;
    result.identical = *merged == reference;
    return result;
  };

  std::vector<RunResult> runs;
  bool all_identical = true;
  for (const size_t batch_size : {64u, 256u, 1024u}) {
    for (const size_t queue_capacity : {2u, 8u}) {
      for (const size_t num_shards : {1u, 2u, 4u}) {
        auto result = run_stream(batch_size, queue_capacity, num_shards);
        if (!result.ok()) {
          std::cerr << "stream(batch=" << batch_size
                    << ", queue=" << queue_capacity
                    << ", shards=" << num_shards << "): " << result.status()
                    << "\n";
          return 1;
        }
        all_identical = all_identical && result->identical;
        std::printf(
            "batch %5zu  queue %2zu  shards %zu : %8.0f users/s (%.3f s)%s\n",
            result->batch_size, result->queue_capacity, result->shards,
            result->users_per_sec, result->seconds,
            result->identical ? "" : "  MISMATCH");
        runs.push_back(*result);
      }
    }
  }

  double best_users_per_sec = 0.0;
  for (const RunResult& run : runs) {
    best_users_per_sec = std::max(best_users_per_sec, run.users_per_sec);
  }
  const double batch_users_per_sec =
      static_cast<double>(num_users) / batch_seconds;
  std::cout << "batch engine baseline: " << batch_users_per_sec
            << " users/s (" << batch_seconds << " s)\n"
            << "best streaming config: " << best_users_per_sec
            << " users/s\n"
            << "all configs bit-identical to batch engine: "
            << (all_identical ? "yes" : "NO — DETERMINISM BUG") << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot open " << json_path << " for writing\n";
      return 1;
    }
    out << "{\n"
        << "  \"bench\": \"stream_ingest\",\n"
        << "  \"num_users\": " << num_users << ",\n"
        << "  \"num_regions\": " << num_regions << ",\n"
        << "  \"ngram_n\": " << kN << ",\n"
        << "  \"epsilon\": " << kEpsilon << ",\n"
        << "  \"trajectory_len\": " << kTrajectoryLen << ",\n"
        << "  \"hw_threads\": " << hw_threads << ",\n"
        << "  \"batch_engine_seconds\": " << batch_seconds << ",\n"
        << "  \"batch_engine_users_per_sec\": " << batch_users_per_sec
        << ",\n"
        << "  \"best_stream_users_per_sec\": " << best_users_per_sec << ",\n"
        << "  \"bit_identical\": " << (all_identical ? "true" : "false")
        << ",\n"
        << "  \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
      const RunResult& run = runs[i];
      out << "    {\"batch_size\": " << run.batch_size
          << ", \"queue_capacity\": " << run.queue_capacity
          << ", \"shards\": " << run.shards << ", \"seconds\": "
          << run.seconds << ", \"users_per_sec\": " << run.users_per_sec
          << ", \"bit_identical\": " << (run.identical ? "true" : "false")
          << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  return all_identical ? 0 : 2;
}

}  // namespace
}  // namespace trajldp

int main(int argc, char** argv) {
  // Env default first; an explicit --users flag wins over it.
  size_t num_users = 5000;
  if (const char* env = std::getenv("TRAJLDP_BENCH_STREAM_USERS")) {
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
