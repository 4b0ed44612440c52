// Streaming, shard-ready collection over the binary wire format.
//
//   ./build/streaming_collector [output_dir]
//
// The deployment story this walks through:
//
// 1. Devices perturb locally (the only ε-budgeted step) and frame their
//    ε-LDP reports in the versioned wire format — here written to one
//    file; in production, sent over the network.
// 2. Two independent collector shards each ingest only their partition
//    of the frames through a StreamingCollector: bounded queue, worker
//    pool, releases emitted as they finish — no all-users vector.
// 3. The shard outputs merge into exactly — bit for bit — what a single
//    in-process BatchReleaseEngine::ReleaseAllFull would have produced,
//    because each user's collector-side randomness is keyed by their
//    global user id, not by shard or arrival order.

#include <filesystem>
#include <iostream>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/batch_release_engine.h"
#include "core/mechanism.h"
#include "core/shard_plan.h"
#include "core/streaming_collector.h"
#include "eval/dataset.h"
#include "io/wire.h"

using namespace trajldp;

int main(int argc, char** argv) {
  const std::filesystem::path dir =
      argc > 1 ? argv[1] : std::filesystem::temp_directory_path();
  std::filesystem::create_directories(dir);
  const std::string wire_path = (dir / "reports.tlwb").string();
  constexpr uint64_t kSeed = 42;
  constexpr size_t kBatchSize = 16;
  constexpr size_t kNumShards = 2;

  // Public knowledge + the simulated user base.
  eval::DatasetOptions options;
  options.num_pois = 400;
  options.num_trajectories = 80;
  options.seed = 11;
  auto dataset = eval::MakeTaxiFoursquareDataset(options);
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }
  core::NGramConfig config;
  config.epsilon = 5.0;
  config.reachability = dataset->reachability;
  config.quality_sensitivity = 1.0;  // paper calibration (docs/CALIBRATION.md)
  auto mech = core::NGramMechanism::Build(&dataset->db, dataset->time,
                                          config);
  if (!mech.ok()) {
    std::cerr << mech.status() << "\n";
    return 1;
  }

  // Region-convert the raw trajectories (device-side step).
  std::vector<region::RegionTrajectory> users;
  for (const auto& traj : dataset->trajectories) {
    auto tau = mech->decomposition().ToRegionTrajectory(traj);
    if (tau.ok()) users.push_back(std::move(*tau));
  }
  std::cout << users.size() << " users over "
            << mech->decomposition().num_regions() << " regions\n";

  // --- 1. Devices perturb and frame their reports. -------------------
  core::BatchReleaseEngine device_side(&mech->perturber());
  auto perturbed = device_side.ReleaseAll(users, kSeed);
  if (!perturbed.ok()) {
    std::cerr << perturbed.status() << "\n";
    return 1;
  }
  io::ReportBatch reports = core::MakeWireReports(
      users, std::move(*perturbed), mech->perturber());
  std::vector<io::ReportBatch> batches;
  for (size_t begin = 0; begin < reports.size(); begin += kBatchSize) {
    const size_t end = std::min(begin + kBatchSize, reports.size());
    batches.emplace_back(
        std::make_move_iterator(reports.begin() + begin),
        std::make_move_iterator(reports.begin() + end));
  }
  if (auto st = io::WriteReportBatches(wire_path, batches); !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  std::cout << "wrote " << batches.size() << " wire frames -> " << wire_path
            << " (" << std::filesystem::file_size(wire_path) << " bytes)\n";

  // --- 2. Two independent shards stream the file back in. ------------
  auto read = io::ReadReportBatches(wire_path);
  if (!read.ok()) {
    std::cerr << read.status() << "\n";
    return 1;
  }
  const core::ShardPlan plan{kNumShards};
  std::vector<std::vector<core::UserRelease>> shard_outputs(kNumShards);
  for (size_t s = 0; s < kNumShards; ++s) {
    // Each shard is its own collector — in production, its own process
    // holding nothing but the public city model and the shared seed.
    core::StreamingCollector collector(
        &*mech, kSeed,
        [&shard_outputs, s](core::UserRelease release) {
          shard_outputs[s].push_back(std::move(release));
        });
    for (const io::ReportBatch& batch : *read) {
      io::ReportBatch mine;
      for (const io::WireReport& report : batch) {
        if (plan.ShardOf(report.user_id) == s) mine.push_back(report);
      }
      if (!mine.empty()) {
        if (auto st = collector.Push(std::move(mine)); !st.ok()) {
          std::cerr << st << "\n";
          return 1;
        }
      }
    }
    if (auto st = collector.Finish(); !st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    std::cout << "shard " << s << " released " << shard_outputs[s].size()
              << " users\n";
  }

  // --- 3. Merge and verify against the single-process engine. --------
  auto merged =
      core::MergeShardReleases(std::move(shard_outputs), users.size());
  if (!merged.ok()) {
    std::cerr << merged.status() << "\n";
    return 1;
  }
  core::BatchReleaseEngine engine(&*mech);
  auto reference = engine.ReleaseAllFull(users, kSeed);
  if (!reference.ok()) {
    std::cerr << reference.status() << "\n";
    return 1;
  }
  const bool identical = *merged == *reference;
  std::cout << (identical
                    ? "sharded output is bit-identical to the single-process "
                      "engine\n"
                    : "MISMATCH: sharded output diverged\n");
  return identical ? 0 : 2;
}
