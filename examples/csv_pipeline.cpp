// End-to-end CSV pipeline: the deployment-shaped workflow.
//
//   ./build/csv_pipeline [output_dir]
//
// 1. Export the public knowledge base (POIs + categories) to CSV — in a
//    real deployment these files come from a location-service API
//    (§6.1.4), not a generator.
// 2. Export the raw trajectories (these never leave users' devices in
//    production; here they are the simulation input).
// 3. Reload everything from CSV, build the mechanism from the reloaded
//    database, perturb, and write the shared set to CSV.
// 4. Convert the same CSV trajectories into wire-format report frames —
//    the CSV→wire bridge: what leaves a device for a streaming/sharded
//    collector is the binary report, not a CSV row (see
//    docs/WIRE_FORMAT.md and examples/streaming_collector.cpp).

#include <filesystem>
#include <iostream>
#include <vector>

#include "common/rng.h"
#include "core/batch_release_engine.h"
#include "core/mechanism.h"
#include "core/streaming_collector.h"
#include "eval/dataset.h"
#include "eval/normalized_error.h"
#include "io/dataset_io.h"
#include "io/wire.h"

using namespace trajldp;

int main(int argc, char** argv) {
  const std::filesystem::path dir =
      argc > 1 ? argv[1] : std::filesystem::temp_directory_path();
  std::filesystem::create_directories(dir);
  const std::string poi_path = (dir / "pois.csv").string();
  const std::string cat_path = (dir / "categories.csv").string();
  const std::string real_path = (dir / "trajectories_real.csv").string();
  const std::string shared_path = (dir / "trajectories_shared.csv").string();

  // 1–2. Produce the interchange files.
  eval::DatasetOptions options;
  options.num_pois = 400;
  options.num_trajectories = 60;
  options.seed = 11;
  auto dataset = eval::MakeTaxiFoursquareDataset(options);
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }
  if (auto st = io::WritePoiDatabase(dataset->db, poi_path, cat_path);
      !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  if (auto st = io::WriteTrajectories(dataset->trajectories, real_path);
      !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  std::cout << "wrote " << poi_path << ", " << cat_path << ", " << real_path
            << "\n";

  // 3. Reload from disk — from here on, only CSV data is used.
  auto db = io::ReadPoiDatabase(poi_path, cat_path);
  if (!db.ok()) {
    std::cerr << db.status() << "\n";
    return 1;
  }
  auto real = io::ReadTrajectories(real_path, *db, dataset->time);
  if (!real.ok()) {
    std::cerr << real.status() << "\n";
    return 1;
  }

  core::NGramConfig config;
  config.epsilon = 5.0;
  config.reachability = dataset->reachability;
  config.quality_sensitivity = 1.0;  // paper calibration (docs/CALIBRATION.md)
  auto mechanism = core::NGramMechanism::Build(&*db, dataset->time, config);
  if (!mechanism.ok()) {
    std::cerr << mechanism.status() << "\n";
    return 1;
  }

  Rng rng(17);
  model::TrajectorySet kept_real, shared;
  for (const auto& traj : *real) {
    Rng user_rng = rng.Split();
    auto out = mechanism->Perturb(traj, user_rng);
    if (out.ok()) {
      kept_real.push_back(traj);
      shared.push_back(std::move(*out));
    }
  }
  if (auto st = io::WriteTrajectories(shared, shared_path); !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  std::cout << "perturbed " << shared.size() << " trajectories -> "
            << shared_path << "\n";

  auto ne = eval::ComputeNormalizedError(*db, dataset->time, kept_real,
                                         shared);
  if (ne.ok()) {
    std::printf("NE vs the originals: d_t %.2f h, d_c %.2f, d_s %.2f km\n",
                ne->time_hours, ne->category, ne->space_km);
  }

  // 4. CSV → wire format: region-convert the reloaded CSV trajectories,
  //    perturb them into ε-LDP reports, and frame the reports for a
  //    streaming collector. This file is the hand-off point between the
  //    CSV world (public data, simulation inputs) and the binary wire
  //    world (what devices actually transmit).
  const std::string wire_path = (dir / "reports.tlwb").string();
  {
    std::vector<region::RegionTrajectory> users;
    for (const auto& traj : *real) {
      auto tau = mechanism->decomposition().ToRegionTrajectory(traj);
      if (tau.ok()) users.push_back(std::move(*tau));
    }
    core::BatchReleaseEngine device_side(&mechanism->perturber());
    auto perturbed = device_side.ReleaseAll(users, /*seed=*/17);
    if (!perturbed.ok()) {
      std::cerr << perturbed.status() << "\n";
      return 1;
    }
    const std::vector<io::ReportBatch> batches{core::MakeWireReports(
        users, std::move(*perturbed), mechanism->perturber())};
    if (auto st = io::WriteReportBatches(wire_path, batches); !st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    auto roundtrip = io::ReadReportBatches(wire_path);
    if (!roundtrip.ok()) {
      std::cerr << "wire round-trip failed: " << roundtrip.status() << "\n";
      return 1;
    }
    if (*roundtrip != batches) {
      std::cerr << "wire round-trip failed: reread reports differ from "
                   "what was written\n";
      return 1;
    }
    std::cout << "converted " << users.size()
              << " CSV trajectories to wire reports -> " << wire_path
              << " (" << std::filesystem::file_size(wire_path)
              << " bytes, round-trip verified)\n";
  }

  std::cout << "The shared CSV is what an aggregator would receive; the\n"
               "real CSV never leaves the device in a deployment. The\n"
               "wire file is the same hand-off for streaming collectors.\n";
  return 0;
}
