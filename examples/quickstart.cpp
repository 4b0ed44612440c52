// Quickstart: build a city, construct the NGram mechanism, and perturb a
// single trajectory end-to-end.
//
//   ./build/examples/quickstart
//
// Walks through the full Figure 1 pipeline and prints what happens at
// each stage.

#include <cstdio>
#include <iostream>

#include "common/rng.h"
#include "core/mechanism.h"
#include "eval/dataset.h"
#include "model/semantic_distance.h"

using namespace trajldp;

int main() {
  // 1. Assemble a dataset. MakeTaxiFoursquareDataset stands in for the
  //    paper's NYC Foursquare + taxi data (see docs/CALIBRATION.md).
  eval::DatasetOptions options;
  options.num_pois = 500;
  options.num_trajectories = 10;
  options.seed = 1;
  auto dataset = eval::MakeTaxiFoursquareDataset(options);
  if (!dataset.ok()) {
    std::cerr << "dataset: " << dataset.status() << "\n";
    return 1;
  }
  std::cout << "City with " << dataset->db.size() << " POIs, "
            << dataset->trajectories.size() << " feasible trajectories\n";

  // 2. Build the mechanism. This runs the public pre-processing: STC
  //    decomposition (§5.3) and the region reachability graph — no
  //    privacy budget is consumed here.
  core::NGramConfig config;
  config.n = 2;          // bigrams, the paper's recommendation (§5.8)
  config.epsilon = 5.0;  // the paper's default ε (§6.2)
  config.reachability = dataset->reachability;
  // Paper-calibrated EM sensitivity; drop this line for the strict,
  // provably ε-LDP diameter sensitivity (see docs/CALIBRATION.md).
  config.quality_sensitivity = 1.0;
  auto mechanism =
      core::NGramMechanism::Build(&dataset->db, dataset->time, config);
  if (!mechanism.ok()) {
    std::cerr << "build: " << mechanism.status() << "\n";
    return 1;
  }
  std::cout << "STC decomposition: "
            << mechanism->decomposition().num_regions() << " regions, "
            << mechanism->graph().num_edges()
            << " feasible region bigrams (|W2|)\n";
  std::printf("Pre-processing took %.2fs\n",
              mechanism->preprocessing_seconds());

  // 3. Perturb one user's trajectory. In a deployment this runs on the
  //    user's device; the aggregator only ever sees the output.
  const model::Trajectory& real = dataset->trajectories.front();
  Rng rng(/*seed=*/2026);
  core::StageBreakdown stages;
  auto shared = mechanism->Perturb(real, rng, &stages);
  if (!shared.ok()) {
    std::cerr << "perturb: " << shared.status() << "\n";
    return 1;
  }

  std::cout << "\nReal trajectory:      " << real.DebugString(dataset->time)
            << "\nShared (perturbed):   "
            << shared->DebugString(dataset->time) << "\n\n";

  const model::SemanticDistance distance(&dataset->db, dataset->time);
  std::printf("Semantic distance between them: %.2f (per point %.2f)\n",
              distance.BetweenTrajectories(real, *shared),
              distance.BetweenTrajectories(real, *shared) /
                  static_cast<double>(real.size()));
  std::printf(
      "Stage times: perturb %.3fs, reconstruction prep %.3fs, optimal "
      "reconstruction %.3fs, other %.3fs\n",
      stages.perturb_seconds, stages.reconstruct_prep_seconds,
      stages.optimal_reconstruct_seconds, stages.other_seconds);
  std::cout << "\nEvery draw above satisfies " << config.epsilon
            << "-LDP by Theorem 5.3; rerun with a different seed to get a "
               "different plausible trajectory.\n";
  return 0;
}
