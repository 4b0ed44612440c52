// Public-service planning (§3, Applications): discover popular trip
// chains — "many museum-goers eat lunch out after visiting a museum" —
// from privately shared trajectories.
//
//   ./build/examples/transit_planning
//
// Counts level-1 category transitions (origin-destination by domain) on
// the Safegraph-like dataset, before and after perturbation, and reports
// how well the top chains are preserved.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>

#include "common/rng.h"
#include "common/table_printer.h"
#include "core/mechanism.h"
#include "eval/dataset.h"

using namespace trajldp;

namespace {

using ChainCounts = std::map<std::pair<std::string, std::string>, int>;

ChainCounts CountChains(const model::PoiDatabase& db,
                        const model::TrajectorySet& trajectories) {
  ChainCounts counts;
  const auto& tree = db.categories();
  for (const auto& traj : trajectories) {
    for (size_t i = 1; i < traj.size(); ++i) {
      const auto from = tree.AncestorAtLevel(
          db.poi(traj.point(i - 1).poi).category, 1);
      const auto to =
          tree.AncestorAtLevel(db.poi(traj.point(i).poi).category, 1);
      ++counts[{tree.name(from), tree.name(to)}];
    }
  }
  return counts;
}

std::vector<std::pair<std::pair<std::string, std::string>, int>> TopChains(
    const ChainCounts& counts, size_t k) {
  std::vector<std::pair<std::pair<std::string, std::string>, int>> sorted(
      counts.begin(), counts.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (sorted.size() > k) sorted.resize(k);
  return sorted;
}

}  // namespace

int main() {
  eval::DatasetOptions options;
  options.num_pois = 1000;
  options.num_trajectories = 600;
  options.seed = 17;
  auto dataset = eval::MakeSafegraphDataset(options);
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }

  core::NGramConfig config;
  config.epsilon = 5.0;
  config.reachability = dataset->reachability;
  config.quality_sensitivity = 1.0;  // paper calibration (docs/CALIBRATION.md)
  auto mechanism =
      core::NGramMechanism::Build(&dataset->db, dataset->time, config);
  if (!mechanism.ok()) {
    std::cerr << mechanism.status() << "\n";
    return 1;
  }

  Rng rng(21);
  model::TrajectorySet shared;
  for (const auto& traj : dataset->trajectories) {
    Rng user_rng = rng.Split();
    auto out = mechanism->Perturb(traj, user_rng);
    if (out.ok()) shared.push_back(std::move(*out));
  }

  const ChainCounts real_chains = CountChains(dataset->db,
                                              dataset->trajectories);
  const ChainCounts shared_chains = CountChains(dataset->db, shared);

  std::cout << "Top trip chains (level-1 category transitions):\n\n";
  TablePrinter table({"origin", "destination", "real count", "shared count"});
  const auto top = TopChains(real_chains, 10);
  for (const auto& [chain, count] : top) {
    const auto it = shared_chains.find(chain);
    table.AddRow({chain.first, chain.second, std::to_string(count),
                  std::to_string(it == shared_chains.end() ? 0
                                                           : it->second)});
  }
  table.Print(std::cout);

  // Rank preservation: how many of the real top-10 chains appear in the
  // shared top-10? This is the signal a transit planner would act on.
  const auto shared_top = TopChains(shared_chains, 10);
  int preserved = 0;
  for (const auto& [chain, count] : top) {
    for (const auto& [shared_chain, shared_count] : shared_top) {
      if (chain == shared_chain) {
        ++preserved;
        break;
      }
    }
  }
  std::printf("\n%d of the top-10 real trip chains survive in the shared "
              "top-10.\n",
              preserved);
  std::cout << "A council could now route buses along these chains without "
               "ever seeing an individual's true movements.\n";
  return 0;
}
