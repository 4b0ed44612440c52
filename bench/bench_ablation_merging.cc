// Ablation D: STC region merging strategies (§5.3, Figure 2). Sweeps the
// κ threshold, the dimension priority, and popularity protection, and
// reports the decomposition size, the resulting |W2|, utility (NE), and
// per-trajectory runtime — the efficiency/utility trade-off
// docs/CALIBRATION.md calls out.

#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "common/table_printer.h"
#include "eval/normalized_error.h"

using namespace trajldp;

namespace {

struct Variant {
  std::string name;
  region::DecompositionConfig config;
};

std::vector<Variant> Variants() {
  std::vector<Variant> out;
  for (size_t kappa : {1u, 5u, 10u, 20u}) {
    Variant v;
    v.name = "kappa=" + std::to_string(kappa) + " (S,T,C)";
    v.config.merge.kappa = kappa;
    out.push_back(v);
  }
  {
    Variant v;
    v.name = "kappa=10 (C,T,S)";
    v.config.merge.kappa = 10;
    v.config.merge.priority = {region::MergeDimension::kCategory,
                               region::MergeDimension::kTime,
                               region::MergeDimension::kSpace};
    out.push_back(v);
  }
  {
    Variant v;
    v.name = "kappa=10 (T,S,C)";
    v.config.merge.kappa = 10;
    v.config.merge.priority = {region::MergeDimension::kTime,
                               region::MergeDimension::kSpace,
                               region::MergeDimension::kCategory};
    out.push_back(v);
  }
  {
    Variant v;
    v.name = "kappa=10 + popularity protection";
    v.config.merge.kappa = 10;
    // Protect the most popular ~2% of POIs (Zipf head) from merging,
    // mirroring Figure 2c.
    v.config.merge.protect_popularity = 50.0;
    out.push_back(v);
  }
  return out;
}

}  // namespace

int main() {
  bench::PrintHeader("Ablation D: STC region merging strategies",
                     "§5.3, Figure 2; §7.1.1's merging discussion");

  auto dataset = eval::MakeTaxiFoursquareDataset(
      bench::ScaledOptions(bench::kDefaultPois, 150));
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }

  TablePrinter table({"Variant", "regions", "|W2|", "NE d_t", "NE d_c",
                      "NE d_s", "ms/traj"});
  for (const Variant& variant : Variants()) {
    eval::ExperimentConfig config;
    config.epsilon = 5.0;
    config.decomposition = variant.config;
    config.max_trajectories = eval::ScaledCount(100);

    // Build once to report decomposition statistics.
    core::NGramConfig mc;
    mc.epsilon = config.epsilon;
    mc.reachability = dataset->reachability;
    mc.quality_sensitivity = 1.0;  // paper calibration (docs/CALIBRATION.md)
    mc.decomposition = variant.config;
    auto mech = core::NGramMechanism::Build(&dataset->db, dataset->time, mc);
    if (!mech.ok()) {
      std::cerr << variant.name << ": " << mech.status() << "\n";
      return 1;
    }

    auto result = eval::RunMethod(*dataset, eval::Method::kNGram, config);
    if (!result.ok()) {
      std::cerr << variant.name << ": " << result.status() << "\n";
      return 1;
    }
    auto ne = eval::ComputeNormalizedError(dataset->db, dataset->time,
                                           result->real, result->perturbed);
    if (!ne.ok()) {
      std::cerr << ne.status() << "\n";
      return 1;
    }
    table.AddRow({variant.name,
                  std::to_string(mech->decomposition().num_regions()),
                  std::to_string(mech->graph().num_edges()),
                  TablePrinter::Fmt(ne->time_hours),
                  TablePrinter::Fmt(ne->category),
                  TablePrinter::Fmt(ne->space_km),
                  TablePrinter::Fmt(
                      result->MeanSecondsPerTrajectory() * 1000.0, 1)});
    std::cout << "finished " << variant.name << "\n";
  }
  std::cout << "\n";
  table.Print(std::cout);

  bench::PrintShapeCheck(
      "Higher kappa -> fewer regions -> smaller |W2| -> faster\n"
      "perturbation/reconstruction, at some utility cost (coarser\n"
      "regions). Merging category first (C,T,S) should hurt d_c and help\n"
      "d_s relative to the default (S,T,C) — the trade-off §5.3 describes\n"
      "('if preserving the category of POIs is important, merge time and\n"
      "space first'). Popularity protection keeps hot regions fine-\n"
      "grained at a modest region-count increase (Figure 2c).");
  return 0;
}
