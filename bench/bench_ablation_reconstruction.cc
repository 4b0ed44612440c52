// Ablation A: the optimal reconstruction solved two ways — the paper's
// ILP (via the bundled simplex solver, §5.5) versus the exact layered-DP
// (Viterbi) the collector runs. Verifies that both return the same
// objective value on every instance and compares their runtimes as the
// candidate set grows, substantiating Table 3's observation that the LP
// dominates mechanism runtime.

#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/lp_reconstructor.h"
#include "core/mechanism.h"
#include "core/ngram_perturber.h"
#include "core/viterbi_reconstructor.h"
#include "region/region_index.h"

using namespace trajldp;

namespace {

double ObjectiveOf(const core::ReconstructionProblem& problem,
                   const region::RegionTrajectory& result) {
  std::vector<size_t> assignment(result.size());
  const auto& cands = problem.candidates();
  for (size_t i = 0; i < result.size(); ++i) {
    assignment[i] = static_cast<size_t>(
        std::lower_bound(cands.begin(), cands.end(), result[i]) -
        cands.begin());
  }
  return problem.Objective(assignment);
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Ablation A: LP vs DP reconstruction (equivalence + runtime)",
      "§5.5, §5.8; Table 3's 'Optimal Reconst.' column");

  auto dataset = eval::MakeTaxiFoursquareDataset(
      bench::ScaledOptions(600, 60));
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
  core::NgramPerturber perturber(&mech->domain(),
                                 core::NgramPerturber::Config{2, 5.0});
  core::ViterbiReconstructor viterbi;
  lp::SimplexSolver::Options lp_options;
  lp_options.max_iterations = 50000;
  core::LpReconstructor lp(lp_options);

  // Dense-tableau LPs grow as |candidates|² bigram variables per layer;
  // cap the instance size so the LP side stays tractable (which is itself
  // the point §5.8 makes about the reconstruction's cost).
  constexpr size_t kMaxCandidates = 60;
  constexpr size_t kMaxLen = 5;

  TablePrinter table({"|tau|", "candidates", "bigram vars", "DP (ms)",
                      "LP (ms)", "LP/DP", "objectives equal"});
  Rng rng(77);
  size_t instances = 0, equal = 0;
  for (const auto& traj : dataset->trajectories) {
    if (instances >= 10) break;
    if (traj.size() > kMaxLen) continue;
    auto tau = mech->decomposition().ToRegionTrajectory(traj);
    if (!tau.ok()) continue;
    auto z = perturber.Perturb(*tau, rng);
    if (!z.ok()) continue;

    std::vector<region::RegionId> observed;
    for (const auto& gram : *z) {
      observed.insert(observed.end(), gram.regions.begin(),
                      gram.regions.end());
    }
    std::sort(observed.begin(), observed.end());
    observed.erase(std::unique(observed.begin(), observed.end()),
                   observed.end());
    std::vector<region::RegionId> candidates =
        region::MbrCandidateRegions(mech->decomposition(), observed);
    if (candidates.size() > kMaxCandidates) {
      // Deterministically thin the candidate set, keeping every observed
      // region (both solvers see the identical reduced problem).
      std::vector<region::RegionId> thinned = observed;
      const size_t stride = candidates.size() / kMaxCandidates + 1;
      for (size_t i = 0; i < candidates.size(); i += stride) {
        thinned.push_back(candidates[i]);
      }
      std::sort(thinned.begin(), thinned.end());
      thinned.erase(std::unique(thinned.begin(), thinned.end()),
                    thinned.end());
      candidates = std::move(thinned);
    }
    auto problem = core::ReconstructionProblem::Create(
        &mech->distance(), &mech->graph(), tau->size(), *z, candidates);
    if (!problem.ok()) continue;

    Stopwatch watch;
    auto dp_result = viterbi.Reconstruct(*problem);
    const double dp_ms = watch.ElapsedMillis();
    watch.Restart();
    auto lp_result = lp.Reconstruct(*problem);
    const double lp_ms = watch.ElapsedMillis();
    if (!dp_result.ok() || !lp_result.ok()) continue;

    const double dp_obj = ObjectiveOf(*problem, *dp_result);
    const double lp_obj = ObjectiveOf(*problem, *lp_result);
    const bool same = std::abs(dp_obj - lp_obj) < 1e-6 * (1.0 + dp_obj);
    ++instances;
    if (same) ++equal;

    size_t bigram_vars = 0;
    for (size_t c1 = 0; c1 < candidates.size(); ++c1) {
      for (size_t c2 = 0; c2 < candidates.size(); ++c2) {
        if (problem->Feasible(c1, c2)) ++bigram_vars;
      }
    }
    table.AddRow({std::to_string(tau->size()),
                  std::to_string(candidates.size()),
                  std::to_string(bigram_vars * (tau->size() - 1)),
                  TablePrinter::Fmt(dp_ms, 3), TablePrinter::Fmt(lp_ms, 1),
                  TablePrinter::Fmt(lp_ms / std::max(dp_ms, 1e-6), 0),
                  same ? "yes" : "NO"});
  }
  table.Print(std::cout);
  std::cout << "\n" << mech->graph().num_regions() << " regions, "
            << mech->graph().num_poi_sets()
            << " POI sets: the DP relaxes one "
            << (mech->graph().relax_by_set() ? "POI set" : "edge")
            << " at a time.\n";
  std::cout << equal << "/" << instances
            << " instances solved to identical objectives.\n";

  bench::PrintShapeCheck(
      "The DP and LP must agree on every instance (the flow polytope is\n"
      "integral). The LP should be orders of magnitude slower, which is\n"
      "exactly why the paper's Table 3 shows >85% of mechanism runtime in\n"
      "the LP stage — and why the collector runs the DP.");
  return instances == equal ? 0 : 1;
}
