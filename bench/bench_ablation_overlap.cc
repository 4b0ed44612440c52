// Ablation B: why *overlapping* n-grams? (§5.4). Compares three ways of
// spending the same ε at the region level on the campus data:
//   * overlap      — the paper's overlapping bigrams (each position
//                    queried n times, ε′ = ε/(|τ|+n−1));
//   * disjoint     — non-overlapping bigrams (each position queried once,
//                    ε′ = ε/⌈|τ|/2⌉);
//   * independent  — per-position unigrams (ε′ = ε/|τ|).
// All three feed the same optimal reconstruction, isolating the effect of
// the perturbation structure.

#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "common/table_printer.h"
#include "core/mechanism.h"
#include "core/ngram_perturber.h"
#include "core/viterbi_reconstructor.h"
#include "eval/normalized_error.h"
#include "region/region_index.h"

using namespace trajldp;

namespace {

enum class Scheme { kOverlap, kDisjoint, kIndependent };

StatusOr<core::PerturbedNgramSet> PerturbWith(
    Scheme scheme, const core::NgramDomain& domain,
    const region::RegionTrajectory& tau, double epsilon, Rng& rng) {
  const size_t len = tau.size();
  core::PerturbedNgramSet z;
  switch (scheme) {
    case Scheme::kOverlap: {
      core::NgramPerturber perturber(&domain,
                                     core::NgramPerturber::Config{2, epsilon});
      return perturber.Perturb(tau, rng);
    }
    case Scheme::kDisjoint: {
      const size_t fragments = (len + 1) / 2;
      const double eps_prime = epsilon / static_cast<double>(fragments);
      for (size_t a = 1; a <= len; a += 2) {
        const size_t b = std::min(a + 1, len);
        std::vector<region::RegionId> input(
            tau.begin() + static_cast<ptrdiff_t>(a - 1),
            tau.begin() + static_cast<ptrdiff_t>(b));
        auto sampled = domain.Sample(input, eps_prime, rng);
        if (!sampled.ok()) return sampled.status();
        z.push_back(core::PerturbedNgram{a, b, std::move(*sampled)});
      }
      return z;
    }
    case Scheme::kIndependent: {
      const double eps_prime = epsilon / static_cast<double>(len);
      for (size_t a = 1; a <= len; ++a) {
        auto sampled = domain.Sample({tau[a - 1]}, eps_prime, rng);
        if (!sampled.ok()) return sampled.status();
        z.push_back(core::PerturbedNgram{a, a, std::move(*sampled)});
      }
      return z;
    }
  }
  return Status::Internal("unknown scheme");
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Ablation B: overlapping vs disjoint vs independent n-grams",
      "§5.4's design argument for overlapping n-grams");

  auto dataset = eval::MakeCampusDataset(bench::ScaledOptions(262, 400, 9));
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
  core::ViterbiReconstructor viterbi;

  TablePrinter table(
      {"Scheme", "NE d_t (h)", "NE d_c", "NE d_s (km)", "NE combined"});
  for (auto [scheme, name] :
       {std::pair{Scheme::kOverlap, "overlapping (paper)"},
        std::pair{Scheme::kDisjoint, "non-overlapping"},
        std::pair{Scheme::kIndependent, "independent points"}}) {
    Rng rng(13);
    model::TrajectorySet real, perturbed;
    for (const auto& traj : dataset->trajectories) {
      if (real.size() >= eval::ScaledCount(150)) break;
      auto tau = mech->decomposition().ToRegionTrajectory(traj);
      if (!tau.ok()) continue;
      Rng traj_rng = rng.Split();
      auto z = PerturbWith(scheme, mech->domain(), *tau, config.epsilon,
                           traj_rng);
      if (!z.ok()) continue;

      std::vector<region::RegionId> observed;
      for (const auto& gram : *z) {
        observed.insert(observed.end(), gram.regions.begin(),
                        gram.regions.end());
      }
      std::sort(observed.begin(), observed.end());
      observed.erase(std::unique(observed.begin(), observed.end()),
                     observed.end());
      auto problem = core::ReconstructionProblem::Create(
          &mech->distance(), &mech->graph(), tau->size(), *z,
          region::MbrCandidateRegions(mech->decomposition(), observed));
      if (!problem.ok()) continue;
      auto regions = viterbi.Reconstruct(*problem);
      if (!regions.ok()) continue;

      // Region-level → POI-level via the shared reconstructor.
      core::PoiReconstructor poi_reconstructor(
          &mech->decomposition(), &mech->reachability());
      auto result = poi_reconstructor.Reconstruct(*regions, traj_rng);
      if (!result.ok()) continue;
      real.push_back(traj);
      perturbed.push_back(std::move(result->trajectory));
    }
    auto ne = eval::ComputeNormalizedError(dataset->db, dataset->time, real,
                                           perturbed);
    if (!ne.ok()) {
      std::cerr << ne.status() << "\n";
      return 1;
    }
    const double combined = std::sqrt(ne->time_hours * ne->time_hours +
                                      ne->category * ne->category +
                                      ne->space_km * ne->space_km);
    table.AddRow({name, TablePrinter::Fmt(ne->time_hours),
                  TablePrinter::Fmt(ne->category),
                  TablePrinter::Fmt(ne->space_km),
                  TablePrinter::Fmt(combined)});
    std::cout << "finished " << name << "\n";
  }
  std::cout << "\n";
  table.Print(std::cout);

  bench::PrintShapeCheck(
      "§5.4 *asserts* (without an ablation) that overlapping n-grams beat\n"
      "both alternatives. Our measurement is a reproduction finding: under\n"
      "like-for-like budget accounting, NON-overlapping bigrams win.\n"
      "The arithmetic: overlap splits ε over |tau|+n−1 draws and gives\n"
      "each position n noisy looks, but the reconstruction's medoid\n"
      "combination concentrates like sqrt(n), not n — so n draws at\n"
      "ε/(|tau|+n−1) carry less usable signal than one draw at the\n"
      "disjoint scheme's ε/⌈|tau|/2⌉. Overlap's real benefits are\n"
      "structural (every position participates in a feasibility-coupled\n"
      "bigram; no arbitrary fragment boundaries), not statistical.");
  return 0;
}
