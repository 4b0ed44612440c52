// End-to-end batched pipeline benchmark: on a ~200-region / n = 2 /
// multi-user workload at fixed ε, run the full collector pipeline —
// perturb → R_mbr candidates → optimal region-level reconstruction →
// POI-level resampling — three ways and compare:
//
//  1. seed path   — faithful replica of the pre-optimisation per-user
//     loop: uncached perturbation (O(R) distance + exp() rows per draw),
//     node-error tables filled with per-pair haversine + category walks,
//     per-call solver allocations, and the paper's γ = 50,000 POI loop
//     (see seed_replica.h);
//  2. sequential  — today's per-user loop (cached rows + float-table
//     gather), no workspaces: the engine's documented replay recipe;
//  3. engine, 1 thread / all hardware threads —
//     BatchReleaseEngine::ReleaseAllFull with per-worker
//     PipelineWorkspaces.
//
// Gates (exit non-zero on violation, so CI fails loudly):
//  * engine output bit-identical to (2) at 1 and at all threads;
//  * end-to-end engine speedup vs the seed loop >= 4x;
//  * POI-stage speedup >= 2x: the sequential loop's POI stage against
//    bench::SeedPoiReconstructor, the plain paper loop, over the same
//    users' region sequences and collector streams.
// Both speedups are medians over kGateRounds paired rounds
// (bench_util.h RunPairedGate).
//
//   ./build/bench_batch_e2e [--json PATH] [--users N]

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/batch_release_engine.h"
#include "core/mechanism.h"
#include "model/reachability.h"
#include "region/region_index.h"
#include "seed_replica.h"
#include "test_support.h"

namespace trajldp {
namespace {

using region::RegionId;

// Paired rounds behind both speedup gates (docs/PERF.md §Timing gates).
constexpr int kGateRounds = 5;

int Run(size_t num_users, const std::string& json_path) {
  constexpr int kN = 2;
  constexpr double kEpsilon = 5.0;
  constexpr size_t kTrajectoryLen = 5;
  constexpr uint64_t kSeed = 20260729;

  // Same ~200-region world as bench_batch_release: 2000 always-open
  // lattice POIs, 5×5 spatial grid, one whole-day interval → 225
  // (cell, interval, category) regions.
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
  // Same collector policy as bench_batch_release: 4 km reachability →
  // per-cell cliques, the regime the paper's city decompositions sit in.
  config.reachability.speed_kmh = 8.0;
  config.reachability.reference_gap_minutes = 30;
  // Every run that perturbs takes a mechanism nothing has touched, so it
  // starts on an empty row cache; all are built here, before any
  // stopwatch starts (building one right before its leg measurably
  // slowed that leg): the reference run, the sequential loop and the
  // all-threads engine once per gate run (warm-up plus timed rounds),
  // and one 1-thread engine run.
  constexpr size_t kGateRuns = kGateRounds + 1;
  std::vector<core::NGramMechanism> unused;
  for (size_t i = 0; i < 2 * kGateRuns + 2; ++i) {
    auto mech = core::NGramMechanism::Build(&*db, time, config);
    if (!mech.ok()) {
      std::cerr << mech.status() << "\n";
      return 1;
    }
    unused.push_back(std::move(*mech));
  }
  size_t next_unused = 0;
  const auto take = [&]() -> const core::NGramMechanism& {
    return unused.at(next_unused++);
  };
  // The seed loops read only the world, never a row cache.
  const core::NGramMechanism& world = unused.back();

  const auto& decomp = world.decomposition();
  const auto& graph = world.graph();
  const auto& distance = world.distance();
  const size_t num_regions = decomp.num_regions();
  std::cout << "world: " << num_regions << " regions, " << graph.num_edges()
            << " edges, " << num_users << " users, n=" << kN
            << ", epsilon=" << kEpsilon << ", L=" << kTrajectoryLen << "\n";

  std::vector<region::RegionTrajectory> users(num_users);
  {
    Rng rng(4242);
    for (auto& tau : users) {
      for (size_t i = 0; i < kTrajectoryLen; ++i) {
        tau.push_back(static_cast<RegionId>(rng.UniformUint64(num_regions)));
      }
    }
  }
  const Rng root(kSeed);
  const model::Reachability seed_reach(&*db, time, config.reachability);
  const bench::SeedPoiReconstructor seed_poi(&decomp, &seed_reach);

  // --- 1. Seed per-user e2e path (sequential). ----------------------
  auto seed_leg = [&]() -> StatusOr<double> {
    Stopwatch watch;
    for (size_t i = 0; i < users.size(); ++i) {
      Rng user_rng = root.Substream(i);
      auto z = bench::SeedPerturb(graph, distance, users[i], kN, kEpsilon,
                                  user_rng);
      if (!z.ok()) return z.status();
      std::vector<RegionId> observed;
      for (const core::PerturbedNgram& gram : *z) {
        observed.insert(observed.end(), gram.regions.begin(),
                        gram.regions.end());
      }
      std::sort(observed.begin(), observed.end());
      observed.erase(std::unique(observed.begin(), observed.end()),
                     observed.end());
      auto problem = bench::SeedBuildProblem(
          distance, users[i].size(), *z,
          region::MbrCandidateRegions(decomp, observed));
      auto regions = bench::SeedViterbi(graph, problem);
      if (!regions.ok() &&
          regions.status().code() == StatusCode::kFailedPrecondition) {
        std::vector<RegionId> all(num_regions);
        for (size_t r = 0; r < all.size(); ++r) {
          all[r] = static_cast<RegionId>(r);
        }
        auto full = bench::SeedBuildProblem(distance, users[i].size(), *z,
                                            std::move(all));
        regions = bench::SeedViterbi(graph, full);
      }
      if (!regions.ok()) return regions.status();
      auto poi = seed_poi.Reconstruct(*regions, user_rng);
      if (!poi.ok()) return poi.status();
    }
    return watch.ElapsedSeconds();
  };

  // --- 2. Today's sequential loop: reference output + stage split. ---
  // Returns the POI-stage seconds; the wall time and stage split printed
  // below are its latest run. The first run is the reference output, and
  // every later run, sequential or engine, must equal it.
  std::vector<core::FullRelease> reference;
  bool identical = true;
  const auto check = [&](std::vector<core::FullRelease> out) {
    if (reference.empty()) {
      reference = std::move(out);
    } else {
      identical = identical && out == reference;
    }
  };
  core::StageBreakdown stages;
  double sequential_seconds = 0.0;
  auto sequential = [&]() -> StatusOr<double> {
    const core::NGramMechanism& mech = take();
    std::vector<core::FullRelease> out;
    out.reserve(users.size());
    stages = {};
    Stopwatch watch;
    for (size_t i = 0; i < users.size(); ++i) {
      Rng user_rng = root.Substream(i);
      auto release =
          mech.ReleaseFromRegions(users[i], user_rng, nullptr, &stages);
      if (!release.ok()) return release.status();
      out.push_back(std::move(*release));
    }
    sequential_seconds = watch.ElapsedSeconds();
    check(std::move(out));
    return stages.poi_seconds;
  };
  if (auto first = sequential(); !first.ok()) {
    std::cerr << "reference run: " << first.status() << "\n";
    return 1;
  }

  // The paper loop over the reference's region sequences, each user on
  // the collector stream the pipeline gives its POI stage.
  auto seed_poi_leg = [&]() -> StatusOr<double> {
    Stopwatch watch;
    for (size_t i = 0; i < reference.size(); ++i) {
      Rng collector_rng =
          core::CollectorPipeline::CollectorRng(root.Substream(i));
      auto poi = seed_poi.Reconstruct(reference[i].regions, collector_rng);
      if (!poi.ok()) return poi.status();
    }
    return watch.ElapsedSeconds();
  };

  // --- 3. Batched engine on an untouched mechanism. ------------------
  auto run_engine = [&](size_t threads) -> StatusOr<double> {
    core::BatchReleaseEngine engine(
        &take(), core::BatchReleaseEngine::Config{threads});
    Stopwatch watch;
    auto result = engine.ReleaseAllFull(users, kSeed);
    const double seconds = watch.ElapsedSeconds();
    if (!result.ok()) return result.status();
    check(std::move(*result));
    return seconds;
  };

  bench::TimingGate poi_gate{"poi_stage_speedup", 2.0, true};
  if (Status gate = bench::RunPairedGate(kGateRounds, seed_poi_leg,
                                         sequential, poi_gate);
      !gate.ok()) {
    std::cerr << "POI stage rounds: " << gate << "\n";
    return 1;
  }
  const size_t hw_threads = ThreadPool::DefaultThreadCount();
  bench::TimingGate seed_gate{"speedup_vs_seed_loop", 4.0, true};
  if (Status gate = bench::RunPairedGate(
          kGateRounds, seed_leg, [&] { return run_engine(hw_threads); },
          seed_gate);
      !gate.ok()) {
    std::cerr << "seed vs engine rounds: " << gate << "\n";
    return 1;
  }
  auto engine1 = run_engine(1);
  if (!engine1.ok()) {
    std::cerr << "engine: " << engine1.status() << "\n";
    return 1;
  }

  const double seed_seconds = seed_gate.numerator_seconds;
  const double engine1_seconds = *engine1;
  const double engine_hw_seconds = seed_gate.denominator_seconds;
  const double speedup_1t_vs_seed = seed_seconds / engine1_seconds;
  const double scaling = engine1_seconds / engine_hw_seconds;
  const auto users_per_sec = [&](double seconds) {
    return static_cast<double>(num_users) / seconds;
  };

  std::cout << "seed e2e path:        " << seed_seconds << " s  ("
            << users_per_sec(seed_seconds) << " users/s)\n"
            << "cached sequential:    " << sequential_seconds << " s  ("
            << users_per_sec(sequential_seconds) << " users/s)\n"
            << "engine, 1 thread:     " << engine1_seconds << " s  ("
            << users_per_sec(engine1_seconds) << " users/s)\n"
            << "engine, " << hw_threads << " thread(s):  " << engine_hw_seconds
            << " s  (" << users_per_sec(engine_hw_seconds) << " users/s)\n"
            << "stage split: perturb " << stages.perturb_seconds
            << " s, prep " << stages.reconstruct_prep_seconds
            << " s, optimal " << stages.optimal_reconstruct_seconds
            << " s, other " << stages.other_seconds << " s (poi "
            << stages.poi_seconds << " s)\n"
            << "POI stage (medians): paper loop "
            << poi_gate.numerator_seconds << " s, sampler "
            << poi_gate.denominator_seconds << " s\n"
            << "e2e speedup vs seed loop (engine@1t): " << speedup_1t_vs_seed
            << "x\n"
            << "thread scaling (1t/" << hw_threads << "t): " << scaling
            << "x\n"
            << "batched == sequential (bit-identical): "
            << (identical ? "yes" : "NO — DETERMINISM BUG") << "\n";
  poi_gate.Print();
  seed_gate.Print();
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot open " << json_path << " for writing\n";
      return 1;
    }
    out << "{\n"
        << "  \"bench\": \"batch_e2e\",\n"
        << "  \"num_users\": " << num_users << ",\n"
        << "  \"num_regions\": " << num_regions << ",\n"
        << "  \"num_edges\": " << graph.num_edges() << ",\n"
        << "  \"ngram_n\": " << kN << ",\n"
        << "  \"epsilon\": " << kEpsilon << ",\n"
        << "  \"trajectory_len\": " << kTrajectoryLen << ",\n"
        << "  \"hw_threads\": " << hw_threads << ",\n"
        << "  \"seed_path_seconds\": " << seed_seconds << ",\n"
        << "  \"seed_path_users_per_sec\": " << users_per_sec(seed_seconds)
        << ",\n"
        << "  \"sequential_seconds\": " << sequential_seconds << ",\n"
        << "  \"sequential_users_per_sec\": "
        << users_per_sec(sequential_seconds) << ",\n"
        << "  \"sequential_perturb_seconds\": " << stages.perturb_seconds
        << ",\n"
        << "  \"sequential_prep_seconds\": "
        << stages.reconstruct_prep_seconds << ",\n"
        << "  \"sequential_reconstruct_seconds\": "
        << stages.optimal_reconstruct_seconds << ",\n"
        << "  \"sequential_other_seconds\": " << stages.other_seconds
        << ",\n"
        << "  \"sequential_poi_seconds\": " << stages.poi_seconds << ",\n"
        << "  \"seed_poi_seconds\": " << poi_gate.numerator_seconds
        << ",\n"
        << "  \"engine_1t_seconds\": " << engine1_seconds << ",\n"
        << "  \"engine_1t_users_per_sec\": " << users_per_sec(engine1_seconds)
        << ",\n"
        << "  \"engine_hw_seconds\": " << engine_hw_seconds << ",\n"
        << "  \"engine_hw_users_per_sec\": "
        << users_per_sec(engine_hw_seconds) << ",\n";
    poi_gate.WriteJson(out);
    seed_gate.WriteJson(out);
    out << "  \"speedup_1t_vs_seed_loop\": " << speedup_1t_vs_seed << ",\n"
        << "  \"thread_scaling\": " << scaling << ",\n"
        << "  \"bit_identical\": " << (identical ? "true" : "false") << "\n"
        << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  if (!identical) return 2;
  if (!seed_gate.pass()) return 3;
  return poi_gate.pass() ? 0 : 4;
}

}  // namespace
}  // namespace trajldp

int main(int argc, char** argv) {
  // Env default first; an explicit --users flag wins over it.
  size_t num_users = 5000;
  if (const char* env = std::getenv("TRAJLDP_BENCH_E2E_USERS")) {
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
