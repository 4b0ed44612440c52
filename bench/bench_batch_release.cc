// Batched perturbation engine benchmark (ISSUE 1 acceptance criteria):
// on a ~200-region / n = 2 / 10k-user workload at fixed ε, the cached +
// workspace + batched path must beat the seed per-call path by ≥5× on a
// single thread, and the batched output must be bit-identical to the
// sequential per-user loop under the same seed. The speedup is the
// median over kGateRounds paired rounds (bench_util.h RunPairedGate).
//
//   ./build/bench_batch_release [--json PATH] [--users N]
//
// The "seed path" below is a faithful replica of the pre-batching
// implementation: a fresh O(R) distance row + exp() weight row per
// n-gram slot per draw, heap-allocated backward-recursion tables, and
// std::function dispatch in the sampler — exactly what the library did
// before the weight-row cache and SamplerWorkspace existed.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/batch_release_engine.h"
#include "core/ngram_perturber.h"
#include "region/decomposition.h"
#include "region/region_distance.h"
#include "region/region_graph.h"
#include "bench_util.h"
#include "seed_replica.h"
#include "test_support.h"

namespace trajldp {
namespace {

using bench::SeedPerturb;
using core::PerturbedNgramSet;
using region::RegionId;

// Paired rounds behind the speedup gate (docs/PERF.md §Timing gates).
constexpr int kGateRounds = 5;

int Run(size_t num_users, const std::string& json_path) {
  constexpr int kN = 2;
  constexpr double kEpsilon = 5.0;
  constexpr size_t kTrajectoryLen = 5;
  constexpr uint64_t kSeed = 20260729;

  // ~200-region world: 2000 always-open lattice POIs, 5×5 spatial grid,
  // one whole-day interval, merging off → 5·5·(9 leaf categories) = 225
  // non-empty (cell, interval, category) regions.
  auto db = bench::MakeLatticeDb(2000);
  if (!db.ok()) {
    std::cerr << db.status() << "\n";
    return 1;
  }
  const auto time = *model::TimeDomain::Create(10);
  region::DecompositionConfig config;
  config.grid_size = 5;
  config.coarse_grids = {1};
  config.base_interval_minutes = 1440;
  config.merge.kappa = 1;
  auto decomp = region::StcDecomposition::Build(&*db, time, config);
  if (!decomp.ok()) {
    std::cerr << decomp.status() << "\n";
    return 1;
  }
  const region::RegionDistance distance(&*decomp);
  const model::ReachabilityConfig reach{8.0, 30};
  const region::RegionGraph graph = region::RegionGraph::Build(*decomp, reach);
  const core::NgramPerturber::Config perturb_config{kN, kEpsilon};
  // Every run that perturbs starts on a row cache nothing has touched:
  // one domain per run (the sequential reference, the gate's warm-up and
  // timed engine rounds, the all-threads run), all built here before
  // any stopwatch starts.
  std::vector<std::unique_ptr<core::NgramDomain>> domains;
  for (int i = 0; i < kGateRounds + 3; ++i) {
    domains.push_back(std::make_unique<core::NgramDomain>(&graph, &distance));
  }
  size_t next_domain = 0;

  const size_t num_regions = decomp->num_regions();
  std::cout << "world: " << num_regions << " regions, " << graph.num_edges()
            << " edges, " << num_users << " users, n=" << kN
            << ", epsilon=" << kEpsilon << "\n";

  // Fixed-ε multi-user workload: same trajectory length for everyone, so
  // every draw shares one ε′ (the collector-policy case the weight-row
  // cache is built for).
  std::vector<region::RegionTrajectory> users(num_users);
  {
    Rng rng(4242);
    for (auto& tau : users) {
      for (size_t i = 0; i < kTrajectoryLen; ++i) {
        tau.push_back(static_cast<RegionId>(rng.UniformUint64(num_regions)));
      }
    }
  }
  const size_t ngrams_per_user = kTrajectoryLen + kN - 1;
  const size_t total_ngrams = num_users * ngrams_per_user;
  const Rng root(kSeed);

  // --- Sequential loop over the new cached path (reference output). --
  std::vector<PerturbedNgramSet> sequential;
  sequential.reserve(users.size());
  double sequential_seconds = 0.0;
  {
    const core::NgramPerturber perturber(domains[next_domain++].get(),
                                         perturb_config);
    core::SamplerWorkspace ws;
    Stopwatch watch;
    for (size_t i = 0; i < users.size(); ++i) {
      Rng user_rng = root.Substream(i);
      auto z = perturber.Perturb(users[i], user_rng, ws);
      if (!z.ok()) {
        std::cerr << "cached path: " << z.status() << "\n";
        return 1;
      }
      sequential.push_back(std::move(*z));
    }
    sequential_seconds = watch.ElapsedSeconds();
  }

  // --- Seed per-call path against the engine at 1 thread. ------------
  auto seed_leg = [&]() -> StatusOr<double> {
    Stopwatch watch;
    for (size_t i = 0; i < users.size(); ++i) {
      Rng user_rng = root.Substream(i);
      auto z = SeedPerturb(graph, distance, users[i], kN, kEpsilon, user_rng);
      if (!z.ok()) return z.status();
    }
    return watch.ElapsedSeconds();
  };
  // Every engine run takes the next untouched domain, and its output
  // must equal the sequential reference.
  bool identical = true;
  auto run_engine = [&](size_t threads) -> StatusOr<double> {
    const core::NgramPerturber perturber(domains.at(next_domain++).get(),
                                         perturb_config);
    core::BatchReleaseEngine engine(
        &perturber, core::BatchReleaseEngine::Config{threads});
    Stopwatch watch;
    auto result = engine.ReleaseAll(users, kSeed);
    const double seconds = watch.ElapsedSeconds();
    if (!result.ok()) return result.status();
    identical = identical && *result == sequential;
    return seconds;
  };

  bench::TimingGate speedup{"speedup_single_thread", 5.0, true};
  if (Status gate = bench::RunPairedGate(
          kGateRounds, seed_leg, [&] { return run_engine(1); }, speedup);
      !gate.ok()) {
    std::cerr << "seed vs engine(1) rounds: " << gate << "\n";
    return 1;
  }
  const double seed_seconds = speedup.numerator_seconds;
  const double engine1_seconds = speedup.denominator_seconds;
  const size_t hw_threads = ThreadPool::DefaultThreadCount();
  auto engine_hw_seconds = run_engine(hw_threads);
  if (!engine_hw_seconds.ok()) {
    std::cerr << "engine(" << hw_threads << "): "
              << engine_hw_seconds.status() << "\n";
    return 1;
  }
  const double scaling = engine1_seconds / *engine_hw_seconds;
  const auto per_ngram_us = [&](double seconds) {
    return seconds * 1e6 / static_cast<double>(total_ngrams);
  };
  const auto ops_per_sec = [&](double seconds) {
    return static_cast<double>(num_users) / seconds;
  };

  std::cout << "seed per-call path:   " << seed_seconds << " s  ("
            << per_ngram_us(seed_seconds) << " us/ngram, "
            << ops_per_sec(seed_seconds) << " users/s)\n"
            << "cached sequential:    " << sequential_seconds << " s  ("
            << per_ngram_us(sequential_seconds) << " us/ngram)\n"
            << "engine, 1 thread:     " << engine1_seconds << " s  ("
            << per_ngram_us(engine1_seconds) << " us/ngram, "
            << ops_per_sec(engine1_seconds) << " users/s)\n"
            << "engine, " << hw_threads << " thread(s):  "
            << *engine_hw_seconds << " s  ("
            << per_ngram_us(*engine_hw_seconds) << " us/ngram, "
            << ops_per_sec(*engine_hw_seconds) << " users/s)\n"
            << "thread scaling (1t/" << hw_threads << "t): " << scaling
            << "x\n"
            << "batched == sequential (bit-identical): "
            << (identical ? "yes" : "NO — DETERMINISM BUG") << "\n";
  speedup.Print();

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot open " << json_path << " for writing\n";
      return 1;
    }
    out << "{\n"
        << "  \"bench\": \"batch_release\",\n"
        << "  \"num_users\": " << num_users << ",\n"
        << "  \"num_regions\": " << num_regions << ",\n"
        << "  \"num_edges\": " << graph.num_edges() << ",\n"
        << "  \"ngram_n\": " << kN << ",\n"
        << "  \"epsilon\": " << kEpsilon << ",\n"
        << "  \"trajectory_len\": " << kTrajectoryLen << ",\n"
        << "  \"total_ngrams\": " << total_ngrams << ",\n"
        << "  \"hw_threads\": " << hw_threads << ",\n"
        << "  \"seed_path_seconds\": " << seed_seconds << ",\n"
        << "  \"seed_path_users_per_sec\": " << ops_per_sec(seed_seconds)
        << ",\n"
        << "  \"seed_path_us_per_ngram\": " << per_ngram_us(seed_seconds)
        << ",\n"
        << "  \"engine_1t_seconds\": " << engine1_seconds << ",\n"
        << "  \"engine_1t_users_per_sec\": " << ops_per_sec(engine1_seconds)
        << ",\n"
        << "  \"engine_1t_us_per_ngram\": " << per_ngram_us(engine1_seconds)
        << ",\n"
        << "  \"engine_hw_seconds\": " << *engine_hw_seconds << ",\n"
        << "  \"engine_hw_users_per_sec\": "
        << ops_per_sec(*engine_hw_seconds) << ",\n"
        << "  \"engine_hw_us_per_ngram\": "
        << per_ngram_us(*engine_hw_seconds) << ",\n";
    speedup.WriteJson(out);
    out << "  \"thread_scaling\": " << scaling << ",\n"
        << "  \"bit_identical\": " << (identical ? "true" : "false") << "\n"
        << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  if (!identical) return 2;
  return speedup.pass() ? 0 : 3;
}

}  // namespace
}  // namespace trajldp

int main(int argc, char** argv) {
  // Env default first; an explicit --users flag wins over it.
  size_t num_users = 10000;
  if (const char* env = std::getenv("TRAJLDP_BENCH_USERS")) {
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
