// Micro-benchmarks (google-benchmark) for the hot kernels of the
// mechanism: haversine distance, Gumbel-max EM selection, the factored
// n-gram path sampler, region distance fan-out and build, the spatial
// index, the Viterbi reconstruction DP, and the simplex solver. Useful
// for tracking regressions in the paths that dominate Figure 9's runtime
// curves.

#include <benchmark/benchmark.h>

#include <map>
#include <utility>

#include "common/rng.h"
#include "core/ngram_domain.h"
#include "core/ngram_perturber.h"
#include "core/reconstruction.h"
#include "core/viterbi_reconstructor.h"
#include "geo/latlon.h"
#include "geo/spatial_index.h"
#include "ldp/exponential_mechanism.h"
#include "lp/simplex.h"
#include "region/decomposition.h"
#include "region/region_distance.h"
#include "region/region_graph.h"
#include "test_support.h"

namespace trajldp {
namespace {

void BM_Haversine(benchmark::State& state) {
  const geo::LatLon a{40.7128, -74.0060};
  const geo::LatLon b{40.7484, -73.9857};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::HaversineKm(a, b));
  }
}
BENCHMARK(BM_Haversine);

void BM_GumbelDraw(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Gumbel());
  }
}
BENCHMARK(BM_GumbelDraw);

void BM_EmSample(benchmark::State& state) {
  const size_t domain = static_cast<size_t>(state.range(0));
  auto em = ldp::ExponentialMechanism::Create(1.0, 10.0);
  std::vector<double> qualities(domain);
  Rng init(2);
  for (auto& q : qualities) q = -init.UniformDouble(0.0, 10.0);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(em->Sample(qualities, rng));
  }
  state.SetItemsProcessed(state.iterations() * domain);
}
BENCHMARK(BM_EmSample)->Arg(1000)->Arg(10000)->Arg(100000);

struct RegionWorld {
  std::unique_ptr<model::PoiDatabase> db;
  std::unique_ptr<region::StcDecomposition> decomp;
  std::unique_ptr<region::RegionDistance> distance;
  std::unique_ptr<region::RegionGraph> graph;
  std::unique_ptr<core::NgramDomain> domain;
};

// A lattice of `num_pois` always-open POIs. With hourly intervals each
// POI set recurs once per hour; with one all-day interval, as in the
// collector benchmark's lattice, every set is a single region.
RegionWorld& SharedWorld(size_t num_pois, int base_interval_minutes = 60) {
  static std::map<std::pair<size_t, int>, RegionWorld> cache;
  const std::pair key{num_pois, base_interval_minutes};
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  RegionWorld world;
  auto db = bench::MakeLatticeDb(num_pois);
  world.db = std::make_unique<model::PoiDatabase>(std::move(*db));
  const auto time = *model::TimeDomain::Create(10);
  region::DecompositionConfig config;
  config.base_interval_minutes = base_interval_minutes;
  auto decomp = region::StcDecomposition::Build(world.db.get(), time, config);
  world.decomp =
      std::make_unique<region::StcDecomposition>(std::move(*decomp));
  world.distance =
      std::make_unique<region::RegionDistance>(world.decomp.get());
  model::ReachabilityConfig reach{8.0, 50};
  world.graph = std::make_unique<region::RegionGraph>(
      region::RegionGraph::Build(*world.decomp, reach));
  world.domain = std::make_unique<core::NgramDomain>(world.graph.get(),
                                                     world.distance.get());
  return cache.emplace(key, std::move(world)).first->second;
}

void BM_RegionDistanceFanOut(benchmark::State& state) {
  RegionWorld& world = SharedWorld(static_cast<size_t>(state.range(0)));
  region::RegionId r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.distance->ToAll(r));
    r = (r + 1) % world.decomp->num_regions();
  }
  state.SetItemsProcessed(state.iterations() *
                          world.decomp->num_regions());
}
BENCHMARK(BM_RegionDistanceFanOut)->Arg(500)->Arg(2000);

// The distance matrix build, which computes d_s and d_c once per pair of
// (centroid, category) keys and d_t per region pair. The hourly
// lattice's keys recur once per hour; the all-day lattice's regions are
// one key each.
void BM_RegionDistanceBuild(benchmark::State& state) {
  RegionWorld& world = SharedWorld(static_cast<size_t>(state.range(0)),
                                   static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const region::RegionDistance distance(world.decomp.get());
    benchmark::DoNotOptimize(distance.ToAll(0).data());
    benchmark::ClobberMemory();
  }
  state.counters["regions"] = static_cast<double>(world.graph->num_regions());
  state.counters["poi_sets"] =
      static_cast<double>(world.graph->num_poi_sets());
}
BENCHMARK(BM_RegionDistanceBuild)
    ->Args({2000, 60})
    ->Args({2000, 1440})
    ->Unit(benchmark::kMillisecond);

void BM_BigramSample(benchmark::State& state) {
  RegionWorld& world = SharedWorld(static_cast<size_t>(state.range(0)));
  Rng rng(7);
  const region::RegionId a = 0;
  const region::RegionId b =
      static_cast<region::RegionId>(world.decomp->num_regions() / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.domain->Sample({a, b}, 0.5, rng));
  }
}
BENCHMARK(BM_BigramSample)->Arg(500)->Arg(2000);

// The §5.5 DP solve on realistic inputs: a trajectory's perturbed
// n-gram set over the full region set as candidates. The graph picks the
// relaxation (counter relax_by_set). The hourly lattices relax one POI
// set at a time: each layer ranks every interval end's prefix minima
// once, and each target walks its end's ranking to the first set that
// precedes its own. The all-day one builds the candidate in-adjacency
// and relaxes one edge at a time.
void BM_ViterbiReconstruct(benchmark::State& state) {
  RegionWorld& world = SharedWorld(static_cast<size_t>(state.range(0)),
                                   static_cast<int>(state.range(1)));
  const size_t num_regions = world.decomp->num_regions();
  constexpr size_t kLen = 5;
  core::NgramPerturber perturber(world.domain.get(),
                                 core::NgramPerturber::Config{2, 5.0});
  region::RegionTrajectory tau;
  for (size_t i = 0; i < kLen; ++i) {
    tau.push_back(static_cast<region::RegionId>((i * 7) % num_regions));
  }
  Rng rng(11);
  auto z = perturber.Perturb(tau, rng);
  if (!z.ok()) {
    state.SkipWithError("perturbation failed");
    return;
  }
  std::vector<region::RegionId> candidates(num_regions);
  for (size_t r = 0; r < num_regions; ++r) {
    candidates[r] = static_cast<region::RegionId>(r);
  }
  auto problem = core::ReconstructionProblem::Create(
      world.distance.get(), world.graph.get(), kLen, *z,
      std::move(candidates));
  if (!problem.ok()) {
    state.SkipWithError("problem build failed");
    return;
  }
  core::ViterbiWorkspace ws;
  region::RegionTrajectory out;
  for (auto _ : state) {
    const Status status =
        core::ViterbiReconstructor::ReconstructInto(*problem, ws, out);
    if (!status.ok()) {
      state.SkipWithError("reconstruction failed");
      return;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["relax_by_set"] = world.graph->relax_by_set() ? 1 : 0;
}
BENCHMARK(BM_ViterbiReconstruct)
    ->Args({500, 60})
    ->Args({2000, 60})
    ->Args({2000, 1440});

void BM_SpatialIndexRadius(benchmark::State& state) {
  RegionWorld& world = SharedWorld(2000);
  const geo::LatLon center = world.db->poi(0).location;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.db->WithinRadius(center, 3.0));
  }
}
BENCHMARK(BM_SpatialIndexRadius);

void BM_SimplexSmallLp(benchmark::State& state) {
  lp::LpProblem problem;
  problem.num_vars = 2;
  problem.objective = {-3.0, -5.0};
  problem.AddConstraint({{0, 1.0}}, lp::LpProblem::Relation::kLe, 4.0);
  problem.AddConstraint({{1, 2.0}}, lp::LpProblem::Relation::kLe, 12.0);
  problem.AddConstraint({{0, 3.0}, {1, 2.0}}, lp::LpProblem::Relation::kLe,
                        18.0);
  lp::SimplexSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(problem));
  }
}
BENCHMARK(BM_SimplexSmallLp);

}  // namespace
}  // namespace trajldp

BENCHMARK_MAIN();
