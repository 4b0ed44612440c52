// Cross-module property sweeps: invariants that must hold for every
// parameter combination, exercised with parameterized gtest (TEST_P).

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <tuple>

#include "core/mechanism.h"
#include "core/time_smoother.h"
#include "core/viterbi_reconstructor.h"
#include "eval/normalized_error.h"
#include "ldp/exponential_mechanism.h"
#include "test_world.h"

namespace trajldp {
namespace {

using trajldp::testing::MakeGridWorld;
using trajldp::testing::MakeTrajectory;

// ---------- Mechanism invariants over (epsilon, n, seed) ----------

class MechanismSweep
    : public ::testing::TestWithParam<std::tuple<double, int, uint64_t>> {
 protected:
  void SetUp() override {
    trajldp::testing::GridWorldOptions options;
    options.rows = 5;
    options.cols = 5;
    auto db = MakeGridWorld(options);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<model::PoiDatabase>(std::move(*db));
    time_ = *model::TimeDomain::Create(10);
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
};

TEST_P(MechanismSweep, OutputAlwaysValidSameLengthDeterministic) {
  const auto [epsilon, n, seed] = GetParam();
  core::NGramConfig config;
  config.n = n;
  config.epsilon = epsilon;
  config.decomposition.grid_size = 2;
  config.decomposition.coarse_grids = {1};
  config.decomposition.base_interval_minutes = 120;
  config.decomposition.merge.kappa = 2;
  config.reachability.speed_kmh = 8.0;
  config.reachability.reference_gap_minutes = 60;

  auto mech = core::NGramMechanism::Build(db_.get(), time_, config);
  ASSERT_TRUE(mech.ok()) << mech.status();

  const auto input = MakeTrajectory({{0, 54}, {6, 60}, {12, 72}, {18, 84}});
  Rng rng1(seed), rng2(seed);
  auto a = mech->Perturb(input, rng1);
  auto b = mech->Perturb(input, rng2);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->size(), input.size());
  EXPECT_TRUE(a->Validate(time_).ok());
  EXPECT_EQ(*a, *b);  // determinism
}

INSTANTIATE_TEST_SUITE_P(
    EpsilonNgramSeed, MechanismSweep,
    ::testing::Combine(::testing::Values(0.1, 1.0, 5.0),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(1ULL, 2ULL)));

// ---------- EM ratio bound over epsilon ----------

class EmRatioSweep : public ::testing::TestWithParam<double> {};

TEST_P(EmRatioSweep, RatioNeverExceedsExpEpsilon) {
  const double epsilon = GetParam();
  // A 6-point domain with an arbitrary asymmetric distance table.
  const int n = 6;
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
  Rng rng(42);
  double max_d = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) {
        dist[i][j] = rng.UniformDouble(0.1, 9.0);
        max_d = std::max(max_d, dist[i][j]);
      }
    }
  }
  auto em = ldp::ExponentialMechanism::Create(epsilon, max_d);
  ASSERT_TRUE(em.ok());
  std::vector<std::vector<double>> probs(n);
  for (int x = 0; x < n; ++x) {
    std::vector<double> q(n);
    for (int y = 0; y < n; ++y) q[y] = -dist[x][y];
    probs[x] = em->Probabilities(q);
  }
  for (int x1 = 0; x1 < n; ++x1) {
    for (int x2 = 0; x2 < n; ++x2) {
      for (int y = 0; y < n; ++y) {
        EXPECT_LE(probs[x1][y] / probs[x2][y],
                  std::exp(epsilon) * (1.0 + 1e-9));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, EmRatioSweep,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0, 2.0, 5.0,
                                           10.0));

// ---------- Statistical ε-LDP sanity (Monte Carlo) ----------

// Empirically verifies the Theorem 5.3 guarantee on the n-gram perturber
// itself: for any two inputs of the same length and any output, the
// output-probability ratio is bounded by e^ε. Adjacency is same-length
// because every report discloses L: through trajectory_len, its n-gram
// count and the ε′ the collector checks. Single-point trajectories keep
// the output space enumerable (one 1-gram, i.e. one region), so
// empirical frequencies estimate the output distribution directly; the
// slack absorbs Monte-Carlo noise on top of the exact bound.
TEST(LdpMonteCarloTest, PerturberAdjacentInputRatiosWithinExpEpsilon) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  const auto time = *model::TimeDomain::Create(10);
  region::DecompositionConfig dconfig;
  dconfig.grid_size = 2;
  dconfig.coarse_grids = {1};
  dconfig.base_interval_minutes = 360;
  dconfig.merge.kappa = 1;
  auto decomp = region::StcDecomposition::Build(&*db, time, dconfig);
  ASSERT_TRUE(decomp.ok());
  region::RegionDistance distance(&*decomp);
  model::ReachabilityConfig reach{8.0, 60};
  const auto graph = region::RegionGraph::Build(*decomp, reach);
  core::NgramDomain domain(&graph, &distance);

  const double epsilon = 1.0;
  core::NgramPerturber perturber(&domain,
                                 core::NgramPerturber::Config{1, epsilon});
  const size_t num_regions = decomp->num_regions();
  ASSERT_GE(num_regions, 4u);
  const region::RegionTrajectory x1 = {0};
  const region::RegionTrajectory x2 = {
      static_cast<region::RegionId>(num_regions / 2)};

  constexpr size_t kSamples = 200000;
  std::vector<size_t> count1(num_regions, 0), count2(num_regions, 0);
  core::SamplerWorkspace ws;
  Rng rng(20260729);
  for (size_t s = 0; s < kSamples; ++s) {
    auto z1 = perturber.Perturb(x1, rng, ws);
    ASSERT_TRUE(z1.ok());
    ++count1[(*z1)[0].regions[0]];
    auto z2 = perturber.Perturb(x2, rng, ws);
    ASSERT_TRUE(z2.ok());
    ++count2[(*z2)[0].regions[0]];
  }

  // Empirical ratio bound. Restricting to well-estimated outputs (≥ 200
  // hits on both inputs) keeps the ratio estimator's noise within the
  // slack; the EM weight floor e^{−ε/2}/R makes every region
  // well-estimated at this sample size anyway.
  const double bound = std::exp(epsilon);
  constexpr double kSlack = 0.15;
  constexpr size_t kMinCount = 200;
  size_t checked = 0;
  for (size_t y = 0; y < num_regions; ++y) {
    if (count1[y] < kMinCount || count2[y] < kMinCount) continue;
    ++checked;
    const double p1 = static_cast<double>(count1[y]) / kSamples;
    const double p2 = static_cast<double>(count2[y]) / kSamples;
    EXPECT_LE(p1 / p2, bound * (1.0 + kSlack)) << "output region " << y;
    EXPECT_LE(p2 / p1, bound * (1.0 + kSlack)) << "output region " << y;
  }
  // The sweep must actually have tested something: nearly every region
  // should clear the count threshold at this ε.
  EXPECT_GE(checked, num_regions / 2);
}

// ---------- Utility is monotone in epsilon (on average) ----------

TEST(UtilityMonotonicityTest, ErrorDecreasesWithEpsilon) {
  trajldp::testing::GridWorldOptions options;
  options.rows = 5;
  options.cols = 5;
  auto db = MakeGridWorld(options);
  ASSERT_TRUE(db.ok());
  const auto time = *model::TimeDomain::Create(10);

  const auto input = MakeTrajectory({{0, 54}, {6, 60}, {12, 72}});
  const model::TrajectorySet real(8, input);

  std::vector<double> errors;
  for (double epsilon : {0.1, 2.0, 50.0}) {
    core::NGramConfig config;
    config.epsilon = epsilon;
    config.decomposition.grid_size = 2;
    config.decomposition.coarse_grids = {1};
    config.decomposition.base_interval_minutes = 120;
    config.decomposition.merge.kappa = 2;
    config.reachability.speed_kmh = 8.0;
    config.reachability.reference_gap_minutes = 60;
    auto mech = core::NGramMechanism::Build(&*db, time, config);
    ASSERT_TRUE(mech.ok());

    model::TrajectorySet perturbed;
    for (uint64_t seed = 0; seed < real.size(); ++seed) {
      Rng rng(seed);
      auto out = mech->Perturb(input, rng);
      ASSERT_TRUE(out.ok());
      perturbed.push_back(std::move(*out));
    }
    auto ne = eval::ComputeNormalizedError(*db, time, real, perturbed);
    ASSERT_TRUE(ne.ok());
    errors.push_back(ne->space_km + ne->category + ne->time_hours);
  }
  // Tiny budget must be worse than huge budget; allow the middle point
  // noise but enforce the endpoints strongly.
  EXPECT_GT(errors[0], errors[2]);
}

// ---------- Viterbi optimality under random candidate subsets ----------

class ReconstructionSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReconstructionSweep, ViterbiNeverWorseThanRandomFeasiblePath) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  const auto time = *model::TimeDomain::Create(10);
  region::DecompositionConfig dconfig;
  dconfig.grid_size = 2;
  dconfig.coarse_grids = {1};
  dconfig.base_interval_minutes = 360;
  dconfig.merge.kappa = 1;
  auto decomp = region::StcDecomposition::Build(&*db, time, dconfig);
  ASSERT_TRUE(decomp.ok());
  region::RegionDistance distance(&*decomp);
  model::ReachabilityConfig reach{8.0, 60};
  const auto graph = region::RegionGraph::Build(*decomp, reach);
  core::NgramDomain domain(&graph, &distance);
  core::NgramPerturber perturber(&domain, core::NgramPerturber::Config{2, 5.0});

  region::RegionTrajectory tau;
  for (model::PoiId p = 0; p < 4; ++p) {
    tau.push_back(*decomp->Lookup(p, 60 + 6 * p));
  }
  Rng rng(GetParam());
  auto z = perturber.Perturb(tau, rng);
  ASSERT_TRUE(z.ok());

  std::vector<region::RegionId> all(decomp->num_regions());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<region::RegionId>(i);
  }
  auto problem = core::ReconstructionProblem::Create(&distance, &graph,
                                                     tau.size(), *z, all);
  ASSERT_TRUE(problem.ok());
  core::ViterbiReconstructor viterbi;
  auto optimal = viterbi.Reconstruct(*problem);
  ASSERT_TRUE(optimal.ok());

  // Score the optimum.
  auto index_of = [&](region::RegionId id) {
    return static_cast<size_t>(id);  // candidates == all regions
  };
  std::vector<size_t> opt_assignment;
  for (region::RegionId id : *optimal) opt_assignment.push_back(index_of(id));
  const double opt_cost = problem->Objective(opt_assignment);

  // Generate random feasible paths by walking the graph; none may beat
  // the DP optimum.
  Rng walker(GetParam() ^ 0xABCD);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<size_t> assignment;
    region::RegionId current = static_cast<region::RegionId>(
        walker.UniformUint64(decomp->num_regions()));
    assignment.push_back(index_of(current));
    bool dead_end = false;
    for (size_t i = 1; i < tau.size(); ++i) {
      const auto neighbors = graph.Neighbors(current);
      if (neighbors.empty()) {
        dead_end = true;
        break;
      }
      current = neighbors[walker.UniformUint64(neighbors.size())];
      assignment.push_back(index_of(current));
    }
    if (dead_end) continue;
    EXPECT_GE(problem->Objective(assignment), opt_cost - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReconstructionSweep,
                         ::testing::Values(100, 200, 300, 400, 500, 600));

// ---------- Coverage invariant across lengths and n ----------

class CoverageSweep
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(CoverageSweep, EveryPositionCoveredExactlyNTimes) {
  const auto [len, n] = GetParam();
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  const auto time = *model::TimeDomain::Create(10);
  region::DecompositionConfig dconfig;
  dconfig.grid_size = 2;
  dconfig.coarse_grids = {1};
  dconfig.base_interval_minutes = 360;
  dconfig.merge.kappa = 1;
  auto decomp = region::StcDecomposition::Build(&*db, time, dconfig);
  ASSERT_TRUE(decomp.ok());
  region::RegionDistance distance(&*decomp);
  model::ReachabilityConfig reach{8.0, 60};
  const auto graph = region::RegionGraph::Build(*decomp, reach);
  core::NgramDomain domain(&graph, &distance);
  core::NgramPerturber perturber(&domain,
                                 core::NgramPerturber::Config{n, 5.0});

  region::RegionTrajectory tau;
  for (size_t i = 0; i < len; ++i) {
    tau.push_back(*decomp->Lookup(static_cast<model::PoiId>(i % 16),
                                  static_cast<model::Timestep>(30 + 6 * i)));
  }
  Rng rng(7);
  auto z = perturber.Perturb(tau, rng);
  ASSERT_TRUE(z.ok());
  const size_t n_eff = std::min<size_t>(static_cast<size_t>(n), len);
  EXPECT_EQ(z->size(), len + n_eff - 1);
  for (size_t i = 1; i <= len; ++i) {
    EXPECT_EQ(core::CoverageCount(*z, i), n_eff) << "position " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LengthByN, CoverageSweep,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 3, 5, 8),
                       ::testing::Values(1, 2, 3)));

// ---------- Min gaps vs the reachability formula ----------

// Both POI samplers, the feasibility DP and TimeSmoother decide
// reachability by a pair's min gap: for EVERY POI pair and EVERY integer
// timestep budget, "budget ≥ min gap" must answer exactly what
// model::Reachability's formula answers — on randomized worlds covering
// scattered POI layouts, different world scales (including disconnected
// POIs no same-day budget connects), travel speeds, and time
// granularities.

struct ReachabilityWorldParam {
  size_t num_pois;
  double extent_km;  // POIs scatter uniformly in [0, extent_km)²
  double speed_kmh;
  int granularity_minutes;
  uint64_t seed;
};

// Prints the fields only: gtest's fallback prints the struct's bytes,
// padding included, which would change the test ids from build to build.
void PrintTo(const ReachabilityWorldParam& param, std::ostream* os) {
  *os << param.num_pois << " POIs over " << param.extent_km << " km, "
      << param.speed_kmh << " km/h, " << param.granularity_minutes
      << " min steps, seed " << param.seed;
}

class ReachabilitySweep
    : public ::testing::TestWithParam<ReachabilityWorldParam> {
 protected:
  // A randomized scatter world: `num_pois` POIs at Rng-drawn offsets,
  // categories cycling through the small tree's leaves, and every third
  // POI open only 8:00–20:00 (opening hours are irrelevant to
  // reachability but keep the world shaped like real inputs).
  static StatusOr<model::PoiDatabase> MakeScatterWorld(
      const ReachabilityWorldParam& param) {
    hierarchy::CategoryTree tree = trajldp::testing::MakeSmallTree();
    const auto leaves = tree.Leaves();
    const geo::LatLon origin{40.7000, -74.0000};
    Rng rng(param.seed);
    std::vector<model::Poi> pois;
    for (size_t i = 0; i < param.num_pois; ++i) {
      model::Poi poi;
      poi.name = "poi_" + std::to_string(i);
      poi.location =
          geo::OffsetKm(origin, rng.UniformDouble(0.0, param.extent_km),
                        rng.UniformDouble(0.0, param.extent_km));
      poi.category = leaves[i % leaves.size()];
      poi.popularity = 1.0 + static_cast<double>(i);
      if (i % 3 == 0) poi.hours = model::OpeningHours::Daily(480, 1200);
      pois.push_back(std::move(poi));
    }
    return model::PoiDatabase::Create(std::move(pois), std::move(tree));
  }
};

TEST_P(ReachabilitySweep, MinGapMatchesFormulaForEveryPairAndBudget) {
  const auto& param = GetParam();
  auto db = MakeScatterWorld(param);
  ASSERT_TRUE(db.ok());
  const auto time = *model::TimeDomain::Create(param.granularity_minutes);
  model::ReachabilityConfig config{param.speed_kmh, 30};
  const model::Reachability reach(&*db, time, config);
  // The smoother packs smoothed trajectories by the same min gap.
  const core::TimeSmoother smoother(&*db, time, config);

  const model::Timestep num_t = time.num_timesteps();
  size_t never = 0;
  for (model::PoiId p = 0; p < db->size(); ++p) {
    for (model::PoiId q = 0; q < db->size(); ++q) {
      const uint16_t mg = reach.MinGapTimesteps(p, q);
      ASSERT_EQ(smoother.MinGapTimesteps(p, q), mg)
          << "p=" << p << " q=" << q;
      ASSERT_GE(mg, 1) << "p=" << p << " q=" << q;
      for (model::Timestep g = -1; g <= num_t; ++g) {
        ASSERT_EQ(g >= 1 && g >= mg,
                  reach.IsReachable(p, q, time.GapMinutes(0, g)))
            << "p=" << p << " q=" << q << " gap=" << g;
      }
      never += mg == model::kUnreachableGap ? 1 : 0;
    }
  }
  // Only the disconnected world has pairs no same-day budget connects.
  EXPECT_EQ(never > 0, param.extent_km > 100.0);
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorlds, ReachabilitySweep,
    ::testing::Values(
        // Dense small city: everything reachable within a few steps.
        ReachabilityWorldParam{24, 4.0, 8.0, 60, 1},
        // Sprawl at walking speed: most budgets insufficient.
        ReachabilityWorldParam{20, 60.0, 4.0, 60, 2},
        // Disconnected: 500 km extent, 4 km/h — cross-town pairs are
        // kUnreachableGap (no same-day budget reaches them).
        ReachabilityWorldParam{16, 500.0, 4.0, 120, 3},
        // Fine time granularity (many buckets).
        ReachabilityWorldParam{12, 10.0, 6.0, 10, 4},
        // Different seed → different scatter.
        ReachabilityWorldParam{24, 25.0, 12.0, 30, 5}),
    [](const ::testing::TestParamInfo<ReachabilityWorldParam>& info) {
      return "Seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace trajldp
