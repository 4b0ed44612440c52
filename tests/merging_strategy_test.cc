#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/mechanism.h"
#include "model/semantic_distance.h"
#include "region/decomposition.h"
#include "region/merging.h"
#include "test_world.h"

namespace trajldp::region {
namespace {

using trajldp::testing::GridWorldOptions;
using trajldp::testing::MakeGridWorld;

model::TimeDomain TenMinutes() { return *model::TimeDomain::Create(10); }

DecompositionConfig ConfigWith(MergeStrategy strategy, size_t kappa) {
  DecompositionConfig config;
  config.merge.kappa = kappa;
  config.merge.strategy = strategy;
  return config;
}

// A sparse world: every (cell, hour, category) group is tiny, so merging
// strategy matters.
StatusOr<model::PoiDatabase> SparseWorld() {
  GridWorldOptions options;
  options.rows = 6;
  options.cols = 6;
  options.spacing_km = 1.5;
  return MakeGridWorld(options);
}

TEST(MergeStrategyTest, RoundRobinKeepsResolutionInEveryDimension) {
  auto db = SparseWorld();
  ASSERT_TRUE(db.ok());
  // κ = 4 is reachable after one coarsening cycle (2×2-coarser cells with
  // level-2 categories hold 4–6 POIs), so round robin should stop there
  // instead of flattening space completely.
  auto decomp = StcDecomposition::Build(
      &*db, TenMinutes(), ConfigWith(MergeStrategy::kRoundRobin, 4));
  ASSERT_TRUE(decomp.ok());

  // Round robin must not collapse space to the coarsest grid wholesale:
  // some merged (>= 2 POI) regions should keep space level <= 1 while
  // having lifted time or category instead.
  bool kept_space_with_other_lift = false;
  for (const StcRegion& r : decomp->regions()) {
    if (r.pois.size() < 2) continue;
    const bool lifted_other =
        r.time.length() > 60 ||
        db->categories().level(r.category) < 3;
    if (r.space_level <= 1 && lifted_other) {
      kept_space_with_other_lift = true;
      break;
    }
  }
  EXPECT_TRUE(kept_space_with_other_lift);
}

TEST(MergeStrategyTest, DimensionAtATimeExhaustsSpaceFirst) {
  auto db = SparseWorld();
  ASSERT_TRUE(db.ok());
  auto decomp = StcDecomposition::Build(
      &*db, TenMinutes(), ConfigWith(MergeStrategy::kDimensionAtATime, 8));
  ASSERT_TRUE(decomp.ok());

  // With space first and exhausted first, merged regions should have hit
  // the coarsest grid before time/category lifted much: every region that
  // lifted time or category must already sit at the coarsest space level.
  for (const StcRegion& r : decomp->regions()) {
    const bool lifted_other =
        r.time.length() > 60 || db->categories().level(r.category) < 3;
    if (lifted_other) {
      EXPECT_EQ(r.space_level, 2) << r.DebugString();
    }
  }
}

TEST(MergeStrategyTest, BothStrategiesCoverEveryAssignment) {
  auto db = SparseWorld();
  ASSERT_TRUE(db.ok());
  const auto time = TenMinutes();
  for (MergeStrategy strategy :
       {MergeStrategy::kRoundRobin, MergeStrategy::kDimensionAtATime}) {
    auto decomp =
        StcDecomposition::Build(&*db, time, ConfigWith(strategy, 8));
    ASSERT_TRUE(decomp.ok());
    for (model::PoiId poi = 0; poi < db->size(); ++poi) {
      EXPECT_TRUE(decomp->Lookup(poi, 72).ok());
    }
  }
}

TEST(MergeStrategyTest, RoundRobinProducesAtLeastAsManyRegions) {
  // Round robin merges more conservatively per step, so it should never
  // produce fewer regions than exhausting dimensions outright... the
  // reverse can happen in principle, so assert the weaker invariant that
  // both reach similar kappa coverage.
  auto db = SparseWorld();
  ASSERT_TRUE(db.ok());
  const auto time = TenMinutes();
  auto rr = StcDecomposition::Build(&*db, time,
                                    ConfigWith(MergeStrategy::kRoundRobin, 8));
  auto daat = StcDecomposition::Build(
      &*db, time, ConfigWith(MergeStrategy::kDimensionAtATime, 8));
  ASSERT_TRUE(rr.ok());
  ASSERT_TRUE(daat.ok());
  EXPECT_GT(rr->num_regions(), 0u);
  EXPECT_GT(daat->num_regions(), 0u);
  EXPECT_NEAR(rr->FractionAtKappa(), daat->FractionAtKappa(), 0.5);
}

// ---------- quality_sensitivity plumbing ----------

TEST(QualitySensitivityTest, OverrideSharpensConcentration) {
  trajldp::testing::GridWorldOptions options;
  options.rows = 5;
  options.cols = 5;
  auto db = MakeGridWorld(options);
  ASSERT_TRUE(db.ok());
  const auto time = TenMinutes();

  auto build = [&](double sensitivity) {
    core::NGramConfig config;
    config.epsilon = 5.0;
    config.reachability.speed_kmh = 8.0;
    config.reachability.reference_gap_minutes = 60;
    config.quality_sensitivity = sensitivity;
    return core::NGramMechanism::Build(&*db, time, config);
  };
  auto strict = build(0.0);
  auto calibrated = build(1.0);
  ASSERT_TRUE(strict.ok());
  ASSERT_TRUE(calibrated.ok());
  // Strict sensitivity: n × diameter; calibrated: exactly 1.
  EXPECT_DOUBLE_EQ(calibrated->domain().Sensitivity(2), 1.0);
  EXPECT_DOUBLE_EQ(strict->domain().Sensitivity(2),
                   2.0 * strict->distance().MaxDistance());
  EXPECT_GT(strict->domain().Sensitivity(2), 1.0);

  // Calibrated outputs track the input much more closely on average.
  const model::SemanticDistance dist(&*db, time);
  model::Trajectory input;
  input.Append(0, 54);
  input.Append(6, 60);
  input.Append(12, 72);
  double err_strict = 0.0, err_calibrated = 0.0;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Rng r1(seed), r2(seed);
    auto a = strict->Perturb(input, r1);
    auto b = calibrated->Perturb(input, r2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    err_strict += dist.BetweenTrajectories(input, *a);
    err_calibrated += dist.BetweenTrajectories(input, *b);
  }
  EXPECT_LT(err_calibrated, err_strict);
}

// A negative or NaN override would silently mean "strict", and +inf would
// flatten every EM row to all ones (uniform draws), so Build() rejects all
// three. 0 stays the strict default.
TEST(QualitySensitivityTest, BuildRejectsNegativeNanAndInfinite) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  const auto time = TenMinutes();
  auto build = [&](double sensitivity) {
    core::NGramConfig config;
    config.quality_sensitivity = sensitivity;
    return core::NGramMechanism::Build(&*db, time, config);
  };
  for (double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    const auto mechanism = build(bad);
    ASSERT_FALSE(mechanism.ok()) << bad;
    EXPECT_EQ(mechanism.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_TRUE(build(0.0).ok());
  EXPECT_TRUE(build(1.0).ok());
}

}  // namespace
}  // namespace trajldp::region
