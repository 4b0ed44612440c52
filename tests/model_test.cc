#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "model/opening_hours.h"
#include "model/poi_database.h"
#include "model/reachability.h"
#include "model/semantic_distance.h"
#include "model/time_domain.h"
#include "model/trajectory.h"
#include "test_world.h"

namespace trajldp::model {
namespace {

using trajldp::testing::GridWorldOptions;
using trajldp::testing::MakeGridWorld;
using trajldp::testing::MakeTrajectory;

// ---------- TimeDomain ----------

TEST(TimeDomainTest, CreateValidatesGranularity) {
  EXPECT_TRUE(TimeDomain::Create(10).ok());
  EXPECT_TRUE(TimeDomain::Create(60).ok());
  EXPECT_FALSE(TimeDomain::Create(0).ok());
  EXPECT_FALSE(TimeDomain::Create(-5).ok());
  EXPECT_FALSE(TimeDomain::Create(7).ok());  // does not divide 1440
}

TEST(TimeDomainTest, TimestepArithmetic) {
  auto time = TimeDomain::Create(10);
  ASSERT_TRUE(time.ok());
  EXPECT_EQ(time->num_timesteps(), 144);
  EXPECT_EQ(time->TimestepToMinute(6), 60);
  EXPECT_EQ(time->MinuteToTimestep(65), 6);
  EXPECT_EQ(time->MinuteToTimestep(0), 0);
  EXPECT_EQ(time->MinuteToTimestep(1439), 143);
  EXPECT_EQ(time->GapMinutes(3, 9), 60);
}

TEST(TimeDomainTest, TimeDistanceCappedAtTwelveHours) {
  TimeDomain time;
  EXPECT_DOUBLE_EQ(time.TimeDistanceHours(0, 60), 1.0);
  EXPECT_DOUBLE_EQ(time.TimeDistanceHours(0, 13 * 60), 12.0);
  EXPECT_DOUBLE_EQ(time.TimeDistanceHours(10, 10), 0.0);
}

TEST(TimeDomainTest, FormatTimestep) {
  auto time = TimeDomain::Create(10);
  ASSERT_TRUE(time.ok());
  EXPECT_EQ(time->FormatTimestep(0), "00:00");
  EXPECT_EQ(time->FormatTimestep(65), "10:50");
}

// ---------- OpeningHours ----------

TEST(OpeningHoursTest, AlwaysOpen) {
  const auto hours = OpeningHours::AlwaysOpen();
  EXPECT_TRUE(hours.IsOpenAtMinute(0));
  EXPECT_TRUE(hours.IsOpenAtMinute(1439));
  EXPECT_EQ(hours.OpenMinutesPerDay(), kMinutesPerDay);
}

TEST(OpeningHoursTest, DailyWindow) {
  const auto hours = OpeningHours::Daily(9 * 60, 17 * 60);
  EXPECT_FALSE(hours.IsOpenAtMinute(8 * 60));
  EXPECT_TRUE(hours.IsOpenAtMinute(9 * 60));
  EXPECT_TRUE(hours.IsOpenAtMinute(16 * 60 + 59));
  EXPECT_FALSE(hours.IsOpenAtMinute(17 * 60));
  EXPECT_EQ(hours.OpenMinutesPerDay(), 8 * 60);
}

TEST(OpeningHoursTest, WrapAroundSplitsAtMidnight) {
  // A bar open 18:00–02:00.
  const auto hours = OpeningHours::Daily(18 * 60, 2 * 60);
  EXPECT_TRUE(hours.IsOpenAtMinute(23 * 60));
  EXPECT_TRUE(hours.IsOpenAtMinute(60));
  EXPECT_FALSE(hours.IsOpenAtMinute(12 * 60));
  EXPECT_EQ(hours.intervals().size(), 2u);
  EXPECT_EQ(hours.OpenMinutesPerDay(), 8 * 60);
}

TEST(OpeningHoursTest, FromIntervalsMergesOverlaps) {
  const auto hours = OpeningHours::FromIntervals(
      {{600, 700}, {650, 800}, {900, 1000}});
  EXPECT_EQ(hours.intervals().size(), 2u);
  EXPECT_TRUE(hours.IsOpenAtMinute(750));
  EXPECT_FALSE(hours.IsOpenAtMinute(850));
}

TEST(OpeningHoursTest, OverlapQueries) {
  const auto hours = OpeningHours::Daily(9 * 60, 17 * 60);
  EXPECT_TRUE(hours.IsOpenDuring({8 * 60, 10 * 60}));
  EXPECT_FALSE(hours.IsOpenDuring({6 * 60, 8 * 60}));
  EXPECT_TRUE(hours.IsOpenThroughout({10 * 60, 12 * 60}));
  EXPECT_FALSE(hours.IsOpenThroughout({8 * 60, 12 * 60}));
}

// ---------- Trajectory ----------

TEST(TrajectoryTest, ValidateAcceptsIncreasingTimes) {
  TimeDomain time;
  const auto traj = MakeTrajectory({{0, 10}, {1, 20}, {2, 30}});
  EXPECT_TRUE(traj.Validate(time).ok());
}

TEST(TrajectoryTest, ValidateRejectsBadInputs) {
  TimeDomain time;
  EXPECT_FALSE(Trajectory().Validate(time).ok());
  EXPECT_FALSE(
      MakeTrajectory({{0, 10}, {1, 10}}).Validate(time).ok());  // equal t
  EXPECT_FALSE(
      MakeTrajectory({{0, 20}, {1, 10}}).Validate(time).ok());  // decreasing
  EXPECT_FALSE(
      MakeTrajectory({{0, 10}, {1, 999}}).Validate(time).ok());  // range
  EXPECT_FALSE(MakeTrajectory({{kInvalidPoi, 10}}).Validate(time).ok());
}

TEST(TrajectoryTest, FragmentUsesOneBasedInclusiveIndices) {
  const auto traj = MakeTrajectory({{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto frag = traj.Fragment(2, 3);
  ASSERT_EQ(frag.size(), 2u);
  EXPECT_EQ(frag.point(0).poi, 1u);
  EXPECT_EQ(frag.point(1).poi, 2u);
}

// ---------- PoiDatabase ----------

TEST(PoiDatabaseTest, CreateAssignsDenseIds) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->size(), 16u);
  for (PoiId i = 0; i < db->size(); ++i) {
    EXPECT_EQ(db->poi(i).id, i);
  }
}

TEST(PoiDatabaseTest, CreateRejectsInvalidInputs) {
  hierarchy::CategoryTree tree = trajldp::testing::MakeSmallTree();
  EXPECT_FALSE(model::PoiDatabase::Create({}, std::move(tree)).ok());

  hierarchy::CategoryTree tree2 = trajldp::testing::MakeSmallTree();
  Poi bad;
  bad.category = 9999;  // not in tree
  EXPECT_FALSE(model::PoiDatabase::Create({bad}, std::move(tree2)).ok());

  hierarchy::CategoryTree tree3 = trajldp::testing::MakeSmallTree();
  Poi neg;
  neg.category = 0;
  neg.popularity = -1.0;
  EXPECT_FALSE(model::PoiDatabase::Create({neg}, std::move(tree3)).ok());
}

TEST(PoiDatabaseTest, DistanceMatchesLattice) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  // POIs 0 and 1 are adjacent columns: 1 km apart.
  EXPECT_NEAR(db->DistanceKm(0, 1), 1.0, 0.01);
  // POIs 0 and 5 are one row and one column apart: sqrt(2) km.
  EXPECT_NEAR(db->DistanceKm(0, 5), std::sqrt(2.0), 0.02);
}

TEST(PoiDatabaseTest, NearestSnapsWithin100m) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  const geo::LatLon near0 =
      geo::OffsetKm(db->poi(0).location, 0.05, 0.0);
  auto snapped = db->Nearest(near0, 0.1);
  ASSERT_TRUE(snapped.has_value());
  EXPECT_EQ(*snapped, 0u);
  // A point 500 m from everything does not snap at the 100 m cut-off.
  const geo::LatLon far = geo::OffsetKm(db->poi(0).location, -0.5, -0.5);
  EXPECT_FALSE(db->Nearest(far, 0.1).has_value());
}

TEST(PoiDatabaseTest, WithinRadiusOfIncludesSelf) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  const auto hits = db->WithinRadiusOf(0, 1.1);
  EXPECT_TRUE(std::find(hits.begin(), hits.end(), 0u) != hits.end());
  EXPECT_TRUE(std::find(hits.begin(), hits.end(), 1u) != hits.end());
  // Diagonal neighbour at sqrt(2) km is outside 1.1 km.
  EXPECT_TRUE(std::find(hits.begin(), hits.end(), 5u) == hits.end());
}

// ---------- Reachability ----------

TEST(ReachabilityTest, ThetaScalesWithGap) {
  ReachabilityConfig config;
  config.speed_kmh = 6.0;
  EXPECT_DOUBLE_EQ(config.ThetaKm(10), 1.0);
  EXPECT_DOUBLE_EQ(config.ThetaKm(60), 6.0);
}

TEST(ReachabilityTest, IsReachableRespectsSpeedAndGap) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  TimeDomain time;
  ReachabilityConfig config;
  config.speed_kmh = 6.0;  // 1 km per 10-minute timestep
  Reachability reach(&*db, time, config);
  // POI 0 → 1 is 1 km: reachable in one timestep, not in zero.
  EXPECT_TRUE(reach.IsReachable(0, 1, 10));
  EXPECT_FALSE(reach.IsReachable(0, 1, 0));
  // POI 0 → 3 is 3 km: needs 30 minutes.
  EXPECT_FALSE(reach.IsReachable(0, 3, 20));
  EXPECT_TRUE(reach.IsReachable(0, 3, 30));
}

TEST(ReachabilityTest, UnconstrainedAlwaysReachable) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  TimeDomain time;
  Reachability reach(&*db, time, ReachabilityConfig::Unconstrained());
  EXPECT_TRUE(reach.IsReachable(0, 15, 10));
  EXPECT_EQ(reach.ReachableSet(0, 10).size(), db->size());
}

TEST(ReachabilityTest, UnconstrainedAnswersEveryGap) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  const auto time = *TimeDomain::Create(60);
  const auto config = ReachabilityConfig::Unconstrained();
  ASSERT_TRUE(config.unconstrained());
  Reachability reach(&*db, time, config);
  // θ = ∞ answers every gap, even a non-positive one.
  EXPECT_TRUE(reach.IsReachable(0, 15, time.GapMinutes(0, -3)));
  EXPECT_TRUE(reach.IsReachable(0, 15, 0));
  EXPECT_TRUE(reach.IsReachable(0, 15, time.GapMinutes(0, 1)));
  EXPECT_EQ(reach.MinGapTimesteps(0, 15), 1);
}

TEST(ReachabilityTest, DisconnectedPairReportsNever) {
  // Two POIs 500 km apart at 4 km/h: unreachable in any same-day gap.
  GridWorldOptions options;
  options.rows = 1;
  options.cols = 2;
  options.spacing_km = 500.0;
  auto db = MakeGridWorld(options);
  ASSERT_TRUE(db.ok());
  const auto time = *TimeDomain::Create(10);
  Reachability reach(&*db, time, {4.0, 30});
  EXPECT_EQ(reach.MinGapTimesteps(0, 1), kUnreachableGap);
  EXPECT_EQ(reach.MinGapTimesteps(0, 0), 1);
  EXPECT_FALSE(reach.IsReachableBetween(0, 1, 0, time.num_timesteps() - 1));
}

TEST(ReachabilityTest, CheckFeasibleCatchesViolations) {
  GridWorldOptions options;
  options.restrict_odd_hours = true;
  auto db = MakeGridWorld(options);
  ASSERT_TRUE(db.ok());
  TimeDomain time;
  ReachabilityConfig config;
  config.speed_kmh = 6.0;
  Reachability reach(&*db, time, config);

  // Feasible: adjacent POIs, one timestep apart, during open hours.
  EXPECT_TRUE(
      reach.CheckFeasible(MakeTrajectory({{0, 60}, {1, 66}})).ok());
  // Too far for the gap: POI 0 → 15 is ~4.2 km but only 10 minutes.
  EXPECT_EQ(
      reach.CheckFeasible(MakeTrajectory({{0, 60}, {15, 61}})).code(),
      StatusCode::kFailedPrecondition);
  // Odd POI (id 1) visited at 03:00 while closed.
  EXPECT_EQ(reach.CheckFeasible(MakeTrajectory({{1, 18}})).code(),
            StatusCode::kFailedPrecondition);
}

// ---------- SemanticDistance ----------

TEST(SemanticDistanceTest, CombinesDimensions) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  TimeDomain time;
  SemanticDistance dist(&*db, time);

  // Same POI, same time: zero.
  EXPECT_DOUBLE_EQ(dist.Between({0, 10}, {0, 10}), 0.0);

  // POI 0 vs POI 4: one row apart (1 km), categories cycle with period 4
  // so they share the same leaf → d_c = 0. One hour apart → d_t = 1.
  const double expected = std::sqrt(
      db->DistanceKm(0, 4) * db->DistanceKm(0, 4) + 1.0 * 1.0);
  EXPECT_NEAR(dist.Between({0, 0}, {4, 6}), expected, 1e-9);
}

TEST(SemanticDistanceTest, WeightsZeroOutDimensions) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  TimeDomain time;
  SemanticDistance phys(&*db, time, {1.0, 0.0, 0.0});
  // Pure physical distance regardless of time and category.
  EXPECT_NEAR(phys.Between({0, 0}, {1, 100}), db->DistanceKm(0, 1), 1e-9);
}

TEST(SemanticDistanceTest, TrajectoriesSumElementWise) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  TimeDomain time;
  SemanticDistance dist(&*db, time);
  const auto a = MakeTrajectory({{0, 10}, {1, 20}});
  const auto b = MakeTrajectory({{2, 12}, {3, 25}});
  const double expected =
      dist.Between(a.point(0), b.point(0)) + dist.Between(a.point(1), b.point(1));
  EXPECT_NEAR(dist.BetweenTrajectories(a, b), expected, 1e-12);
}

TEST(SemanticDistanceTest, MaxDistanceBounds) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  TimeDomain time;
  SemanticDistance dist(&*db, time);
  for (PoiId a = 0; a < db->size(); ++a) {
    for (PoiId b = 0; b < db->size(); ++b) {
      EXPECT_LE(dist.Between({a, 0}, {b, 143}), dist.MaxDistance() + 1e-9);
    }
  }
}

}  // namespace
}  // namespace trajldp::model
