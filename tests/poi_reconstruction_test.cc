#include <gtest/gtest.h>

#include <algorithm>

#include "core/poi_reconstructor.h"
#include "core/time_smoother.h"
#include "test_world.h"

namespace trajldp::core {
namespace {

using trajldp::testing::MakeGridWorld;

// ---------- TimeSmoother ----------

class TimeSmootherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = MakeGridWorld();  // 1 km lattice
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<model::PoiDatabase>(std::move(*db));
    time_ = *model::TimeDomain::Create(10);
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
};

TEST_F(TimeSmootherTest, MinGapReflectsDistanceAndSpeed) {
  // 6 km/h → 1 km per 10-minute timestep.
  TimeSmoother smoother(db_.get(), time_, {6.0, 30});
  EXPECT_EQ(smoother.MinGapTimesteps(0, 1), 1);  // 1 km
  EXPECT_EQ(smoother.MinGapTimesteps(0, 3), 3);  // 3 km
  // Same POI still needs at least one timestep (times strictly increase).
  EXPECT_EQ(smoother.MinGapTimesteps(0, 0), 1);
}

TEST_F(TimeSmootherTest, UnconstrainedGapIsOne) {
  TimeSmoother smoother(db_.get(), time_,
                        model::ReachabilityConfig::Unconstrained());
  EXPECT_EQ(smoother.MinGapTimesteps(0, 15), 1);
}

TEST_F(TimeSmootherTest, AlreadyFeasibleTimesUnchanged) {
  TimeSmoother smoother(db_.get(), time_, {6.0, 30});
  auto result = smoother.Smooth({0, 1, 2}, {10, 20, 30});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, (std::vector<model::Timestep>{10, 20, 30}));
}

TEST_F(TimeSmootherTest, PushesLateArrivalsForward) {
  TimeSmoother smoother(db_.get(), time_, {6.0, 30});
  // 0 → 3 is 3 km: needs 3 timesteps, but input gap is 1.
  auto result = smoother.Smooth({0, 3}, {10, 11});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[0], 10);
  EXPECT_EQ((*result)[1], 13);
}

TEST_F(TimeSmootherTest, PullsBackWhenDayOverflows) {
  TimeSmoother smoother(db_.get(), time_, {6.0, 30});
  // Start at the end of the day; the smoother must shift earlier points
  // back instead of running past midnight.
  auto result = smoother.Smooth({0, 1, 2}, {142, 143, 143});
  ASSERT_TRUE(result.ok());
  EXPECT_LT((*result)[0], (*result)[1]);
  EXPECT_LT((*result)[1], (*result)[2]);
  EXPECT_LE((*result)[2], 143);
  EXPECT_GE((*result)[0], 0);
}

TEST_F(TimeSmootherTest, ImpossiblePackingFails) {
  // 2 km/h: 1 km gaps need 3 timesteps each; a ~50-hop zigzag cannot fit
  // in one day. Build a long alternating sequence 0,1,0,1,... with 144
  // points: needs 143 × 3 timesteps > 143.
  TimeSmoother smoother(db_.get(), time_, {2.0, 30});
  std::vector<model::PoiId> pois;
  std::vector<model::Timestep> times;
  for (int i = 0; i < 144; ++i) {
    pois.push_back(i % 2 == 0 ? 0 : 1);
    times.push_back(i);
  }
  auto result = smoother.Smooth(pois, times);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(TimeSmootherTest, RejectsMismatchedInputs) {
  TimeSmoother smoother(db_.get(), time_, {6.0, 30});
  EXPECT_FALSE(smoother.Smooth({0, 1}, {10}).ok());
  EXPECT_FALSE(smoother.Smooth({}, {}).ok());
}

// ---------- PoiReconstructor ----------

class PoiReconstructorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = MakeGridWorld();
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<model::PoiDatabase>(std::move(*db));
    time_ = *model::TimeDomain::Create(10);

    region::DecompositionConfig config;
    config.grid_size = 2;
    config.coarse_grids = {1};
    config.base_interval_minutes = 60;
    config.merge.kappa = 1;
    auto decomp = region::StcDecomposition::Build(db_.get(), time_, config);
    ASSERT_TRUE(decomp.ok());
    decomp_ = std::make_unique<region::StcDecomposition>(std::move(*decomp));

    reach_config_.speed_kmh = 8.0;
    reach_config_.reference_gap_minutes = 60;
    reach_ = std::make_unique<model::Reachability>(db_.get(), time_,
                                                   reach_config_);
  }

  region::RegionTrajectory RegionsOf(
      std::vector<std::pair<model::PoiId, model::Timestep>> pts) {
    region::RegionTrajectory out;
    for (const auto& [poi, t] : pts) {
      auto id = decomp_->Lookup(poi, t);
      EXPECT_TRUE(id.ok());
      out.push_back(*id);
    }
    return out;
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
  std::unique_ptr<region::StcDecomposition> decomp_;
  model::ReachabilityConfig reach_config_;
  std::unique_ptr<model::Reachability> reach_;
};

TEST_F(PoiReconstructorTest, ProducesFeasibleTrajectory) {
  PoiReconstructor reconstructor(decomp_.get(), reach_.get(), {});
  const auto regions = RegionsOf({{0, 60}, {1, 66}, {5, 72}});
  Rng rng(5);
  auto result = reconstructor.Reconstruct(regions, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->smoothed);
  EXPECT_EQ(result->trajectory.size(), 3u);
  EXPECT_TRUE(reach_->CheckFeasible(result->trajectory).ok());
}

TEST_F(PoiReconstructorTest, OutputPoisBelongToTheirRegions) {
  PoiReconstructor reconstructor(decomp_.get(), reach_.get(), {});
  const auto regions = RegionsOf({{0, 60}, {1, 66}, {5, 72}});
  Rng rng(6);
  auto result = reconstructor.Reconstruct(regions, rng);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < regions.size(); ++i) {
    const auto& pois = decomp_->region(regions[i]).pois;
    EXPECT_TRUE(std::binary_search(
        pois.begin(), pois.end(), result->trajectory.point(i).poi));
  }
}

TEST_F(PoiReconstructorTest, OutputTimesWithinRegionIntervalsWhenNotSmoothed) {
  PoiReconstructor reconstructor(decomp_.get(), reach_.get(), {});
  const auto regions = RegionsOf({{0, 60}, {1, 66}});
  Rng rng(7);
  auto result = reconstructor.Reconstruct(regions, rng);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->smoothed);
  for (size_t i = 0; i < regions.size(); ++i) {
    const auto& interval = decomp_->region(regions[i]).time;
    const int minute = time_.TimestepToMinute(result->trajectory.point(i).t);
    EXPECT_TRUE(interval.Contains(minute));
  }
}

TEST_F(PoiReconstructorTest, SmoothingFallbackWhenIntervalTooTight) {
  // Seven visits inside the same one-hour region: only 6 timesteps exist,
  // so whole-trajectory sampling must fail and fall back to smoothing.
  PoiReconstructor::Config config;
  config.gamma = 200;  // keep the test fast; failure is structural
  PoiReconstructor reconstructor(decomp_.get(), reach_.get(), config);
  region::RegionTrajectory regions;
  for (int i = 0; i < 7; ++i) {
    regions.push_back(*decomp_->Lookup(0, 60));
  }
  Rng rng(8);
  auto result = reconstructor.Reconstruct(regions, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->smoothed);
  // Even smoothed outputs must be strictly increasing and within the day.
  for (size_t i = 0; i < result->trajectory.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(result->trajectory.point(i).t,
                result->trajectory.point(i - 1).t);
    }
    EXPECT_GE(result->trajectory.point(i).t, 0);
    EXPECT_LT(result->trajectory.point(i).t, time_.num_timesteps());
  }
}

TEST_F(PoiReconstructorTest, GuidedSamplerProducesFeasibleOutput) {
  PoiReconstructor::Config config;
  config.policy = PoiPolicy::kGuided;
  PoiReconstructor reconstructor(decomp_.get(), reach_.get(), config);
  const auto regions = RegionsOf({{0, 60}, {1, 66}, {5, 72}, {6, 78}});
  Rng rng(9);
  auto result = reconstructor.Reconstruct(regions, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->guided_fallback);
  EXPECT_TRUE(reach_->CheckFeasible(result->trajectory).ok());
}

TEST_F(PoiReconstructorTest, GuidedWithTableMatchesGuidedWithoutTable) {
  // The table is an exact materialisation of the reachability formula,
  // so swapping it in changes no accept/reject decision: same seeds,
  // bit-identical outputs, both policies.
  auto table = ReachabilityTable::Build(*db_, time_, reach_config_);
  ASSERT_TRUE(table.ok()) << table.status();
  const auto regions = RegionsOf({{0, 60}, {1, 66}, {5, 72}, {6, 78}});
  for (const PoiPolicy policy :
       {PoiPolicy::kRejection, PoiPolicy::kGuided}) {
    PoiReconstructor::Config config;
    config.policy = policy;
    PoiReconstructor plain(decomp_.get(), reach_.get(), config);
    PoiReconstructor tabled(decomp_.get(), reach_.get(), &*table, config);
    for (uint64_t seed = 0; seed < 10; ++seed) {
      Rng rng1(seed), rng2(seed);
      auto a = plain.Reconstruct(regions, rng1);
      auto b = tabled.Reconstruct(regions, rng2);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_TRUE(a->trajectory == b->trajectory) << "seed " << seed;
      EXPECT_EQ(a->attempts, b->attempts) << "seed " << seed;
      EXPECT_EQ(a->smoothed, b->smoothed) << "seed " << seed;
    }
  }
}

TEST_F(PoiReconstructorTest, GuidedNeedsFewerAttemptsOnAverage) {
  const auto regions = RegionsOf({{0, 60}, {1, 66}, {5, 72}, {6, 78}});
  PoiReconstructor naive(decomp_.get(), reach_.get(), {});
  PoiReconstructor::Config guided_config;
  guided_config.policy = PoiPolicy::kGuided;
  PoiReconstructor guided(decomp_.get(), reach_.get(), guided_config);

  size_t naive_attempts = 0, guided_attempts = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng1(seed), rng2(seed);
    auto a = naive.Reconstruct(regions, rng1);
    auto b = guided.Reconstruct(regions, rng2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    naive_attempts += a->attempts;
    guided_attempts += b->attempts;
  }
  EXPECT_LE(guided_attempts, naive_attempts);
}

// ---------- Guided-policy fallback (regression) ----------

// An adversarially infeasible input: with two 12-hour base intervals, a
// region sequence visiting an afternoon region BEFORE a morning region
// admits no strictly increasing time assignment at all (the §5.6 loop
// can only ever end in the smoothing fallback, which is allowed to
// leave region intervals). The guided policy must not silently emit an
// infeasible path here: it must fall back to the legacy rejection loop
// on the untouched collector stream, making its output bit-identical to
// the rejection policy's.
class GuidedFallbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = MakeGridWorld();
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<model::PoiDatabase>(std::move(*db));
    time_ = *model::TimeDomain::Create(10);

    region::DecompositionConfig config;
    config.grid_size = 2;
    config.coarse_grids = {1};
    config.base_interval_minutes = 720;
    config.merge.kappa = 1;
    auto decomp = region::StcDecomposition::Build(db_.get(), time_, config);
    ASSERT_TRUE(decomp.ok());
    decomp_ = std::make_unique<region::StcDecomposition>(std::move(*decomp));

    reach_config_.speed_kmh = 8.0;
    reach_config_.reference_gap_minutes = 60;
    reach_ = std::make_unique<model::Reachability>(db_.get(), time_,
                                                   reach_config_);
    auto table = ReachabilityTable::Build(*db_, time_, reach_config_);
    ASSERT_TRUE(table.ok()) << table.status();
    table_ = std::make_unique<core::ReachabilityTable>(std::move(*table));
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
  std::unique_ptr<region::StcDecomposition> decomp_;
  model::ReachabilityConfig reach_config_;
  std::unique_ptr<model::Reachability> reach_;
  std::unique_ptr<core::ReachabilityTable> table_;
};

TEST_F(GuidedFallbackTest, FallsBackToRejectionLoopBitExactly) {
  PoiReconstructor::Config config;
  config.gamma = 100;  // the rejection loop is provably futile here
  PoiReconstructor::Config guided_config = config;
  guided_config.policy = PoiPolicy::kGuided;
  PoiReconstructor rejection(decomp_.get(), reach_.get(), table_.get(),
                             config);
  PoiReconstructor guided(decomp_.get(), reach_.get(), table_.get(),
                          guided_config);

  // Afternoon-interval region first, morning-interval region second:
  // t₀ ∈ [12:00, 24:00), t₁ ∈ [0:00, 12:00), t₁ > t₀ is impossible.
  region::RegionTrajectory regions{
      *decomp_->Lookup(0, time_.MinuteToTimestep(800)),
      *decomp_->Lookup(0, time_.MinuteToTimestep(60))};
  ASSERT_NE(regions[0], regions[1]);

  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng1(seed), rng2(seed);
    auto r = rejection.Reconstruct(regions, rng1);
    auto g = guided.Reconstruct(regions, rng2);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE(g.ok()) << g.status();
    EXPECT_TRUE(g->guided_fallback);
    EXPECT_FALSE(r->guided_fallback);
    // The fallback replays the rejection policy on the untouched
    // collector stream: identical trajectory, identical smoothing.
    EXPECT_TRUE(g->trajectory == r->trajectory) << "seed " << seed;
    EXPECT_EQ(g->smoothed, r->smoothed) << "seed " << seed;
    EXPECT_TRUE(g->smoothed);
  }
}

TEST_F(GuidedFallbackTest, FeasibleInputNeverFallsBackEvenWhenStarved) {
  // The reverse order is feasible, and the guided proposal enforces
  // exactly the binding constraints up front — so the first guided
  // attempt must already succeed with a feasible, unsmoothed trajectory.
  PoiReconstructor::Config guided_config;
  guided_config.policy = PoiPolicy::kGuided;
  PoiReconstructor guided(decomp_.get(), reach_.get(), table_.get(),
                          guided_config);
  region::RegionTrajectory regions{
      *decomp_->Lookup(0, time_.MinuteToTimestep(60)),
      *decomp_->Lookup(0, time_.MinuteToTimestep(800))};
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    auto g = guided.Reconstruct(regions, rng);
    ASSERT_TRUE(g.ok()) << g.status();
    EXPECT_EQ(g->attempts, 1u) << "seed " << seed;
    EXPECT_FALSE(g->guided_fallback);
    EXPECT_FALSE(g->smoothed);
    EXPECT_TRUE(reach_->CheckFeasible(g->trajectory).ok()) << "seed "
                                                           << seed;
  }
}

TEST_F(PoiReconstructorTest, RejectsBadInputs) {
  PoiReconstructor reconstructor(decomp_.get(), reach_.get(), {});
  Rng rng(10);
  EXPECT_FALSE(reconstructor.Reconstruct({}, rng).ok());
  EXPECT_FALSE(
      reconstructor.Reconstruct({region::RegionId{999999}}, rng).ok());
}

}  // namespace
}  // namespace trajldp::core
