#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "core/poi_reconstructor.h"
#include "core/time_smoother.h"
#include "hierarchy/builtin_hierarchies.h"
#include "reference_loop.h"
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

TEST_F(TimeSmootherTest, MinGapIsTheModelsThresholdJustAboveTheta) {
  // A speed that puts θ(1 step) a hair below d(0, 4): the pair needs two
  // steps under the model, though d / speed rounds to one step.
  const double d = db_->DistanceKm(0, 4);
  const model::ReachabilityConfig config{6.0 * d * (1.0 - 1e-12), 30};
  const model::Reachability reach(db_.get(), time_, config);
  ASSERT_FALSE(reach.IsReachableBetween(0, 4, 10, 11));
  ASSERT_TRUE(reach.IsReachableBetween(0, 4, 10, 12));
  TimeSmoother smoother(db_.get(), time_, config);
  EXPECT_EQ(smoother.MinGapTimesteps(0, 4), 2);
  auto result = smoother.Smooth({0, 4}, {10, 10});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(reach.IsReachableBetween(0, 4, (*result)[0], (*result)[1]));
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

using trajldp::testing::ReferenceLoop;

constexpr size_t kProposals = PoiReconstructor::kGuidedAttempts;

class PoiReconstructorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = MakeGridWorld();
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<model::PoiDatabase>(std::move(*db));
    time_ = *model::TimeDomain::Create(10);
    decomp_ = BuildDecomposition(60);
    ASSERT_NE(decomp_, nullptr);

    reach_config_.speed_kmh = 8.0;
    reach_config_.reference_gap_minutes = 60;
    reach_ = std::make_unique<model::Reachability>(db_.get(), time_,
                                                   reach_config_);
  }

  // The lattice cut into 2 × 2 cells and intervals of `minutes`.
  std::unique_ptr<region::StcDecomposition> BuildDecomposition(
      int minutes) const {
    region::DecompositionConfig config;
    config.grid_size = 2;
    config.coarse_grids = {1};
    config.base_interval_minutes = minutes;
    config.merge.kappa = 1;
    auto decomp = region::StcDecomposition::Build(db_.get(), time_, config);
    EXPECT_TRUE(decomp.ok()) << decomp.status();
    if (!decomp.ok()) return nullptr;
    return std::make_unique<region::StcDecomposition>(std::move(*decomp));
  }

  // A speed that puts θ(1 step) a hair below the distance of POIs 0 and 4,
  // so a hop between them needs two steps.
  model::ReachabilityConfig TightReach() const {
    return {6.0 * db_->DistanceKm(0, 4) * (1.0 - 1e-12), 60};
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
  PoiReconstructor reconstructor(decomp_.get(), reach_.get());
  const auto regions = RegionsOf({{0, 60}, {1, 66}, {5, 72}});
  Rng rng(5);
  auto result = reconstructor.Reconstruct(regions, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->smoothed);
  EXPECT_EQ(result->trajectory.size(), 3u);
  EXPECT_TRUE(reach_->CheckFeasible(result->trajectory).ok());
}

TEST_F(PoiReconstructorTest, OutputPoisBelongToTheirRegions) {
  PoiReconstructor reconstructor(decomp_.get(), reach_.get());
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
  PoiReconstructor reconstructor(decomp_.get(), reach_.get());
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
  // so F is empty, no proposal can be made, and the release falls back to
  // smoothing. The region holds POIs 0 and 4, so a smoothed 0 → 4 hop
  // needs two steps.
  const region::RegionTrajectory regions(7, *decomp_->Lookup(0, 60));
  ASSERT_EQ(decomp_->region(regions[0]).pois,
            (std::vector<model::PoiId>{0, 4}));
  const model::Reachability reach(db_.get(), time_, TightReach());
  PoiReconstructor reconstructor(decomp_.get(), &reach);
  Rng rng(8);
  auto result = reconstructor.Reconstruct(regions, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->smoothed);
  EXPECT_EQ(result->attempts, 0u);
  // Even smoothed outputs must be strictly increasing, within the day,
  // and reachable between consecutive points.
  for (size_t i = 0; i < result->trajectory.size(); ++i) {
    const model::TrajectoryPoint& pt = result->trajectory.point(i);
    if (i > 0) {
      const model::TrajectoryPoint& prev = result->trajectory.point(i - 1);
      EXPECT_GT(pt.t, prev.t);
      EXPECT_TRUE(reach.IsReachableBetween(prev.poi, pt.poi, prev.t, pt.t))
          << "point " << i;
    }
    EXPECT_GE(pt.t, 0);
    EXPECT_LT(pt.t, time_.num_timesteps());
  }
}

TEST_F(PoiReconstructorTest, GuidedSamplerProducesFeasibleOutput) {
  PoiReconstructor reconstructor(decomp_.get(), reach_.get());
  const auto regions = RegionsOf({{0, 60}, {1, 66}, {5, 72}, {6, 78}});
  Rng rng(9);
  auto result = reconstructor.Reconstruct(regions, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->smoothed);
  EXPECT_LE(result->attempts, kProposals);  // a proposal was accepted
  EXPECT_TRUE(reach_->CheckFeasible(result->trajectory).ok());
}

TEST_F(PoiReconstructorTest, GuidedNeedsFewerAttemptsOnAverage) {
  // Three visits to one six-timestep region: the paper loop's uniform
  // times are increasing with probability 20 / 216, and every increasing
  // tuple is feasible here, so the first proposal is always accepted.
  const region::RegionTrajectory regions(3, *decomp_->Lookup(0, 60));
  const ReferenceLoop paper(decomp_.get(), reach_.get());
  PoiReconstructor sampler(decomp_.get(), reach_.get());
  size_t paper_attempts = 0, attempts = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng1(seed), rng2(seed);
    const ReferenceLoop::Outcome a = paper.Run(regions, rng1);
    auto b = sampler.Reconstruct(regions, rng2);
    ASSERT_TRUE(b.ok());
    EXPECT_FALSE(a.smoothed);
    EXPECT_FALSE(b->smoothed);
    paper_attempts += a.attempts;
    attempts += b->attempts;
  }
  EXPECT_LT(attempts, paper_attempts);
}

TEST_F(PoiReconstructorTest, NoRetryCapWhenTheFeasibleSetIsTiny) {
  // Twelve visits to one two-hour region of twelve timesteps leave one
  // time tuple, and a step too short for the 0 ↔ 4 hop keeps every visit
  // at one POI: |F| = 2 of the boxes' 24^12 assignments. The paper loop
  // accepts with probability about 3e-17 per attempt, so its γ = 50,000
  // attempts end smoothed; proposals accept 2 in 2^12, so the DP draws
  // most of these releases, and none is smoothed.
  const auto decomp = BuildDecomposition(120);
  ASSERT_NE(decomp, nullptr);
  const region::RegionTrajectory regions(12, *decomp->Lookup(0, 60));
  const region::StcRegion& region = decomp->region(regions[0]);
  ASSERT_EQ(region.pois, (std::vector<model::PoiId>{0, 4}));
  ASSERT_EQ(region.time.length(), 120);
  const model::Reachability reach(db_.get(), time_, TightReach());
  PoiReconstructor reconstructor(decomp.get(), &reach);
  PoiReconstructor::Workspace ws;
  EXPECT_EQ(*reconstructor.CountFeasible(regions, ws), 2.0);
  size_t drawn = 0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    auto result = reconstructor.Reconstruct(regions, rng, ws);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(result->smoothed) << "seed " << seed;
    EXPECT_TRUE(reach.CheckFeasible(result->trajectory).ok())
        << "seed " << seed;
    drawn += result->attempts == kProposals + 1 ? 1 : 0;
  }
  EXPECT_GT(drawn, 0u);
}

TEST_F(PoiReconstructorTest, RejectsBadInputs) {
  PoiReconstructor reconstructor(decomp_.get(), reach_.get());
  Rng rng(10);
  EXPECT_FALSE(reconstructor.Reconstruct({}, rng).ok());
  EXPECT_FALSE(
      reconstructor.Reconstruct({region::RegionId{999999}}, rng).ok());
  PoiReconstructor::Workspace ws;
  EXPECT_FALSE(reconstructor.CountFeasible({}, ws).ok());
  EXPECT_FALSE(reconstructor.DrawFeasible({}, rng, ws).ok());
}

// The benchmark's lattice: 2,000 always-open POIs 1 km apart, cut into a
// 5 × 5 grid of whole-day regions, 8 km/h per 30-minute reference gap and
// 10-minute timesteps.
TEST(PoiLongestReportTest, AWholeDayOfVisitsIsDrawnByTheDp) {
  hierarchy::CategoryTree tree = hierarchy::BuiltinCampus();
  const auto leaves = tree.Leaves();
  std::vector<model::Poi> pois;
  for (size_t i = 0; i < 2000; ++i) {
    model::Poi poi;
    poi.name = "lattice_" + std::to_string(i);
    poi.location = geo::OffsetKm({40.7, -74.0}, static_cast<double>(i % 45),
                                 static_cast<double>(i / 45));
    poi.category = leaves[i % leaves.size()];
    pois.push_back(std::move(poi));
  }
  auto db = model::PoiDatabase::Create(std::move(pois), std::move(tree));
  ASSERT_TRUE(db.ok()) << db.status();
  const auto time = *model::TimeDomain::Create(10);
  region::DecompositionConfig config;
  config.grid_size = 5;
  config.coarse_grids = {1};
  config.base_interval_minutes = 1440;
  config.merge.kappa = 1;
  auto decomp = region::StcDecomposition::Build(&*db, time, config);
  ASSERT_TRUE(decomp.ok()) << decomp.status();
  const model::Reachability reach(&*db, time, {8.0, 30});

  // |T| visits to one region of 9 POIs: one increasing time tuple, so the
  // proposals range over 9^144 ≈ 2^456 POI sequences, of which F holds
  // about 2^223.
  const region::RegionTrajectory regions(
      static_cast<size_t>(time.num_timesteps()), *decomp->Lookup(0, 0));
  ASSERT_EQ(decomp->region(regions[0]).pois.size(), 9u);
  const PoiReconstructor reconstructor(&*decomp, &reach);
  PoiReconstructor::Workspace ws;
  const auto count = reconstructor.CountFeasible(regions, ws);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_GT(*count, 0x1p200);
  EXPECT_LT(*count, 0x1p256);
  Rng rng(1);
  auto result = reconstructor.Reconstruct(regions, rng, ws);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->smoothed);
  EXPECT_EQ(result->attempts, kProposals + 1);
  EXPECT_TRUE(reach.CheckFeasible(result->trajectory).ok());

  // θ = ∞: every POI sequence fits, |F| = 9^144, and the DP's positions
  // pass 2^256, where it rescales them.
  const model::Reachability free(&*db, time,
                                 model::ReachabilityConfig::Unconstrained());
  const PoiReconstructor unconstrained(&*decomp, &free);
  const auto all = unconstrained.CountFeasible(regions, ws);
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_NEAR(*all / std::pow(9.0, 144), 1.0, 1e-9);
  const auto drawn = unconstrained.DrawFeasible(regions, rng, ws);
  ASSERT_TRUE(drawn.ok()) << drawn.status();
  EXPECT_TRUE(free.CheckFeasible(*drawn).ok());
}

// ---------- The one sampler against F ----------

// Whether no assignment of `regions` is feasible, by a memoised search
// over every (position, POI, timestep) state, independent of the DP.
bool FeasibleSetIsEmpty(const region::StcDecomposition& decomp,
                        const model::Reachability& reach,
                        const region::RegionTrajectory& regions) {
  const model::TimeDomain& time = decomp.time();
  struct Box {
    const std::vector<model::PoiId>* pois;
    model::Timestep first;
    model::Timestep width;
  };
  std::vector<Box> boxes;
  for (region::RegionId id : regions) {
    const region::StcRegion& r = decomp.region(id);
    const model::Timestep first = time.MinuteToTimestep(r.time.begin);
    boxes.push_back(
        {&r.pois, first, time.MinuteToTimestep(r.time.end - 1) - first + 1});
  }
  const auto open = [&](model::PoiId p, model::Timestep t) {
    return decomp.db().poi(p).hours.IsOpenAtMinute(time.TimestepToMinute(t));
  };
  // memo[i][k · width + (t − first)]: −1 unknown, else whether a feasible
  // suffix starts at (POI k, t) in position i.
  std::vector<std::vector<int8_t>> memo(boxes.size());
  for (size_t i = 0; i < boxes.size(); ++i) {
    memo[i].assign(boxes[i].pois->size() * boxes[i].width, -1);
  }
  const auto completes = [&](auto&& self, size_t i, size_t k,
                             model::Timestep t) -> bool {
    if (i + 1 == boxes.size()) return true;
    int8_t& known = memo[i][k * boxes[i].width + (t - boxes[i].first)];
    if (known >= 0) return known == 1;
    const Box& next = boxes[i + 1];
    bool found = false;
    for (size_t k2 = 0; k2 < next.pois->size() && !found; ++k2) {
      const model::PoiId q = (*next.pois)[k2];
      for (model::Timestep u = next.first; u < next.first + next.width; ++u) {
        if (u <= t || !open(q, u)) continue;
        if (!reach.IsReachableBetween((*boxes[i].pois)[k], q, t, u)) continue;
        if (self(self, i + 1, k2, u)) {
          found = true;
          break;
        }
      }
    }
    known = found ? 1 : 0;
    return found;
  };
  for (size_t k = 0; k < boxes[0].pois->size(); ++k) {
    for (model::Timestep t = boxes[0].first;
         t < boxes[0].first + boxes[0].width; ++t) {
      if (open((*boxes[0].pois)[k], t) && completes(completes, 0, k, t)) {
        return false;
      }
    }
  }
  return true;
}

// Whether some strictly increasing time tuple fits the regions' windows:
// exactly when the sampler makes its kGuidedAttempts proposals before the
// DP (otherwise it makes none).
bool HasIncreasingTimes(const region::StcDecomposition& decomp,
                        const region::RegionTrajectory& regions) {
  const model::TimeDomain& time = decomp.time();
  model::Timestep t = -1;
  for (region::RegionId id : regions) {
    const region::StcRegion& r = decomp.region(id);
    t = std::max(t + 1, time.MinuteToTimestep(r.time.begin));
    if (t > time.MinuteToTimestep(r.time.end - 1)) return false;
  }
  return true;
}

// Whether every point of `trajectory` lies in its region's box: a POI of
// the region, at a timestep of its window.
bool InsideBoxes(const region::StcDecomposition& decomp,
                 const region::RegionTrajectory& regions,
                 const model::Trajectory& trajectory) {
  if (trajectory.size() != regions.size()) return false;
  const model::TimeDomain& time = decomp.time();
  for (size_t i = 0; i < regions.size(); ++i) {
    const region::StcRegion& r = decomp.region(regions[i]);
    const model::TrajectoryPoint& pt = trajectory.point(i);
    if (!std::binary_search(r.pois.begin(), r.pois.end(), pt.poi) ||
        pt.t < time.MinuteToTimestep(r.time.begin) ||
        pt.t > time.MinuteToTimestep(r.time.end - 1)) {
      return false;
    }
  }
  return true;
}

// Worlds whose feasible set is empty for exactly one reason each, on the
// PoiReconstructorTest lattice: the DP must find each, and the paper loop
// must agree, smoothing them too after its γ = 50,000 attempts.
class PoiRejectionEquivalenceTest : public ::testing::Test {
 protected:
  void Build(const trajldp::testing::GridWorldOptions& options,
             model::ReachabilityConfig reach) {
    auto db = MakeGridWorld(options);
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
    reach_ = std::make_unique<model::Reachability>(db_.get(), time_, reach);
  }

  void ExpectCertifiedEmpty(const region::RegionTrajectory& regions) {
    ASSERT_TRUE(FeasibleSetIsEmpty(*decomp_, *reach_, regions));
    const PoiReconstructor reconstructor(decomp_.get(), reach_.get());
    const ReferenceLoop paper(decomp_.get(), reach_.get());
    PoiReconstructor::Workspace ws;
    EXPECT_EQ(*reconstructor.CountFeasible(regions, ws), 0.0);
    const size_t proposals =
        HasIncreasingTimes(*decomp_, regions) ? kProposals : 0;
    for (uint64_t seed = 0; seed < 3; ++seed) {
      Rng rng(seed), paper_rng(seed);
      const auto result = reconstructor.Reconstruct(regions, rng, ws);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_TRUE(result->smoothed) << "seed " << seed;
      EXPECT_EQ(result->attempts, proposals) << "seed " << seed;
      EXPECT_TRUE(paper.Run(regions, paper_rng).smoothed) << "seed " << seed;
    }
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
  std::unique_ptr<region::StcDecomposition> decomp_;
  std::unique_ptr<model::Reachability> reach_;
};

TEST_F(PoiRejectionEquivalenceTest, EmptyByTimeOrderOnly) {
  // Every POI open, θ = ∞: seven visits to one region of six timesteps
  // fail on time order alone.
  Build({}, model::ReachabilityConfig::Unconstrained());
  ExpectCertifiedEmpty(region::RegionTrajectory(7, *decomp_->Lookup(0, 60)));
}

TEST_F(PoiRejectionEquivalenceTest, EmptyByOpeningHoursOnly) {
  // Odd POIs open 10:05–10:08 only: they join the 10:00 regions but are
  // closed at every 10-minute timestep. θ = ∞, and two visits to a
  // six-timestep region leave room for time order.
  trajldp::testing::GridWorldOptions options;
  options.restrict_odd_hours = true;
  options.open_begin_minute = 10 * 60 + 5;
  options.open_end_minute = 10 * 60 + 8;
  Build(options, model::ReachabilityConfig::Unconstrained());
  const region::RegionId odd = *decomp_->Lookup(1, 60);
  for (const model::PoiId p : decomp_->region(odd).pois) {
    ASSERT_EQ(p % 2, 1u);
  }
  ExpectCertifiedEmpty({odd, odd});
}

TEST_F(PoiRejectionEquivalenceTest, EmptyByReachabilityOnly) {
  // Every POI open; 1 km/h covers under 1 km in the 50 minutes one hour's
  // window allows, and the two regions are over 2 km apart.
  Build({}, {1.0, 60});
  const region::RegionTrajectory regions{*decomp_->Lookup(0, 60),
                                         *decomp_->Lookup(10, 60)};
  ASSERT_NE(regions[0], regions[1]);
  ExpectCertifiedEmpty(regions);
}

// Randomized worlds: scattered POIs, a third of them open only part of
// the day at minutes that need not fall on a timestep, bounded or
// unbounded θ, region sequences of 1 to 8 positions.
struct SweepWorldParam {
  uint64_t seed;
  double speed_kmh;  // infinity: unconstrained
  int granularity_minutes;
  /// ReleasesMatchPinnedFingerprint's expected value.
  uint64_t fingerprint;
};

// Prints the fields only: gtest's fallback prints the struct's bytes,
// padding included, which would change the test ids from build to build.
void PrintTo(const SweepWorldParam& param, std::ostream* os) {
  *os << "seed " << param.seed << ", " << param.speed_kmh << " km/h, "
      << param.granularity_minutes << " min steps";
}

class PoiSamplerSweep : public ::testing::TestWithParam<SweepWorldParam> {
 protected:
  void SetUp() override {
    const SweepWorldParam& param = GetParam();
    hierarchy::CategoryTree tree = trajldp::testing::MakeSmallTree();
    const auto leaves = tree.Leaves();
    const geo::LatLon origin{40.7000, -74.0000};
    Rng rng(param.seed);
    std::vector<model::Poi> pois;
    for (size_t i = 0; i < 48; ++i) {
      model::Poi poi;
      poi.name = "poi_" + std::to_string(i);
      poi.location = geo::OffsetKm(origin, rng.UniformDouble(0.0, 4.0),
                                   rng.UniformDouble(0.0, 4.0));
      poi.category = leaves[i % leaves.size()];
      poi.popularity = 1.0 + static_cast<double>(i);
      if (i % 3 == 1) {
        const int open = 5 * static_cast<int>(rng.UniformUint64(200));
        poi.hours = model::OpeningHours::Daily(
            open, open + 5 + 5 * static_cast<int>(rng.UniformUint64(48)));
      }
      pois.push_back(std::move(poi));
    }
    auto db = model::PoiDatabase::Create(std::move(pois), std::move(tree));
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<model::PoiDatabase>(std::move(*db));
    time_ = *model::TimeDomain::Create(param.granularity_minutes);
    region::DecompositionConfig config;
    config.grid_size = 2;
    config.coarse_grids = {1};
    config.base_interval_minutes = 60;
    config.merge.kappa = 1;
    auto decomp = region::StcDecomposition::Build(db_.get(), time_, config);
    ASSERT_TRUE(decomp.ok());
    decomp_ = std::make_unique<region::StcDecomposition>(std::move(*decomp));
    reach_ = std::make_unique<model::Reachability>(
        db_.get(), time_, model::ReachabilityConfig{param.speed_kmh, 60});
    by_hour_.assign(24, {});
    for (region::RegionId id = 0; id < decomp_->num_regions(); ++id) {
      by_hour_[decomp_->region(id).time.begin / 60].push_back(id);
    }
  }

  // A sequence of 1–8 regions whose hours mostly move forward, so that
  // feasible, infeasible and barely feasible sequences all occur.
  region::RegionTrajectory MakeSequence(Rng& rng) const {
    const size_t len = 1 + static_cast<size_t>(rng.UniformUint64(8));
    size_t hour = 6 + static_cast<size_t>(rng.UniformUint64(10));
    region::RegionTrajectory regions;
    while (regions.size() < len) {
      const auto& candidates = by_hour_[hour % 24];
      if (!candidates.empty()) {
        regions.push_back(
            candidates[rng.UniformUint64(candidates.size())]);
      }
      hour += 23 + rng.UniformUint64(4);  // −1 to +2 hours
    }
    return regions;
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
  std::unique_ptr<region::StcDecomposition> decomp_;
  std::unique_ptr<model::Reachability> reach_;
  std::vector<std::vector<region::RegionId>> by_hour_;
};

TEST_P(PoiSamplerSweep, CertificateVerdictMatchesExhaustiveSearch) {
  // The DP's count is 0 exactly when F is empty, and exactly those
  // releases are smoothed. Every other release, and every DP draw, is
  // feasible and inside its regions' boxes.
  const PoiReconstructor reconstructor(decomp_.get(), reach_.get());
  // One workspace for every sequence: stale memo entries would show.
  PoiReconstructor::Workspace ws;
  Rng sequences(GetParam().seed + 1);
  size_t empty = 0;
  constexpr size_t kSequences = 200;
  for (size_t s = 0; s < kSequences; ++s) {
    const region::RegionTrajectory regions = MakeSequence(sequences);
    const auto count = reconstructor.CountFeasible(regions, ws);
    ASSERT_TRUE(count.ok()) << count.status();
    const bool certified_empty = *count == 0.0;
    EXPECT_EQ(certified_empty, FeasibleSetIsEmpty(*decomp_, *reach_, regions))
        << "sequence " << s;
    empty += certified_empty ? 1 : 0;

    Rng rng(s);
    const auto result = reconstructor.Reconstruct(regions, rng, ws);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->smoothed, certified_empty) << "sequence " << s;
    if (certified_empty) continue;
    EXPECT_TRUE(reach_->CheckFeasible(result->trajectory).ok())
        << "sequence " << s;
    EXPECT_TRUE(InsideBoxes(*decomp_, regions, result->trajectory))
        << "sequence " << s;
    const auto drawn = reconstructor.DrawFeasible(regions, rng, ws);
    ASSERT_TRUE(drawn.ok()) << drawn.status();
    EXPECT_TRUE(reach_->CheckFeasible(*drawn).ok()) << "sequence " << s;
    EXPECT_TRUE(InsideBoxes(*decomp_, regions, *drawn)) << "sequence " << s;
  }
  EXPECT_GT(empty, 0u);
  EXPECT_LT(empty, kSequences);
}

TEST_P(PoiSamplerSweep, ReleasesMatchPinnedFingerprint) {
  // Pins the sampler draw for draw: every Result on the sweep's
  // sequences, and the collector stream after it, folds into one
  // fingerprint. Proposals accept or F is empty on these sequences, so
  // each feasible one also folds in the DP's own draw from the same
  // stream.
  const PoiReconstructor reconstructor(decomp_.get(), reach_.get());
  PoiReconstructor::Workspace ws;
  Rng sequences(GetParam().seed);
  const Rng root(GetParam().seed + 1000);
  uint64_t fingerprint = 0xcbf29ce484222325ULL;  // FNV-1a over words
  const auto fold = [&fingerprint](uint64_t word) {
    fingerprint = (fingerprint ^ word) * 0x100000001b3ULL;
  };
  const auto fold_points = [&fold](const model::Trajectory& trajectory) {
    fold(trajectory.size());
    for (const model::TrajectoryPoint& pt : trajectory.points()) {
      fold(pt.poi);
      fold(static_cast<uint64_t>(pt.t));
    }
  };
  size_t accepted = 0, smoothed = 0;
  for (uint64_t s = 0; s < 40; ++s) {
    const region::RegionTrajectory regions = MakeSequence(sequences);
    Rng rng = root.Substream(s);
    Rng dp_rng = rng;
    auto result = reconstructor.Reconstruct(regions, rng, ws);
    ASSERT_TRUE(result.ok()) << result.status();
    fold_points(result->trajectory);
    fold(result->attempts);
    fold(result->smoothed ? 1 : 0);
    fold(rng.NextUint64());
    accepted += result->attempts <= kProposals && !result->smoothed ? 1 : 0;
    smoothed += result->smoothed ? 1 : 0;
    if (result->smoothed) continue;
    auto drawn = reconstructor.DrawFeasible(regions, dp_rng, ws);
    ASSERT_TRUE(drawn.ok()) << drawn.status();
    fold_points(*drawn);
    fold(dp_rng.NextUint64());
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(smoothed, 0u);
  EXPECT_EQ(fingerprint, GetParam().fingerprint)
      << std::hex << "0x" << fingerprint;
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorlds, PoiSamplerSweep,
    ::testing::Values(
        // Walking pace over a 4 km square: reachability binds.
        SweepWorldParam{1, 3.0, 10, 0xb786255b31bf9e05},
        SweepWorldParam{2, 5.0, 20, 0x9f4fdeaa82a9f0b5},
        // θ = ∞: only time order and opening hours bind.
        SweepWorldParam{3, std::numeric_limits<double>::infinity(), 10,
                        0xfb5df961976f8da3},
        SweepWorldParam{4, std::numeric_limits<double>::infinity(), 15,
                        0xe1103be890d9f6b0}),
    [](const ::testing::TestParamInfo<SweepWorldParam>& info) {
      return "Seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace trajldp::core
