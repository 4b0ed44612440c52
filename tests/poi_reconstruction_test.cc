#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

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
  // The region holds POIs 0 and 4; the speed puts θ(1 step) a hair below
  // their distance, so a smoothed 0 → 4 hop needs two steps.
  const region::RegionTrajectory regions(7, *decomp_->Lookup(0, 60));
  ASSERT_EQ(decomp_->region(regions[0]).pois,
            (std::vector<model::PoiId>{0, 4}));
  const model::ReachabilityConfig tight{
      6.0 * db_->DistanceKm(0, 4) * (1.0 - 1e-12), 60};
  const model::Reachability reach(db_.get(), time_, tight);
  PoiReconstructor::Config config;
  config.gamma = 200;  // keep the test fast; failure is structural
  PoiReconstructor reconstructor(decomp_.get(), &reach, config);
  Rng rng(8);
  auto result = reconstructor.Reconstruct(regions, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->smoothed);
  EXPECT_EQ(result->smoothing_cause, SmoothingCause::kEmptyFeasibleSet);
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
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
  std::unique_ptr<region::StcDecomposition> decomp_;
  model::ReachabilityConfig reach_config_;
  std::unique_ptr<model::Reachability> reach_;
};

TEST_F(GuidedFallbackTest, FallsBackToRejectionLoopBitExactly) {
  PoiReconstructor::Config config;
  config.gamma = 100;  // the rejection loop is provably futile here
  PoiReconstructor::Config guided_config = config;
  guided_config.policy = PoiPolicy::kGuided;
  PoiReconstructor rejection(decomp_.get(), reach_.get(), config);
  PoiReconstructor guided(decomp_.get(), reach_.get(), guided_config);

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
  PoiReconstructor guided(decomp_.get(), reach_.get(), guided_config);
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

// ---------- Rejection loop vs the paper loop ----------

// The paper's γ-retry loop, one whole candidate per attempt, as the
// production loop ran before it learned to reduce lazily, memoise
// reachability and certify an empty feasible set. It is the reference
// the production loop must equal draw for draw.
class ReferenceLoop {
 public:
  struct Outcome {
    model::Trajectory trajectory;
    size_t attempts = 0;
    bool smoothed = false;
  };

  ReferenceLoop(const region::StcDecomposition* decomp,
                const model::Reachability* reach, int gamma)
      : decomp_(decomp),
        reach_(reach),
        gamma_(gamma),
        smoother_(&decomp->db(), decomp->time(), reach->config()) {}

  Outcome Run(const region::RegionTrajectory& regions, Rng& rng) const {
    std::vector<model::PoiId> pois;
    std::vector<model::Timestep> times;
    Outcome out;
    for (int attempt = 0; attempt < gamma_; ++attempt) {
      ++out.attempts;
      SampleCandidate(regions, rng, &pois, &times);
      if (IsFeasible(pois, times)) {
        for (size_t i = 0; i < pois.size(); ++i) {
          out.trajectory.Append(pois[i], times[i]);
        }
        return out;
      }
    }
    SampleCandidate(regions, rng, &pois, &times);
    std::sort(times.begin(), times.end());
    auto smoothed = smoother_.Smooth(pois, times);
    EXPECT_TRUE(smoothed.ok()) << smoothed.status();
    if (!smoothed.ok()) return out;
    for (size_t i = 0; i < pois.size(); ++i) {
      out.trajectory.Append(pois[i], (*smoothed)[i]);
    }
    out.smoothed = true;
    return out;
  }

 private:
  void SampleCandidate(const region::RegionTrajectory& regions, Rng& rng,
                       std::vector<model::PoiId>* pois,
                       std::vector<model::Timestep>* times) const {
    const model::TimeDomain& time = decomp_->time();
    pois->resize(regions.size());
    times->resize(regions.size());
    for (size_t i = 0; i < regions.size(); ++i) {
      const region::StcRegion& r = decomp_->region(regions[i]);
      const model::Timestep first = time.MinuteToTimestep(r.time.begin);
      const model::Timestep last = time.MinuteToTimestep(r.time.end - 1);
      (*pois)[i] = r.pois[rng.UniformUint64(r.pois.size())];
      (*times)[i] = first + static_cast<model::Timestep>(
                                rng.UniformUint64(last - first + 1));
    }
  }

  bool IsFeasible(const std::vector<model::PoiId>& pois,
                  const std::vector<model::Timestep>& times) const {
    const model::TimeDomain& time = decomp_->time();
    for (size_t i = 0; i < pois.size(); ++i) {
      if (i > 0 && times[i] <= times[i - 1]) return false;
      const int minute = time.TimestepToMinute(times[i]);
      if (!decomp_->db().poi(pois[i]).hours.IsOpenAtMinute(minute)) {
        return false;
      }
      if (i > 0 && !reach_->IsReachableBetween(pois[i - 1], pois[i],
                                               times[i - 1], times[i])) {
        return false;
      }
    }
    return true;
  }

  const region::StcDecomposition* decomp_;
  const model::Reachability* reach_;
  int gamma_;
  TimeSmoother smoother_;
};

// Whether no assignment of `regions` is feasible, by a memoised search
// over every (position, POI, timestep) state: exhaustive, with none of
// the certificate's earliest-time dominance.
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
// exactly when the guided policy spends its kGuidedAttempts proposals
// before falling back (otherwise its DP rules them out and it spends none).
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

// Runs `policy` and the reference loop on the same collector stream and
// compares everything a release carries: trajectory, attempts, the
// smoothed flag, its cause, and the generator's next word. Returns the
// production result.
PoiReconstructor::Result ExpectMatchesReference(
    const region::StcDecomposition& decomp, const model::Reachability& reach,
    const PoiReconstructor& reconstructor,
    const region::RegionTrajectory& regions, const Rng& stream,
    PoiReconstructor::Workspace& ws) {
  Rng got_rng = stream;
  Rng want_rng = stream;
  auto got = reconstructor.Reconstruct(regions, got_rng, ws);
  EXPECT_TRUE(got.ok()) << got.status();
  if (!got.ok()) return {};
  if (reconstructor.config().policy == PoiPolicy::kGuided &&
      !got->guided_fallback) {
    // A guided acceptance leaves the collector stream untouched.
    EXPECT_EQ(got_rng.NextUint64(), want_rng.NextUint64());
    EXPECT_TRUE(reach.CheckFeasible(got->trajectory).ok());
    EXPECT_EQ(got->smoothing_cause, SmoothingCause::kNone);
    return *got;
  }
  const ReferenceLoop reference(&decomp, &reach,
                                reconstructor.config().gamma);
  const ReferenceLoop::Outcome want = reference.Run(regions, want_rng);
  size_t guided_attempts = 0;
  if (reconstructor.config().policy == PoiPolicy::kGuided &&
      HasIncreasingTimes(decomp, regions)) {
    guided_attempts = PoiReconstructor::kGuidedAttempts;
  }
  EXPECT_TRUE(got->trajectory == want.trajectory);
  EXPECT_EQ(got->attempts, want.attempts + guided_attempts);
  EXPECT_EQ(got->smoothed, want.smoothed);
  SmoothingCause cause = SmoothingCause::kNone;
  if (want.smoothed) {
    cause = FeasibleSetIsEmpty(decomp, reach, regions)
                ? SmoothingCause::kEmptyFeasibleSet
                : SmoothingCause::kRetryCap;
  }
  EXPECT_EQ(got->smoothing_cause, cause);
  EXPECT_EQ(got_rng.NextUint64(), want_rng.NextUint64());
  return *got;
}

// Worlds whose feasible set is empty for exactly one reason each, on the
// PoiReconstructorTest lattice: the certificate must find each, at the
// paper's γ = 50,000, under both policies.
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

  // Both policies, a few collector streams, the real γ.
  void ExpectCertifiedEmpty(const region::RegionTrajectory& regions) {
    ASSERT_TRUE(FeasibleSetIsEmpty(*decomp_, *reach_, regions));
    for (const PoiPolicy policy :
         {PoiPolicy::kRejection, PoiPolicy::kGuided}) {
      PoiReconstructor::Config config;
      ASSERT_EQ(config.gamma, 50000);
      config.policy = policy;
      const PoiReconstructor reconstructor(decomp_.get(), reach_.get(),
                                           config);
      PoiReconstructor::Workspace ws;
      for (uint64_t seed = 0; seed < 3; ++seed) {
        const auto result = ExpectMatchesReference(
            *decomp_, *reach_, reconstructor, regions, Rng(seed), ws);
        EXPECT_EQ(result.smoothing_cause, SmoothingCause::kEmptyFeasibleSet)
            << "seed " << seed;
      }
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

TEST_F(PoiRejectionEquivalenceTest, RetryCapWithNonEmptyFeasibleSet) {
  // Six visits to six timesteps: exactly one time tuple fits, so F is not
  // empty, but a short loop almost never draws it.
  Build({}, model::ReachabilityConfig::Unconstrained());
  const region::RegionTrajectory regions(6, *decomp_->Lookup(0, 60));
  ASSERT_FALSE(FeasibleSetIsEmpty(*decomp_, *reach_, regions));
  PoiReconstructor::Config config;
  config.gamma = 100;
  const PoiReconstructor reconstructor(decomp_.get(), reach_.get(), config);
  PoiReconstructor::Workspace ws;
  size_t capped = 0;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const auto result = ExpectMatchesReference(
        *decomp_, *reach_, reconstructor, regions, Rng(seed), ws);
    capped += result.smoothing_cause == SmoothingCause::kRetryCap ? 1 : 0;
  }
  EXPECT_GT(capped, 0u);
}

TEST_F(PoiRejectionEquivalenceTest, ReplayMatchesUniformDrawsForEveryBound) {
  // The replay must run UniformUint64's accept loop, not assume one word
  // per draw: bounds just above 2^63 reject about half of all words.
  std::vector<PoiReconstructor::Slot> slots;
  for (const uint64_t bound :
       {uint64_t{1}, uint64_t{3}, uint64_t{1000}, (uint64_t{1} << 63) + 1,
        ~uint64_t{0}}) {
    PoiReconstructor::Slot slot;
    slot.num_pois = bound;
    slot.num_times = (uint64_t{1} << 63) + 3;
    slot.poi_threshold = Rng::RejectionThreshold(slot.num_pois);
    slot.time_threshold = Rng::RejectionThreshold(slot.num_times);
    slots.push_back(slot);
  }
  Rng replayed(11), drawn(11);
  PoiReconstructor::ReplayAttempts(slots, 500, replayed);
  for (int attempt = 0; attempt < 500; ++attempt) {
    for (const PoiReconstructor::Slot& slot : slots) {
      drawn.UniformUint64(slot.num_pois);
      drawn.UniformUint64(slot.num_times);
    }
  }
  EXPECT_EQ(replayed.NextUint64(), drawn.NextUint64());
}

// Randomized worlds: scattered POIs, a third of them open only part of
// the day at minutes that need not fall on a timestep, bounded or
// unbounded θ, region sequences of 1 to 8 positions.
struct EquivalenceWorldParam {
  uint64_t seed;
  double speed_kmh;  // infinity: unconstrained
  int granularity_minutes;
  /// GuidedReleasesMatchPinnedFingerprint's expected value.
  uint64_t guided_fingerprint;
};

// Prints the fields only: gtest's fallback prints the struct's bytes,
// padding included, which would change the test ids from build to build.
void PrintTo(const EquivalenceWorldParam& param, std::ostream* os) {
  *os << "seed " << param.seed << ", " << param.speed_kmh << " km/h, "
      << param.granularity_minutes << " min steps";
}

class PoiRejectionEquivalenceSweep
    : public ::testing::TestWithParam<EquivalenceWorldParam> {
 protected:
  void SetUp() override {
    const EquivalenceWorldParam& param = GetParam();
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

TEST_P(PoiRejectionEquivalenceSweep, MatchesReferenceLoopDrawForDraw) {
  for (const PoiPolicy policy : {PoiPolicy::kRejection, PoiPolicy::kGuided}) {
    PoiReconstructor::Config config;
    config.gamma = 2000;
    config.policy = policy;
    const PoiReconstructor reconstructor(decomp_.get(), reach_.get(), config);
    // One workspace for every sequence: stale memo entries would show.
    PoiReconstructor::Workspace ws;
    Rng sequences(GetParam().seed);
    const Rng root(GetParam().seed + 1000);
    size_t by_cause[3] = {0, 0, 0};
    for (uint64_t s = 0; s < 40; ++s) {
      const region::RegionTrajectory regions = MakeSequence(sequences);
      const auto result = ExpectMatchesReference(
          *decomp_, *reach_, reconstructor, regions, root.Substream(s), ws);
      ++by_cause[static_cast<size_t>(result.smoothing_cause)];
    }
    EXPECT_GT(by_cause[0], 0u);
    EXPECT_GT(by_cause[1], 0u);
  }
}

TEST_P(PoiRejectionEquivalenceSweep, CertificateVerdictMatchesExhaustiveSearch) {
  // With γ = 0 the certificate runs before any attempt, so the cause is
  // its verdict.
  PoiReconstructor::Config config;
  config.gamma = 0;
  const PoiReconstructor reconstructor(decomp_.get(), reach_.get(), config);
  PoiReconstructor::Workspace ws;
  Rng sequences(GetParam().seed + 1);
  size_t empty = 0;
  constexpr size_t kSequences = 200;
  for (size_t s = 0; s < kSequences; ++s) {
    const region::RegionTrajectory regions = MakeSequence(sequences);
    Rng rng(s);
    auto result = reconstructor.Reconstruct(regions, rng, ws);
    ASSERT_TRUE(result.ok()) << result.status();
    const bool certified_empty =
        result->smoothing_cause == SmoothingCause::kEmptyFeasibleSet;
    EXPECT_EQ(certified_empty, FeasibleSetIsEmpty(*decomp_, *reach_, regions))
        << "sequence " << s;
    empty += certified_empty ? 1 : 0;
  }
  EXPECT_GT(empty, 0u);
  EXPECT_LT(empty, kSequences);
}

TEST_P(PoiRejectionEquivalenceSweep, GuidedReleasesMatchPinnedFingerprint) {
  // ExpectMatchesReference holds a guided acceptance only to feasibility,
  // so this pins the guided policy draw for draw: every Result on the
  // sweep's sequences, and the collector stream after it, folds into one
  // fingerprint, recorded when guided proposals read a world-wide
  // reachability table instead of the per-user memo.
  PoiReconstructor::Config config;
  config.gamma = 2000;
  config.policy = PoiPolicy::kGuided;
  const PoiReconstructor reconstructor(decomp_.get(), reach_.get(), config);
  PoiReconstructor::Workspace ws;
  Rng sequences(GetParam().seed);
  const Rng root(GetParam().seed + 1000);
  uint64_t fingerprint = 0xcbf29ce484222325ULL;  // FNV-1a over words
  const auto fold = [&fingerprint](uint64_t word) {
    fingerprint = (fingerprint ^ word) * 0x100000001b3ULL;
  };
  size_t fallbacks = 0;
  for (uint64_t s = 0; s < 40; ++s) {
    Rng rng = root.Substream(s);
    auto result = reconstructor.Reconstruct(MakeSequence(sequences), rng, ws);
    ASSERT_TRUE(result.ok()) << result.status();
    fold(result->trajectory.size());
    for (const model::TrajectoryPoint& pt : result->trajectory.points()) {
      fold(pt.poi);
      fold(static_cast<uint64_t>(pt.t));
    }
    fold(result->attempts);
    fold(result->smoothed ? 1 : 0);
    fold(static_cast<uint64_t>(result->smoothing_cause));
    fold(result->guided_fallback ? 1 : 0);
    fold(rng.NextUint64());
    fallbacks += result->guided_fallback ? 1 : 0;
  }
  // Both guided acceptances and fallbacks are in the fingerprint.
  EXPECT_GT(fallbacks, 0u);
  EXPECT_LT(fallbacks, 40u);
  EXPECT_EQ(fingerprint, GetParam().guided_fingerprint)
      << std::hex << "0x" << fingerprint;
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorlds, PoiRejectionEquivalenceSweep,
    ::testing::Values(
        // Walking pace over a 4 km square: reachability binds.
        EquivalenceWorldParam{1, 3.0, 10, 0xcb55a14dfe523e30},
        EquivalenceWorldParam{2, 5.0, 20, 0xe402c9defcf7d040},
        // θ = ∞: only time order and opening hours bind.
        EquivalenceWorldParam{3, std::numeric_limits<double>::infinity(), 10,
                              0x1604b5de41e4f073},
        EquivalenceWorldParam{4, std::numeric_limits<double>::infinity(), 15,
                              0xcf485ebf9036d901}),
    [](const ::testing::TestParamInfo<EquivalenceWorldParam>& info) {
      return "Seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace trajldp::core
