#include <gtest/gtest.h>

#include <limits>

#include "core/mechanism.h"
#include "model/semantic_distance.h"
#include "test_world.h"

namespace trajldp::core {
namespace {

using trajldp::testing::MakeGridWorld;
using trajldp::testing::MakeTrajectory;

class MechanismFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    trajldp::testing::GridWorldOptions options;
    options.rows = 6;
    options.cols = 6;
    auto db = MakeGridWorld(options);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<model::PoiDatabase>(std::move(*db));
    time_ = *model::TimeDomain::Create(10);
  }

  NGramConfig DefaultConfig() const {
    NGramConfig config;
    config.n = 2;
    config.epsilon = 5.0;
    config.decomposition.grid_size = 2;
    config.decomposition.coarse_grids = {1};
    config.decomposition.base_interval_minutes = 120;
    config.decomposition.merge.kappa = 2;
    config.reachability.speed_kmh = 8.0;
    config.reachability.reference_gap_minutes = 60;
    return config;
  }

  model::Trajectory SampleInput() const {
    return MakeTrajectory({{0, 54}, {7, 60}, {14, 72}, {21, 84}});
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
};

TEST_F(MechanismFixture, BuildValidatesConfig) {
  NGramConfig bad = DefaultConfig();
  bad.n = 0;
  EXPECT_FALSE(NGramMechanism::Build(db_.get(), time_, bad).ok());
  bad = DefaultConfig();
  bad.epsilon = -1.0;
  EXPECT_FALSE(NGramMechanism::Build(db_.get(), time_, bad).ok());
  bad.epsilon = std::numeric_limits<double>::infinity();
  auto infinite = NGramMechanism::Build(db_.get(), time_, bad);
  ASSERT_FALSE(infinite.ok());
  EXPECT_EQ(infinite.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MechanismFixture, EndToEndProducesValidTrajectory) {
  auto mech = NGramMechanism::Build(db_.get(), time_, DefaultConfig());
  ASSERT_TRUE(mech.ok()) << mech.status();
  EXPECT_GT(mech->preprocessing_seconds(), 0.0);

  const auto input = SampleInput();
  Rng rng(17);
  StageBreakdown stages;
  auto output = mech->Perturb(input, rng, &stages);
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->size(), input.size());
  EXPECT_TRUE(output->Validate(time_).ok());
  EXPECT_GT(stages.perturb_seconds, 0.0);
  EXPECT_GE(stages.TotalSeconds(), stages.perturb_seconds);
}

TEST_F(MechanismFixture, DeterministicForSameSeed) {
  auto mech = NGramMechanism::Build(db_.get(), time_, DefaultConfig());
  ASSERT_TRUE(mech.ok());
  const auto input = SampleInput();
  Rng rng1(23), rng2(23);
  auto a = mech->Perturb(input, rng1);
  auto b = mech->Perturb(input, rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(MechanismFixture, DifferentSeedsUsuallyDiffer) {
  auto mech = NGramMechanism::Build(db_.get(), time_, DefaultConfig());
  ASSERT_TRUE(mech.ok());
  const auto input = SampleInput();
  int distinct = 0;
  model::Trajectory previous;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    auto out = mech->Perturb(input, rng);
    ASSERT_TRUE(out.ok());
    if (seed > 0 && !(*out == previous)) ++distinct;
    previous = *out;
  }
  EXPECT_GT(distinct, 0);
}

TEST_F(MechanismFixture, WorksForAllNgramLengths) {
  for (int n = 1; n <= 3; ++n) {
    NGramConfig config = DefaultConfig();
    config.n = n;
    auto mech = NGramMechanism::Build(db_.get(), time_, config);
    ASSERT_TRUE(mech.ok()) << "n=" << n;
    const auto input = SampleInput();
    Rng rng(29);
    auto output = mech->Perturb(input, rng);
    ASSERT_TRUE(output.ok()) << "n=" << n << ": " << output.status();
    EXPECT_EQ(output->size(), input.size());
    EXPECT_TRUE(output->Validate(time_).ok());
  }
}

TEST_F(MechanismFixture, RegionLevelPipelineRespectsGraph) {
  auto mech = NGramMechanism::Build(db_.get(), time_, DefaultConfig());
  ASSERT_TRUE(mech.ok());
  auto tau = mech->decomposition().ToRegionTrajectory(SampleInput());
  ASSERT_TRUE(tau.ok());
  Rng rng(41);
  auto release = mech->ReleaseFromRegions(*tau, rng);
  ASSERT_TRUE(release.ok()) << release.status();
  const region::RegionTrajectory& regions = release->regions;
  ASSERT_EQ(regions.size(), tau->size());
  for (size_t i = 0; i + 1 < regions.size(); ++i) {
    EXPECT_TRUE(mech->graph().HasEdge(regions[i], regions[i + 1]));
  }
}

TEST_F(MechanismFixture, HighEpsilonTracksInputClosely) {
  // With a huge budget the mechanism should essentially return the
  // input's own regions; verify the perturbed output stays close in the
  // combined metric compared to a tiny budget.
  NGramConfig high = DefaultConfig();
  high.epsilon = 1000.0;
  NGramConfig low = DefaultConfig();
  low.epsilon = 0.01;
  auto mech_high = NGramMechanism::Build(db_.get(), time_, high);
  auto mech_low = NGramMechanism::Build(db_.get(), time_, low);
  ASSERT_TRUE(mech_high.ok());
  ASSERT_TRUE(mech_low.ok());

  const model::SemanticDistance dist(db_.get(), time_);
  const auto input = SampleInput();
  double err_high = 0.0, err_low = 0.0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng1(seed), rng2(seed);
    auto a = mech_high->Perturb(input, rng1);
    auto b = mech_low->Perturb(input, rng2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    err_high += dist.BetweenTrajectories(input, *a);
    err_low += dist.BetweenTrajectories(input, *b);
  }
  EXPECT_LT(err_high, err_low);
}

TEST_F(MechanismFixture, PerturbRejectsInvalidInput) {
  auto mech = NGramMechanism::Build(db_.get(), time_, DefaultConfig());
  ASSERT_TRUE(mech.ok());
  Rng rng(43);
  // Decreasing timesteps.
  auto bad = MakeTrajectory({{0, 60}, {1, 50}});
  EXPECT_FALSE(mech->Perturb(bad, rng).ok());
}

}  // namespace
}  // namespace trajldp::core
