#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "core/global_mechanism.h"
#include "test_world.h"

namespace trajldp::core {
namespace {

using trajldp::testing::MakeGridWorld;
using trajldp::testing::MakeTrajectory;

class GlobalMechanismFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Tiny world: 2×2 lattice (4 POIs), 6 timesteps of 240 minutes.
    trajldp::testing::GridWorldOptions options;
    options.rows = 2;
    options.cols = 2;
    auto db = MakeGridWorld(options);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<model::PoiDatabase>(std::move(*db));
    time_ = *model::TimeDomain::Create(240);
  }

  GlobalMechanism::Config DefaultConfig() const {
    GlobalMechanism::Config config;
    config.epsilon = 5.0;
    config.reachability.speed_kmh = 8.0;
    return config;
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
};

TEST_F(GlobalMechanismFixture, EnumerationMatchesCount) {
  auto mech = GlobalMechanism::Create(db_.get(), time_, DefaultConfig());
  ASSERT_TRUE(mech.ok());
  for (size_t len : {1, 2, 3}) {
    auto candidates = mech->EnumerateCandidates(len);
    ASSERT_TRUE(candidates.ok()) << "len " << len;
    EXPECT_DOUBLE_EQ(static_cast<double>(candidates->size()),
                     mech->CountCandidates(len))
        << "len " << len;
    // Every candidate is feasible and of the right length.
    const model::Reachability reach(db_.get(), time_,
                                    DefaultConfig().reachability);
    for (const auto& traj : *candidates) {
      EXPECT_EQ(traj.size(), len);
      EXPECT_TRUE(reach.CheckFeasible(traj).ok());
    }
  }
}

TEST_F(GlobalMechanismFixture, UnconstrainedCountIsClosedForm) {
  GlobalMechanism::Config config = DefaultConfig();
  config.reachability = model::ReachabilityConfig::Unconstrained();
  auto mech = GlobalMechanism::Create(db_.get(), time_, config);
  ASSERT_TRUE(mech.ok());
  // All POIs always open, no reachability: |S| = |P|^L × C(|T|, L).
  const double p = static_cast<double>(db_->size());
  const double t = static_cast<double>(time_.num_timesteps());
  EXPECT_DOUBLE_EQ(mech->CountCandidates(1), p * t);
  EXPECT_DOUBLE_EQ(mech->CountCandidates(2), p * p * t * (t - 1) / 2.0);
}

TEST_F(GlobalMechanismFixture, EnumerationCapTriggersResourceExhausted) {
  GlobalMechanism::Config config = DefaultConfig();
  config.max_candidates = 5;
  auto mech = GlobalMechanism::Create(db_.get(), time_, config);
  ASSERT_TRUE(mech.ok());
  auto candidates = mech->EnumerateCandidates(2);
  EXPECT_FALSE(candidates.ok());
  EXPECT_EQ(candidates.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GlobalMechanismFixture, PerturbReturnsFeasibleTrajectory) {
  auto mech = GlobalMechanism::Create(db_.get(), time_, DefaultConfig());
  ASSERT_TRUE(mech.ok());
  const auto input = MakeTrajectory({{0, 1}, {1, 3}});
  Rng rng(3);
  auto output = mech->Perturb(input, rng);
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->size(), 2u);
  const model::Reachability reach(db_.get(), time_,
                                  DefaultConfig().reachability);
  EXPECT_TRUE(reach.CheckFeasible(*output).ok());
}

TEST_F(GlobalMechanismFixture, HigherEpsilonConcentratesOnTruth) {
  GlobalMechanism::Config strict = DefaultConfig();
  strict.epsilon = 200.0;
  auto mech = GlobalMechanism::Create(db_.get(), time_, strict);
  ASSERT_TRUE(mech.ok());
  const auto input = MakeTrajectory({{0, 1}, {1, 3}});
  int exact = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    auto output = mech->Perturb(input, rng);
    ASSERT_TRUE(output.ok());
    if (*output == input) ++exact;
  }
  EXPECT_GT(exact, 15);
}

TEST_F(GlobalMechanismFixture, SamplerVariantsProduceValidOutputs) {
  for (auto sampler : {GlobalMechanism::Sampler::kExponential,
                       GlobalMechanism::Sampler::kPermuteAndFlip,
                       GlobalMechanism::Sampler::kSubsampledEm}) {
    GlobalMechanism::Config config = DefaultConfig();
    config.sampler = sampler;
    config.subsample_size = 16;
    auto mech = GlobalMechanism::Create(db_.get(), time_, config);
    ASSERT_TRUE(mech.ok());
    const auto input = MakeTrajectory({{0, 1}, {1, 3}});
    Rng rng(11);
    auto output = mech->Perturb(input, rng);
    ASSERT_TRUE(output.ok());
    EXPECT_EQ(output->size(), 2u);
  }
}

TEST_F(GlobalMechanismFixture, UtilityBoundTheorem51) {
  auto mech = GlobalMechanism::Create(db_.get(), time_, DefaultConfig());
  ASSERT_TRUE(mech.ok());
  // (2Δd_τ/ε)(ln|S| + ζ) with Δd_τ = L · point-diameter.
  const double bound = mech->UtilityBound(2, 1.0);
  const double expected = 2.0 * 2.0 * mech->distance().MaxDistance() / 5.0 *
                          (std::log(mech->CountCandidates(2)) + 1.0);
  EXPECT_NEAR(bound, expected, 1e-9);
}

TEST_F(GlobalMechanismFixture, EmpiricalUtilityRespectsTheorem51) {
  // With ζ = 3 the failure probability is e^{−3} ≈ 5%; check the bound
  // holds in at least ~90% of trials.
  auto mech = GlobalMechanism::Create(db_.get(), time_, DefaultConfig());
  ASSERT_TRUE(mech.ok());
  const auto input = MakeTrajectory({{0, 1}, {1, 3}});
  const double bound = mech->UtilityBound(2, 3.0);
  int within = 0;
  const int trials = 50;
  for (int seed = 0; seed < trials; ++seed) {
    Rng rng(seed);
    auto output = mech->Perturb(input, rng);
    ASSERT_TRUE(output.ok());
    if (mech->distance().BetweenTrajectories(input, *output) <= bound) {
      ++within;
    }
  }
  EXPECT_GE(within, trials * 9 / 10);
}

TEST_F(GlobalMechanismFixture, CreateValidatesConfig) {
  GlobalMechanism::Config config = DefaultConfig();
  config.epsilon = 0.0;
  EXPECT_FALSE(GlobalMechanism::Create(db_.get(), time_, config).ok());
  config = DefaultConfig();
  config.max_candidates = 0;
  EXPECT_FALSE(GlobalMechanism::Create(db_.get(), time_, config).ok());

  // Non-finite ε and a negative, NaN or infinite quality_sensitivity are
  // refused up front instead of meaning "strict" or failing mid-Perturb.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, double>> bad_budgets = {
      {1.0, -1.0},
      {1.0, std::numeric_limits<double>::quiet_NaN()},
      {1.0, kInf},
      {kInf, 0.0}};
  for (const auto& [epsilon, sensitivity] : bad_budgets) {
    config = DefaultConfig();
    config.epsilon = epsilon;
    config.quality_sensitivity = sensitivity;
    const auto mechanism = GlobalMechanism::Create(db_.get(), time_, config);
    ASSERT_FALSE(mechanism.ok())
        << "epsilon " << epsilon << ", quality_sensitivity " << sensitivity;
    EXPECT_EQ(mechanism.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace trajldp::core
