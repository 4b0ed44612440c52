#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "baselines/independent.h"
#include "baselines/ngram_no_hierarchy.h"
#include "baselines/phys_dist.h"
#include "baselines/poi_level_ngram.h"
#include "test_world.h"

namespace trajldp::baselines {
namespace {

using trajldp::testing::MakeGridWorld;
using trajldp::testing::MakeTrajectory;

class BaselinesFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    trajldp::testing::GridWorldOptions options;
    options.rows = 5;
    options.cols = 5;
    auto db = MakeGridWorld(options);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<model::PoiDatabase>(std::move(*db));
    time_ = *model::TimeDomain::Create(10);
    reach_.speed_kmh = 8.0;
    reach_.reference_gap_minutes = 60;
  }

  model::Trajectory SampleInput() const {
    return MakeTrajectory({{0, 54}, {6, 60}, {12, 72}, {18, 84}});
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
  model::ReachabilityConfig reach_;
};

// ---------- IndependentMechanism ----------

TEST_F(BaselinesFixture, IndNoReachProducesValidOrderedOutput) {
  IndependentMechanism::Config config;
  config.epsilon = 5.0;
  config.reachability = reach_;
  config.respect_reachability = false;
  auto mech = IndependentMechanism::Build(db_.get(), time_, config);
  ASSERT_TRUE(mech.ok());
  Rng rng(3);
  core::StageBreakdown stages;
  auto output = mech->Perturb(SampleInput(), rng, &stages);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->size(), 4u);
  EXPECT_TRUE(output->Validate(time_).ok());
  // IndNoReach spends time in post-processing (smoothing) — the paper's
  // Table 3 'Other' column.
  EXPECT_GT(stages.other_seconds, 0.0);
}

TEST_F(BaselinesFixture, IndNoReachOutputReachableAfterSmoothing) {
  IndependentMechanism::Config config;
  config.epsilon = 5.0;
  config.reachability = reach_;
  config.respect_reachability = false;
  auto mech = IndependentMechanism::Build(db_.get(), time_, config);
  ASSERT_TRUE(mech.ok());
  const model::Reachability checker(db_.get(), time_, reach_);
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    auto output = mech->Perturb(SampleInput(), rng);
    ASSERT_TRUE(output.ok());
    // Smoothing guarantees time order and reachability (not hours; the
    // grid world is always-open so CheckFeasible covers everything).
    EXPECT_TRUE(checker.CheckFeasible(*output).ok()) << "seed " << seed;
  }
}

TEST_F(BaselinesFixture, IndReachOutputFeasibleByConstruction) {
  IndependentMechanism::Config config;
  config.epsilon = 5.0;
  config.reachability = reach_;
  config.respect_reachability = true;
  auto mech = IndependentMechanism::Build(db_.get(), time_, config);
  ASSERT_TRUE(mech.ok());
  const model::Reachability checker(db_.get(), time_, reach_);
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    auto output = mech->Perturb(SampleInput(), rng);
    ASSERT_TRUE(output.ok());
    EXPECT_TRUE(checker.CheckFeasible(*output).ok()) << "seed " << seed;
  }
}

TEST_F(BaselinesFixture, IndependentDeterministicPerSeed) {
  IndependentMechanism::Config config;
  config.epsilon = 5.0;
  config.reachability = reach_;
  auto mech = IndependentMechanism::Build(db_.get(), time_, config);
  ASSERT_TRUE(mech.ok());
  Rng rng1(9), rng2(9);
  auto a = mech->Perturb(SampleInput(), rng1);
  auto b = mech->Perturb(SampleInput(), rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(BaselinesFixture, IndependentHighEpsilonStaysClose) {
  IndependentMechanism::Config config;
  config.epsilon = 2000.0;
  config.reachability = reach_;
  auto mech = IndependentMechanism::Build(db_.get(), time_, config);
  ASSERT_TRUE(mech.ok());
  const model::SemanticDistance dist(db_.get(), time_);
  const auto input = SampleInput();
  Rng rng(13);
  auto output = mech->Perturb(input, rng);
  ASSERT_TRUE(output.ok());
  // With an enormous budget each point lands on (or next to) the truth.
  EXPECT_LT(dist.BetweenTrajectories(input, *output) /
                static_cast<double>(input.size()),
            1.0);
}

// ---------- PoiLevelNgramMechanism (NGramNoH / PhysDist) ----------

TEST_F(BaselinesFixture, NGramNoHProducesValidOutput) {
  NGramNoHConfig config;
  config.epsilon = 5.0;
  config.reachability = reach_;
  auto mech = BuildNGramNoH(db_.get(), time_, config);
  ASSERT_TRUE(mech.ok());
  const model::Reachability checker(db_.get(), time_, reach_);
  Rng rng(15);
  core::StageBreakdown stages;
  auto output = mech->Perturb(SampleInput(), rng, &stages);
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->size(), 4u);
  EXPECT_TRUE(output->Validate(time_).ok());
  EXPECT_TRUE(checker.CheckFeasible(*output).ok());
  EXPECT_GT(stages.perturb_seconds, 0.0);
  EXPECT_GT(stages.optimal_reconstruct_seconds, 0.0);
}

TEST_F(BaselinesFixture, PhysDistProducesValidOutput) {
  PhysDistConfig config;
  config.epsilon = 5.0;
  config.reachability = reach_;
  auto mech = BuildPhysDist(db_.get(), time_, config);
  ASSERT_TRUE(mech.ok());
  Rng rng(17);
  auto output = mech->Perturb(SampleInput(), rng);
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->size(), 4u);
  EXPECT_TRUE(output->Validate(time_).ok());
}

TEST_F(BaselinesFixture, BudgetSplitFormula) {
  NGramNoHConfig config;
  config.n = 2;
  config.epsilon = 9.0;
  config.reachability = reach_;
  auto mech = BuildNGramNoH(db_.get(), time_, config);
  ASSERT_TRUE(mech.ok());
  // ε′ = ε / (2|τ| + n − 1) = 9 / (8 + 1) = 1.
  EXPECT_DOUBLE_EQ(mech->EpsilonPerPerturbation(4), 1.0);
}

TEST_F(BaselinesFixture, PoiGraphExcludesSelfAndRespectsTheta) {
  PhysDistConfig config;
  config.epsilon = 5.0;
  config.reachability.speed_kmh = 2.0;  // θ = 2 km at 60-minute gap
  config.reachability.reference_gap_minutes = 60;
  auto mech = BuildPhysDist(db_.get(), time_, config);
  ASSERT_TRUE(mech.ok());
  const double theta = config.reachability.ReferenceThetaKm();
  for (model::PoiId p = 0; p < db_->size(); ++p) {
    for (uint32_t q : mech->Neighbors(p)) {
      EXPECT_NE(q, p);
      EXPECT_LE(db_->DistanceKm(p, q), theta + 1e-9);
    }
  }
  EXPECT_GT(mech->num_edges(), 0u);
}

TEST_F(BaselinesFixture, UnconstrainedPoiGraphIsComplete) {
  PhysDistConfig config;
  config.epsilon = 5.0;
  config.reachability = model::ReachabilityConfig::Unconstrained();
  auto mech = BuildPhysDist(db_.get(), time_, config);
  ASSERT_TRUE(mech.ok());
  EXPECT_EQ(mech->num_edges(), db_->size() * (db_->size() - 1));
}

TEST_F(BaselinesFixture, PhysDistIgnoresCategoriesNGramNoHDoesNot) {
  // Statistical check: NGramNoH should match the input's category better
  // than PhysDist, because its quality function includes d_c. Uses a
  // compact world (so d_c dominates the quality diameter), a generous
  // budget, and many seeds to keep the check stable.
  trajldp::testing::GridWorldOptions options;
  options.rows = 5;
  options.cols = 5;
  options.spacing_km = 0.4;
  auto db_small = MakeGridWorld(options);
  ASSERT_TRUE(db_small.ok());

  NGramNoHConfig nh;
  nh.epsilon = 20.0;
  nh.reachability = reach_;
  PhysDistConfig pd;
  pd.epsilon = 20.0;
  pd.reachability = reach_;
  auto ngram_noh = BuildNGramNoH(&*db_small, time_, nh);
  auto phys = BuildPhysDist(&*db_small, time_, pd);
  ASSERT_TRUE(ngram_noh.ok());
  ASSERT_TRUE(phys.ok());

  const model::SemanticDistance dist(&*db_small, time_);
  const auto input = SampleInput();
  double dc_noh = 0.0, dc_phys = 0.0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng1(seed), rng2(seed);
    auto a = ngram_noh->Perturb(input, rng1);
    auto b = phys->Perturb(input, rng2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    for (size_t i = 0; i < input.size(); ++i) {
      dc_noh += dist.Category(input.point(i).poi, a->point(i).poi);
      dc_phys += dist.Category(input.point(i).poi, b->point(i).poi);
    }
  }
  EXPECT_LT(dc_noh, dc_phys);
}

TEST_F(BaselinesFixture, PoiLevelDeterministicPerSeed) {
  NGramNoHConfig config;
  config.epsilon = 5.0;
  config.reachability = reach_;
  auto mech = BuildNGramNoH(db_.get(), time_, config);
  ASSERT_TRUE(mech.ok());
  Rng rng1(21), rng2(21);
  auto a = mech->Perturb(SampleInput(), rng1);
  auto b = mech->Perturb(SampleInput(), rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(BaselinesFixture, ConfigValidation) {
  IndependentMechanism::Config bad;
  bad.epsilon = 0.0;
  EXPECT_FALSE(IndependentMechanism::Build(db_.get(), time_, bad).ok());

  PoiLevelNgramMechanism::Config bad2;
  bad2.n = 0;
  EXPECT_FALSE(PoiLevelNgramMechanism::Build(db_.get(), time_, bad2).ok());

  // Every Build refuses a non-finite ε and a negative, NaN or infinite
  // quality_sensitivity up front, as NGramMechanism::Build does, rather
  // than reading them as "strict" or failing at the first Perturb.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, double>> bad_budgets = {
      {1.0, -1.0},
      {1.0, std::numeric_limits<double>::quiet_NaN()},
      {1.0, kInf},
      {kInf, 0.0}};
  for (const auto& [epsilon, sensitivity] : bad_budgets) {
    const std::string what = "epsilon " + std::to_string(epsilon) +
                             ", quality_sensitivity " +
                             std::to_string(sensitivity);
    IndependentMechanism::Config independent;
    independent.epsilon = epsilon;
    independent.quality_sensitivity = sensitivity;
    auto a = IndependentMechanism::Build(db_.get(), time_, independent);
    ASSERT_FALSE(a.ok()) << what;
    EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument) << what;

    PoiLevelNgramMechanism::Config poi_level;
    poi_level.epsilon = epsilon;
    poi_level.quality_sensitivity = sensitivity;
    auto b = PoiLevelNgramMechanism::Build(db_.get(), time_, poi_level);
    ASSERT_FALSE(b.ok()) << what;
    EXPECT_EQ(b.status().code(), StatusCode::kInvalidArgument) << what;

    PhysDistConfig phys;
    phys.epsilon = epsilon;
    phys.quality_sensitivity = sensitivity;
    EXPECT_FALSE(BuildPhysDist(db_.get(), time_, phys).ok()) << what;

    NGramNoHConfig no_h;
    no_h.epsilon = epsilon;
    no_h.quality_sensitivity = sensitivity;
    EXPECT_FALSE(BuildNGramNoH(db_.get(), time_, no_h).ok()) << what;
  }
}

}  // namespace
}  // namespace trajldp::baselines
