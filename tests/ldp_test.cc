#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "ldp/exponential_mechanism.h"
#include "ldp/permute_and_flip.h"
#include "ldp/subsampled_em.h"

namespace trajldp::ldp {
namespace {

// ---------- ExponentialMechanism ----------

TEST(ExponentialMechanismTest, CreateValidates) {
  EXPECT_TRUE(ExponentialMechanism::Create(1.0, 1.0).ok());
  EXPECT_FALSE(ExponentialMechanism::Create(0.0, 1.0).ok());
  EXPECT_FALSE(ExponentialMechanism::Create(1.0, 0.0).ok());
}

TEST(ExponentialMechanismTest, ProbabilitiesMatchDefinition) {
  auto em = ExponentialMechanism::Create(2.0, 1.0);
  ASSERT_TRUE(em.ok());
  const std::vector<double> q = {0.0, -1.0, -2.0};
  const auto probs = em->Probabilities(q);
  // p_i ∝ exp(ε q_i / 2Δ) = exp(q_i) here.
  double z = std::exp(0.0) + std::exp(-1.0) + std::exp(-2.0);
  EXPECT_NEAR(probs[0], std::exp(0.0) / z, 1e-12);
  EXPECT_NEAR(probs[1], std::exp(-1.0) / z, 1e-12);
  EXPECT_NEAR(probs[2], std::exp(-2.0) / z, 1e-12);
}

// The ε-LDP guarantee (Definition 4.2): for any two *inputs* x, x' and
// output y, the probability ratio is bounded by e^ε. With a distance
// quality q(x, y) = −d(x, y) and Δ = max distance, the exponent gap per
// output is at most ε·Δ/(2Δ)·... — verify numerically over a toy domain.
TEST(ExponentialMechanismTest, LdpRatioBoundHolds) {
  const double epsilon = 1.5;
  // Toy metric space: 5 points on a line, distance |i − j|, Δ = 4.
  const int n = 5;
  const double sensitivity = 4.0;
  auto em = ExponentialMechanism::Create(epsilon, sensitivity);
  ASSERT_TRUE(em.ok());
  std::vector<std::vector<double>> probs(n);
  for (int x = 0; x < n; ++x) {
    std::vector<double> q(n);
    for (int y = 0; y < n; ++y) q[y] = -std::abs(x - y);
    probs[x] = em->Probabilities(q);
  }
  for (int x1 = 0; x1 < n; ++x1) {
    for (int x2 = 0; x2 < n; ++x2) {
      for (int y = 0; y < n; ++y) {
        EXPECT_LE(probs[x1][y] / probs[x2][y], std::exp(epsilon) + 1e-9)
            << "x1=" << x1 << " x2=" << x2 << " y=" << y;
      }
    }
  }
}

TEST(ExponentialMechanismTest, GumbelSamplingMatchesProbabilities) {
  auto em = ExponentialMechanism::Create(2.0, 1.0);
  ASSERT_TRUE(em.ok());
  const std::vector<double> q = {0.0, -0.5, -2.0, -4.0};
  const auto expected = em->Probabilities(q);
  Rng rng(77);
  std::vector<int> counts(q.size(), 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    auto pick = em->Sample(q, rng);
    ASSERT_TRUE(pick.ok());
    ++counts[*pick];
  }
  for (size_t i = 0; i < q.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, expected[i], 0.01)
        << "output " << i;
  }
}

TEST(ExponentialMechanismTest, EmptyDomainFails) {
  auto em = ExponentialMechanism::Create(1.0, 1.0);
  ASSERT_TRUE(em.ok());
  Rng rng(1);
  EXPECT_FALSE(em->Sample({}, rng).ok());
}

TEST(ExponentialMechanismTest, StreamingAgreesWithVector) {
  auto em = ExponentialMechanism::Create(1.0, 1.0);
  ASSERT_TRUE(em.ok());
  const std::vector<double> q = {0.0, -1.0, -3.0};
  Rng rng1(5), rng2(5);
  auto a = em->Sample(q, rng1);
  auto b = em->SampleStreaming(q.size(), [&](size_t i) { return q[i]; },
                               rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(ExponentialMechanismTest, TinyEpsilonApproachesUniform) {
  auto em = ExponentialMechanism::Create(1e-9, 1.0);
  ASSERT_TRUE(em.ok());
  const auto probs = em->Probabilities({0.0, -5.0, -10.0});
  for (double p : probs) EXPECT_NEAR(p, 1.0 / 3.0, 1e-6);
}

TEST(ExponentialMechanismTest, UtilityBoundFormula) {
  // 2Δ/ε (ln|Y| + ζ).
  EXPECT_NEAR(EmUtilityBound(2.0, 4.0, 100, 1.0),
              4.0 * (std::log(100.0) + 1.0), 1e-12);
}

// ---------- PermuteAndFlip ----------

TEST(PermuteAndFlipTest, AlwaysReturnsValidIndex) {
  auto pf = PermuteAndFlip::Create(1.0, 1.0);
  ASSERT_TRUE(pf.ok());
  Rng rng(3);
  const std::vector<double> q = {-3.0, 0.0, -1.0};
  for (int i = 0; i < 100; ++i) {
    auto pick = pf->Sample(q, rng);
    ASSERT_TRUE(pick.ok());
    EXPECT_LT(*pick, q.size());
  }
}

TEST(PermuteAndFlipTest, NeverWorseThanEmOnMaxQuality) {
  // PF stochastically dominates the EM on the quality of the output; at
  // minimum, the best candidate must be the modal output.
  auto pf = PermuteAndFlip::Create(2.0, 1.0);
  ASSERT_TRUE(pf.ok());
  Rng rng(4);
  const std::vector<double> q = {0.0, -2.0, -4.0};
  std::vector<int> counts(3, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    auto pick = pf->Sample(q, rng);
    ASSERT_TRUE(pick.ok());
    ++counts[*pick];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[2]);
  // Compare against the EM's modal probability: PF should put at least as
  // much mass on the argmax.
  auto em = ExponentialMechanism::Create(2.0, 1.0);
  ASSERT_TRUE(em.ok());
  const auto em_probs = em->Probabilities(q);
  EXPECT_GE(static_cast<double>(counts[0]) / n, em_probs[0] - 0.01);
}

TEST(PermuteAndFlipTest, ReportsFlipCounts) {
  auto pf = PermuteAndFlip::Create(0.1, 1.0);
  ASSERT_TRUE(pf.ok());
  Rng rng(5);
  const std::vector<double> q = {0.0, -10.0, -10.0};
  size_t flips = 0;
  auto pick = pf->Sample(q, rng, &flips);
  ASSERT_TRUE(pick.ok());
  EXPECT_GE(flips, 1u);
}

TEST(PermuteAndFlipTest, EmptyDomainFails) {
  auto pf = PermuteAndFlip::Create(1.0, 1.0);
  ASSERT_TRUE(pf.ok());
  Rng rng(6);
  EXPECT_FALSE(pf->Sample({}, rng).ok());
}

// ---------- SubsampledEm ----------

TEST(SubsampledEmTest, CreateValidates) {
  EXPECT_TRUE(SubsampledEm::Create(1.0, 1.0, 10).ok());
  EXPECT_FALSE(SubsampledEm::Create(1.0, 1.0, 0).ok());
  EXPECT_FALSE(SubsampledEm::Create(0.0, 1.0, 10).ok());
}

TEST(SubsampledEmTest, SamplesValidIndices) {
  auto sem = SubsampledEm::Create(1.0, 1.0, 5);
  ASSERT_TRUE(sem.ok());
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    auto pick = sem->Sample(1000, [](size_t i) { return -double(i); }, rng);
    ASSERT_TRUE(pick.ok());
    EXPECT_LT(*pick, 1000u);
  }
}

TEST(SubsampledEmTest, SmallSampleMissesRareGoodOutputs) {
  // §5.1's argument: with a tiny sampling rate and a skewed quality
  // distribution, the one good output (index 0) is almost never found.
  auto sem = SubsampledEm::Create(5.0, 1.0, 10);
  ASSERT_TRUE(sem.ok());
  Rng rng(8);
  const size_t domain = 100000;
  int found_best = 0;
  const int trials = 300;
  for (int i = 0; i < trials; ++i) {
    auto pick = sem->Sample(
        domain, [](size_t idx) { return idx == 0 ? 0.0 : -1.0; }, rng);
    ASSERT_TRUE(pick.ok());
    if (*pick == 0) ++found_best;
  }
  // Expected hit rate ≈ sample_size/domain ≈ 0.0001.
  EXPECT_LT(found_best, 3);
}

TEST(SubsampledEmTest, SampleLargerThanDomainIsFullEm) {
  auto sem = SubsampledEm::Create(5.0, 1.0, 1000);
  ASSERT_TRUE(sem.ok());
  Rng rng(9);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3000; ++i) {
    auto pick =
        sem->Sample(3, [](size_t idx) { return idx == 1 ? 0.0 : -2.0; }, rng);
    ASSERT_TRUE(pick.ok());
    ++counts[*pick];
  }
  EXPECT_GT(counts[1], counts[0]);
  EXPECT_GT(counts[1], counts[2]);
}

}  // namespace
}  // namespace trajldp::ldp
