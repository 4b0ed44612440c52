#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/ngram.h"
#include "core/ngram_domain.h"
#include "core/ngram_perturber.h"
#include "ldp/privacy_budget.h"
#include "region/region_distance.h"
#include "region/region_graph.h"
#include "test_world.h"

namespace trajldp::core {
namespace {

using trajldp::testing::MakeGridWorld;

// Shared fixture: a small decomposition + graph + distance + domain.
class NgramFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = MakeGridWorld();
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<model::PoiDatabase>(std::move(*db));
    time_ = *model::TimeDomain::Create(10);

    region::DecompositionConfig config;
    config.grid_size = 2;
    config.coarse_grids = {1};
    config.base_interval_minutes = 360;  // 4 coarse intervals per day
    config.merge.kappa = 1;              // no merging
    auto decomp = region::StcDecomposition::Build(db_.get(), time_, config);
    ASSERT_TRUE(decomp.ok());
    decomp_ = std::make_unique<region::StcDecomposition>(std::move(*decomp));

    distance_ = std::make_unique<region::RegionDistance>(decomp_.get());
    model::ReachabilityConfig reach;
    reach.speed_kmh = 8.0;
    reach.reference_gap_minutes = 60;
    graph_ = std::make_unique<region::RegionGraph>(
        region::RegionGraph::Build(*decomp_, reach));
    domain_ = std::make_unique<NgramDomain>(graph_.get(), distance_.get());
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
  std::unique_ptr<region::StcDecomposition> decomp_;
  std::unique_ptr<region::RegionDistance> distance_;
  std::unique_ptr<region::RegionGraph> graph_;
  std::unique_ptr<NgramDomain> domain_;
};

// ---------- PerturbedNgram ----------

TEST(PerturbedNgramTest, CoverageAndAccess) {
  PerturbedNgram gram{2, 4, {10, 11, 12}};
  EXPECT_EQ(gram.length(), 3u);
  EXPECT_FALSE(gram.Covers(1));
  EXPECT_TRUE(gram.Covers(2));
  EXPECT_TRUE(gram.Covers(4));
  EXPECT_FALSE(gram.Covers(5));
  EXPECT_EQ(gram.RegionAt(2), 10u);
  EXPECT_EQ(gram.RegionAt(4), 12u);
}

TEST(PerturbedNgramTest, CoverageCount) {
  PerturbedNgramSet z = {{1, 2, {0, 0}}, {2, 3, {0, 0}}, {1, 1, {0}}};
  EXPECT_EQ(CoverageCount(z, 1), 2u);
  EXPECT_EQ(CoverageCount(z, 2), 2u);
  EXPECT_EQ(CoverageCount(z, 3), 1u);
}

// ---------- NeighborSums ----------

// The kernel runs several nodes' sums side by side; each must still equal
// the plain left-to-right loop bit for bit. Node counts 1–13 cover every
// remainder modulo the chain count; lists are empty, short or long (with
// repeats), and inputs span 1e-300 to 1e3 so a reordered sum would show.
TEST(NeighborSumsTest, BitIdenticalToPlainLoop) {
  Rng rng(2024);
  for (size_t nodes = 1; nodes <= 13; ++nodes) {
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<std::vector<uint32_t>> adj(nodes);
      for (size_t v = 0; v < nodes; ++v) {
        if ((v + trial) % 5 == 0) continue;  // empty list
        const int64_t degree =
            rng.UniformInt(1, 3 * static_cast<int64_t>(nodes));
        for (int64_t j = 0; j < degree; ++j) {
          adj[v].push_back(static_cast<uint32_t>(rng.UniformUint64(nodes)));
        }
      }
      std::vector<double> in(nodes);
      for (double& x : in) x = std::pow(10.0, rng.UniformDouble(-300.0, 3.0));
      std::vector<double> out(nodes, -1.0);
      NeighborSums(
          nodes, [&](uint32_t v) { return std::span<const uint32_t>(adj[v]); },
          in.data(), out.data());
      for (size_t v = 0; v < nodes; ++v) {
        double expected = 0.0;
        for (uint32_t u : adj[v]) expected += in[u];
        EXPECT_EQ(std::bit_cast<uint64_t>(out[v]),
                  std::bit_cast<uint64_t>(expected))
            << nodes << " nodes, trial " << trial << ", node " << v;
      }
    }
  }
}

// ---------- SamplePathEm ----------

TEST_F(NgramFixture, SamplePathEmRespectsAdjacency) {
  Rng rng(31);
  const size_t n = graph_->num_regions();
  std::vector<std::vector<double>> weights(
      3, std::vector<double>(n, 1.0));
  for (int trial = 0; trial < 200; ++trial) {
    auto path = SamplePathEm(
        n, [&](uint32_t v) { return graph_->Neighbors(v); }, weights, rng);
    ASSERT_TRUE(path.ok());
    ASSERT_EQ(path->size(), 3u);
    EXPECT_TRUE(graph_->HasEdge((*path)[0], (*path)[1]));
    EXPECT_TRUE(graph_->HasEdge((*path)[1], (*path)[2]));
  }
}

TEST_F(NgramFixture, SamplePathEmDeterministicPerSeed) {
  const size_t n = graph_->num_regions();
  std::vector<std::vector<double>> weights(2, std::vector<double>(n, 1.0));
  Rng rng1(7), rng2(7);
  auto a = SamplePathEm(
      n, [&](uint32_t v) { return graph_->Neighbors(v); }, weights, rng1);
  auto b = SamplePathEm(
      n, [&](uint32_t v) { return graph_->Neighbors(v); }, weights, rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(SamplePathEmTest, FailsOnEmptyGraph) {
  Rng rng(1);
  std::vector<std::vector<double>> weights(1);
  auto result = SamplePathEm(
      0, [](uint32_t) { return std::span<const uint32_t>(); }, weights, rng);
  EXPECT_FALSE(result.ok());
}

TEST(SamplePathEmTest, FailsWhenNoWalkExists) {
  // Two nodes, no edges: no bigram exists.
  Rng rng(2);
  std::vector<std::vector<double>> weights(2, std::vector<double>(2, 1.0));
  auto result = SamplePathEm(
      2, [](uint32_t) { return std::span<const uint32_t>(); }, weights, rng);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// The factored sampler must reproduce the exact EM distribution over W₂
// (eq. 6). Enumerate W₂ explicitly, compute the EM probabilities, and
// compare with the empirical distribution via total-variation distance.
TEST_F(NgramFixture, SamplerMatchesExplicitEmOverW2) {
  const double epsilon = 2.0;
  // Input bigram: the regions of POI 0 at 09:00 and POI 1 at 10:00.
  const region::RegionId in0 = *decomp_->Lookup(0, 54);
  const region::RegionId in1 = *decomp_->Lookup(1, 60);

  const auto d0 = distance_->ToAll(in0);
  const auto d1 = distance_->ToAll(in1);
  const double delta = domain_->Sensitivity(2);

  // Explicit EM over all feasible bigrams.
  std::map<std::pair<region::RegionId, region::RegionId>, double> probs;
  double z_norm = 0.0;
  for (region::RegionId a = 0; a < graph_->num_regions(); ++a) {
    for (region::RegionId b : graph_->Neighbors(a)) {
      const double w =
          std::exp(-epsilon * (d0[a] + d1[b]) / (2.0 * delta));
      probs[{a, b}] = w;
      z_norm += w;
    }
  }
  for (auto& [key, p] : probs) p /= z_norm;

  // Empirical distribution from the factored sampler.
  Rng rng(99);
  std::map<std::pair<region::RegionId, region::RegionId>, double> empirical;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    auto sample = domain_->Sample({in0, in1}, epsilon, rng);
    ASSERT_TRUE(sample.ok());
    empirical[{(*sample)[0], (*sample)[1]}] += 1.0 / trials;
  }

  double tv = 0.0;
  for (const auto& [key, p] : probs) {
    const auto it = empirical.find(key);
    tv += std::abs(p - (it == empirical.end() ? 0.0 : it->second));
  }
  // Expected sampling noise at this trial count is ~0.02; anything much
  // larger indicates a distributional bug, not noise.
  EXPECT_LT(tv / 2.0, 0.035);
}

// ---------- Weight-row cache ----------

// The cache is a pure memoisation: with the same seed, cached and
// uncached sampling must produce the exact same draw sequence, across
// n-gram lengths and ε′ values.
TEST_F(NgramFixture, CachedAndUncachedDrawsIdentical) {
  NgramDomain uncached(graph_.get(), distance_.get());
  uncached.set_cache_enabled(false);
  ASSERT_TRUE(domain_->cache_enabled());
  ASSERT_FALSE(uncached.cache_enabled());

  const region::RegionId r0 = *decomp_->Lookup(0, 54);
  const region::RegionId r1 = *decomp_->Lookup(1, 60);
  const region::RegionId r2 = *decomp_->Lookup(2, 66);
  const std::vector<std::vector<region::RegionId>> inputs = {
      {r0}, {r0, r1}, {r1, r0}, {r0, r1, r2}};

  Rng rng_cached(123), rng_uncached(123);
  for (const double epsilon : {0.3, 1.0, 4.0}) {
    for (const auto& input : inputs) {
      for (int trial = 0; trial < 20; ++trial) {
        auto a = domain_->Sample(input, epsilon, rng_cached);
        auto b = uncached.Sample(input, epsilon, rng_uncached);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_EQ(*a, *b) << "epsilon " << epsilon;
      }
    }
  }
  // The cached domain actually hit its cache; the uncached one stayed
  // empty.
  EXPECT_GT(domain_->cache_stats().weight_hits, 0u);
  EXPECT_EQ(uncached.cache_stats().weight_rows, 0u);
  EXPECT_EQ(uncached.cache_stats().weight_hits, 0u);
}

TEST_F(NgramFixture, CacheRespectsDistinctEpsilonKeys) {
  NgramDomain domain(graph_.get(), distance_.get());
  const region::RegionId r0 = *decomp_->Lookup(0, 54);
  const region::RegionId r1 = *decomp_->Lookup(1, 60);
  ASSERT_NE(r0, r1);  // the row-count expectations below assume this

  Rng rng(11);
  ASSERT_TRUE(domain.Sample({r0, r1}, 1.0, rng).ok());
  const auto first = domain.cache_stats();
  // One weight row per distinct true region, one suffix row for the last
  // slot's region.
  EXPECT_EQ(first.weight_rows, 2u);
  EXPECT_EQ(first.suffix_rows, 1u);
  EXPECT_EQ(first.weight_misses, 2u);

  // Same ε′ again: pure hits, no new rows.
  ASSERT_TRUE(domain.Sample({r0, r1}, 1.0, rng).ok());
  const auto second = domain.cache_stats();
  EXPECT_EQ(second.weight_rows, 2u);
  EXPECT_EQ(second.suffix_rows, 1u);
  EXPECT_EQ(second.weight_misses, 2u);
  EXPECT_GE(second.weight_hits, first.weight_hits + 2);

  // Different ε′: same regions, but distinct cache keys → new rows.
  ASSERT_TRUE(domain.Sample({r0, r1}, 2.0, rng).ok());
  const auto third = domain.cache_stats();
  EXPECT_EQ(third.weight_rows, 4u);
  EXPECT_EQ(third.suffix_rows, 2u);
  EXPECT_EQ(third.weight_misses, 4u);
}

TEST_F(NgramFixture, SensitivityScalesWithN) {
  EXPECT_DOUBLE_EQ(domain_->Sensitivity(2),
                   2.0 * distance_->MaxDistance());
  EXPECT_DOUBLE_EQ(domain_->Sensitivity(3),
                   3.0 * distance_->MaxDistance());
}

TEST_F(NgramFixture, UtilityBoundPositiveAndDecreasingInEpsilon) {
  const double loose = domain_->UtilityBound(2, 0.5, 1.0);
  const double tight = domain_->UtilityBound(2, 5.0, 1.0);
  EXPECT_GT(loose, 0.0);
  EXPECT_GT(loose, tight);
}

// ---------- NgramPerturber ----------

TEST_F(NgramFixture, PerturbationCountsMatchTheorem53) {
  // |Z| = |τ| + n − 1 perturbations; every position covered exactly n
  // times (main + supplementary, Figure 3).
  for (int n = 1; n <= 3; ++n) {
    NgramPerturber perturber(domain_.get(),
                             NgramPerturber::Config{n, 5.0});
    region::RegionTrajectory tau;
    for (model::PoiId p = 0; p < 5; ++p) {
      tau.push_back(*decomp_->Lookup(p, 60 + 6 * p));
    }
    Rng rng(5);
    auto z = perturber.Perturb(tau, rng);
    ASSERT_TRUE(z.ok()) << "n=" << n;
    EXPECT_EQ(z->size(), tau.size() + n - 1) << "n=" << n;
    for (size_t i = 1; i <= tau.size(); ++i) {
      EXPECT_EQ(CoverageCount(*z, i), static_cast<size_t>(n))
          << "n=" << n << " position " << i;
    }
  }
}

TEST_F(NgramFixture, BudgetComposesToExactlyEpsilon) {
  const double epsilon = 5.0;
  NgramPerturber perturber(domain_.get(),
                           NgramPerturber::Config{2, epsilon});
  region::RegionTrajectory tau = {*decomp_->Lookup(0, 60),
                                  *decomp_->Lookup(1, 66),
                                  *decomp_->Lookup(2, 72)};
  auto budget = ldp::PrivacyBudget::Create(epsilon);
  ASSERT_TRUE(budget.ok());
  Rng rng(6);
  auto z = perturber.Perturb(tau, rng, &*budget);
  ASSERT_TRUE(z.ok());
  EXPECT_NEAR(budget->spent(), epsilon, 1e-9);
  EXPECT_EQ(budget->history().size(), tau.size() + 2 - 1);
}

TEST_F(NgramFixture, InsufficientBudgetFails) {
  NgramPerturber perturber(domain_.get(), NgramPerturber::Config{2, 5.0});
  region::RegionTrajectory tau = {*decomp_->Lookup(0, 60),
                                  *decomp_->Lookup(1, 66)};
  // A budget accountant holding less than the configured ε must refuse.
  auto budget = ldp::PrivacyBudget::Create(1.0);
  ASSERT_TRUE(budget.ok());
  Rng rng(7);
  auto z = perturber.Perturb(tau, rng, &*budget);
  EXPECT_FALSE(z.ok());
}

TEST_F(NgramFixture, NGreaterThanLengthIsClamped) {
  NgramPerturber perturber(domain_.get(), NgramPerturber::Config{3, 5.0});
  region::RegionTrajectory tau = {*decomp_->Lookup(0, 60),
                                  *decomp_->Lookup(1, 66)};
  Rng rng(8);
  auto z = perturber.Perturb(tau, rng);
  ASSERT_TRUE(z.ok());
  // Clamped to n = 2: 2 + 2 − 1 = 3 perturbations, coverage 2.
  EXPECT_EQ(z->size(), 3u);
  EXPECT_EQ(CoverageCount(*z, 1), 2u);
  EXPECT_EQ(CoverageCount(*z, 2), 2u);
}

TEST_F(NgramFixture, EmptyTrajectoryRejected) {
  NgramPerturber perturber(domain_.get(), NgramPerturber::Config{2, 5.0});
  Rng rng(9);
  EXPECT_FALSE(perturber.Perturb({}, rng).ok());
}

TEST_F(NgramFixture, EpsilonPerPerturbationFormula) {
  NgramPerturber perturber(domain_.get(), NgramPerturber::Config{2, 5.0});
  EXPECT_DOUBLE_EQ(perturber.EpsilonPerPerturbation(4), 5.0 / 5.0);
  EXPECT_DOUBLE_EQ(perturber.EpsilonPerPerturbation(8), 5.0 / 9.0);
  NgramPerturber tri(domain_.get(), NgramPerturber::Config{3, 6.0});
  EXPECT_DOUBLE_EQ(tri.EpsilonPerPerturbation(6), 6.0 / 8.0);
}

}  // namespace
}  // namespace trajldp::core
