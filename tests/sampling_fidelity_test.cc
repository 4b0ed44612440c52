// Statistical harness for the §5.6 POI sampler: PoiReconstructor must
// draw from the SAME distribution as the paper's rejection loop — uniform
// over the feasible (POI, timestep) assignments F of a region sequence.
// Four layers:
//
//  1. exact ground truth — brute-force enumeration of F on a small world,
//     then a goodness-of-fit chi-squared against the uniform law of the
//     sampler, of its exact DP draw alone, and of the paper loop;
//  2. two-sample chi-squared + total-variation distance between the
//     sampler and the paper loop (50k draws each, fixed seeds);
//  3. the DP's count against |F| from enumeration;
//  4. determinism — the draws are seeded, so every statistic here is a
//     constant: a failure is a real distribution change, never flake.
//
// Tolerances:
//  * chi-squared thresholds are the Wilson–Hilferty critical value at
//    z = 3.72 (p ≈ 1e-4) for the pooled degrees of freedom — far above
//    any plausible sampling fluctuation at these draw counts, far below
//    the statistic a genuinely different distribution produces (a
//    uniform-vs-biased gap on this world scores thousands);
//  * total variation must stay under 0.05: the expected TV between two
//    empirical distributions of the true law is ≈ 0.4·√(K/N) ≈ 0.02 for
//    K ≈ 150 outcomes and N = 50,000 draws; 0.05 gives ≈ 2.5× headroom
//    while a systematic bias of even a few percent per outcome fails.
//  * expected counts below 10 (pooled across both samples) merge into
//    one bucket so the chi-squared approximation stays valid.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/poi_reconstructor.h"
#include "model/reachability.h"
#include "region/decomposition.h"
#include "reference_loop.h"
#include "test_world.h"

namespace trajldp::core {
namespace {

using trajldp::testing::MakeGridWorld;
using trajldp::testing::ReferenceLoop;

constexpr size_t kDraws = 50000;

// One complete output trajectory, encoded for counting: (poi, t) pairs.
using OutcomeKey = std::vector<int32_t>;
using Histogram = std::map<OutcomeKey, size_t>;

OutcomeKey KeyOf(const model::Trajectory& traj) {
  OutcomeKey key;
  key.reserve(traj.size() * 2);
  for (size_t i = 0; i < traj.size(); ++i) {
    key.push_back(static_cast<int32_t>(traj.point(i).poi));
    key.push_back(static_cast<int32_t>(traj.point(i).t));
  }
  return key;
}

// Wilson–Hilferty approximation of the upper chi-squared quantile.
double ChiSquaredCritical(double df, double z) {
  const double a = 2.0 / (9.0 * df);
  const double t = 1.0 - a + z * std::sqrt(a);
  return df * t * t * t;
}

struct TwoSampleResult {
  double chi2 = 0.0;
  double df = 0.0;
  double tv = 0.0;
};

// Two-sample chi-squared over the union of outcomes, pooling rare
// outcomes (combined count < 10) into one bucket, plus the total
// variation distance between the two empirical distributions.
TwoSampleResult CompareHistograms(const Histogram& a, const Histogram& b,
                                  double n_a, double n_b) {
  std::map<OutcomeKey, std::pair<double, double>> joint;
  for (const auto& [key, count] : a) joint[key].first += count;
  for (const auto& [key, count] : b) joint[key].second += count;

  TwoSampleResult result;
  double pooled_a = 0.0, pooled_b = 0.0;
  size_t buckets = 0;
  for (const auto& [key, counts] : joint) {
    const auto& [ca, cb] = counts;
    result.tv += 0.5 * std::abs(ca / n_a - cb / n_b);
    if (ca + cb < 10.0) {
      pooled_a += ca;
      pooled_b += cb;
      continue;
    }
    const double diff = n_b * ca - n_a * cb;
    result.chi2 += diff * diff / (n_a * n_b * (ca + cb));
    ++buckets;
  }
  if (pooled_a + pooled_b > 0.0) {
    const double diff = n_b * pooled_a - n_a * pooled_b;
    result.chi2 += diff * diff / (n_a * n_b * (pooled_a + pooled_b));
    ++buckets;
  }
  result.df = buckets > 1 ? static_cast<double>(buckets - 1) : 1.0;
  return result;
}

// Goodness-of-fit chi-squared of `observed` against the uniform law on
// `support` (every enumerated feasible outcome equally likely), with the
// same rare-bucket pooling.
TwoSampleResult CompareToUniform(const Histogram& observed,
                                 const std::vector<OutcomeKey>& support,
                                 double n) {
  const double expected = n / static_cast<double>(support.size());
  TwoSampleResult result;
  double pooled_obs = 0.0, pooled_exp = 0.0;
  size_t buckets = 0;
  for (const OutcomeKey& key : support) {
    const auto it = observed.find(key);
    const double obs =
        it != observed.end() ? static_cast<double>(it->second) : 0.0;
    result.tv += 0.5 * std::abs(obs / n - 1.0 / support.size());
    if (expected < 10.0) {
      pooled_obs += obs;
      pooled_exp += expected;
      continue;
    }
    result.chi2 += (obs - expected) * (obs - expected) / expected;
    ++buckets;
  }
  if (pooled_exp > 0.0) {
    result.chi2 +=
        (pooled_obs - pooled_exp) * (pooled_obs - pooled_exp) / pooled_exp;
    ++buckets;
  }
  result.df = buckets > 1 ? static_cast<double>(buckets - 1) : 1.0;
  return result;
}

// A small world where every feasibility constraint BINDS: 1.05 km/h
// travel speed (adjacent 1 km lattice POIs need a full one-hour
// timestep — safely above the haversine round-trip of the 1 km offset —
// and diagonal √2 km pairs need two), odd POIs open 9:00–17:00 only
// (cutting the 17:00 timestep of the 12:00–18:00 region intervals), and
// strict time ordering across three positions.
class SamplingFidelityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trajldp::testing::GridWorldOptions options;
    options.restrict_odd_hours = true;
    auto db = MakeGridWorld(options);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<model::PoiDatabase>(std::move(*db));
    time_ = *model::TimeDomain::Create(60);

    region::DecompositionConfig config;
    config.grid_size = 2;
    config.coarse_grids = {1};
    config.base_interval_minutes = 360;
    config.merge.kappa = 1;
    auto decomp = region::StcDecomposition::Build(db_.get(), time_, config);
    ASSERT_TRUE(decomp.ok());
    decomp_ = std::make_unique<region::StcDecomposition>(std::move(*decomp));

    reach_config_.speed_kmh = 1.05;
    reach_config_.reference_gap_minutes = 60;
    reach_ = std::make_unique<model::Reachability>(db_.get(), time_,
                                                   reach_config_);

    // Three afternoon regions around the lattice's lower-left corner —
    // every position has multiple POIs and/or timesteps, and both the
    // 1 km/h reachability and the odd-POI opening hours cut outcomes.
    regions_ = {*decomp_->Lookup(0, time_.MinuteToTimestep(13 * 60)),
                *decomp_->Lookup(1, time_.MinuteToTimestep(14 * 60)),
                *decomp_->Lookup(4, time_.MinuteToTimestep(15 * 60))};
  }

  // Empirical output distribution of the sampler over `draws`
  // independent releases, each on its own substream of one root seed.
  // Asserts the smoothing fallback never fires (these inputs are
  // feasible, so a smoothed output would mean the sampler lost mass).
  Histogram Sample(size_t draws, uint64_t seed) {
    const PoiReconstructor reconstructor(decomp_.get(), reach_.get());
    Histogram histogram;
    PoiReconstructor::Workspace ws;
    const Rng root(seed);
    for (size_t i = 0; i < draws; ++i) {
      Rng rng = root.Substream(i);
      auto result = reconstructor.Reconstruct(regions_, rng, ws);
      EXPECT_TRUE(result.ok()) << result.status();
      EXPECT_FALSE(result->smoothed);
      ++histogram[KeyOf(result->trajectory)];
    }
    return histogram;
  }

  // The same for the exact DP draw alone (PoiReconstructor::DrawFeasible).
  Histogram SampleDp(size_t draws, uint64_t seed) {
    const PoiReconstructor reconstructor(decomp_.get(), reach_.get());
    Histogram histogram;
    PoiReconstructor::Workspace ws;
    const Rng root(seed);
    for (size_t i = 0; i < draws; ++i) {
      Rng rng = root.Substream(i);
      auto drawn = reconstructor.DrawFeasible(regions_, rng, ws);
      EXPECT_TRUE(drawn.ok()) << drawn.status();
      if (drawn.ok()) ++histogram[KeyOf(*drawn)];
    }
    return histogram;
  }

  // The same for the paper loop at its γ = 50,000.
  Histogram SampleReference(size_t draws, uint64_t seed) {
    const ReferenceLoop paper(decomp_.get(), reach_.get());
    Histogram histogram;
    const Rng root(seed);
    for (size_t i = 0; i < draws; ++i) {
      Rng rng = root.Substream(i);
      const ReferenceLoop::Outcome outcome = paper.Run(regions_, rng);
      EXPECT_FALSE(outcome.smoothed);
      ++histogram[KeyOf(outcome.trajectory)];
    }
    return histogram;
  }

  // Every key of `hist` is one of `feasible`, and the goodness-of-fit
  // against uniform-over-F passes.
  static void ExpectUniformOver(const Histogram& hist,
                                const std::vector<OutcomeKey>& feasible) {
    for (const auto& [key, count] : hist) {
      EXPECT_TRUE(std::find(feasible.begin(), feasible.end(), key) !=
                  feasible.end());
    }
    const auto gof = CompareToUniform(hist, feasible, kDraws);
    EXPECT_LT(gof.chi2, ChiSquaredCritical(gof.df, 3.72))
        << "chi2=" << gof.chi2 << " df=" << gof.df;
    EXPECT_LT(gof.tv, 0.05) << "tv=" << gof.tv;
  }

  // Brute-force enumeration of the feasible set: every (POI, timestep)
  // assignment from the per-position boxes that is strictly increasing
  // in time, open at every visit, and reachable between consecutive
  // points — evaluated with model::Reachability's formula, independent
  // of every sampler and of their min-gap memo.
  std::vector<OutcomeKey> EnumerateFeasible() {
    return EnumerateFeasible(regions_);
  }
  std::vector<OutcomeKey> EnumerateFeasible(
      const region::RegionTrajectory& regions) {
    struct Box {
      std::vector<model::PoiId> pois;
      model::Timestep first, last;
    };
    std::vector<Box> boxes;
    for (region::RegionId id : regions) {
      const region::StcRegion& r = decomp_->region(id);
      boxes.push_back({r.pois, time_.MinuteToTimestep(r.time.begin),
                       time_.MinuteToTimestep(r.time.end - 1)});
    }
    std::vector<OutcomeKey> feasible;
    std::vector<model::PoiId> pois(boxes.size());
    std::vector<model::Timestep> times(boxes.size());
    const auto open_at = [&](model::PoiId p, model::Timestep t) {
      return db_->poi(p).hours.IsOpenAtMinute(time_.TimestepToMinute(t));
    };
    // Depth-first over positions.
    const auto recurse = [&](auto&& self, size_t i) -> void {
      if (i == boxes.size()) {
        OutcomeKey key;
        for (size_t j = 0; j < boxes.size(); ++j) {
          key.push_back(static_cast<int32_t>(pois[j]));
          key.push_back(static_cast<int32_t>(times[j]));
        }
        feasible.push_back(std::move(key));
        return;
      }
      for (model::PoiId p : boxes[i].pois) {
        for (model::Timestep t = boxes[i].first; t <= boxes[i].last; ++t) {
          if (i > 0 && t <= times[i - 1]) continue;
          if (!open_at(p, t)) continue;
          if (i > 0 &&
              !reach_->IsReachableBetween(pois[i - 1], p, times[i - 1], t)) {
            continue;
          }
          pois[i] = p;
          times[i] = t;
          self(self, i + 1);
        }
      }
    };
    recurse(recurse, 0);
    return feasible;
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
  std::unique_ptr<region::StcDecomposition> decomp_;
  model::ReachabilityConfig reach_config_;
  std::unique_ptr<model::Reachability> reach_;
  region::RegionTrajectory regions_;
};

TEST_F(SamplingFidelityTest, FeasibleSetIsNontrivial) {
  // The harness only discriminates if the constraints actually cut the
  // box: the feasible set must be a strict, non-empty subset.
  const auto feasible = EnumerateFeasible();
  size_t box = 1;
  for (region::RegionId id : regions_) {
    const region::StcRegion& r = decomp_->region(id);
    box *= r.pois.size() * (r.time.length() / time_.granularity_minutes());
  }
  ASSERT_GT(feasible.size(), 10u);
  ASSERT_LT(feasible.size(), box);
}

// The paper loop, the reference of the two-sample test below.
TEST_F(SamplingFidelityTest, RejectionSamplerIsUniformOverFeasibleSet) {
  ExpectUniformOver(SampleReference(kDraws, 101), EnumerateFeasible());
}

// The sampler: increasing-time proposals, then the DP draw.
TEST_F(SamplingFidelityTest, GuidedSamplerIsUniformOverFeasibleSet) {
  ExpectUniformOver(Sample(kDraws, 202), EnumerateFeasible());
}

TEST_F(SamplingFidelityTest, DpDrawIsUniformOverFeasibleSet) {
  ExpectUniformOver(SampleDp(kDraws, 303), EnumerateFeasible());
}

TEST_F(SamplingFidelityTest, SamplerAndReferenceLoopAreIndistinguishable) {
  const auto paper = SampleReference(kDraws, 404);
  const auto sampler = Sample(kDraws, 405);
  const auto cmp = CompareHistograms(paper, sampler, kDraws, kDraws);
  EXPECT_LT(cmp.chi2, ChiSquaredCritical(cmp.df, 3.72))
      << "chi2=" << cmp.chi2 << " df=" << cmp.df;
  EXPECT_LT(cmp.tv, 0.05) << "tv=" << cmp.tv;
}

TEST_F(SamplingFidelityTest, HarnessDetectsABiasedSampler) {
  // Negative control: a per-step-retry sampler (retry only the failing
  // position instead of the whole attempt) is biased toward prefixes with
  // many completions. Simulate such a bias cheaply by taking the
  // sampler's draws and moving half of every outcome's mass onto the
  // minimum feasible outcome — the harness must reject this loudly, or
  // the tolerances above are meaningless.
  const auto feasible = EnumerateFeasible();
  auto hist = Sample(kDraws, 505);
  Histogram biased = hist;
  // Move half of every outcome's mass onto the first feasible outcome.
  size_t moved = 0;
  for (auto& [key, count] : biased) {
    if (key == feasible.front()) continue;
    const size_t take = count / 2;
    count -= take;
    moved += take;
  }
  biased[feasible.front()] += moved;
  const auto cmp = CompareHistograms(hist, biased, kDraws, kDraws);
  EXPECT_GT(cmp.chi2, 10.0 * ChiSquaredCritical(cmp.df, 3.72));
  const auto gof = CompareToUniform(biased, feasible, kDraws);
  EXPECT_GT(gof.tv, 0.05);
}

TEST_F(SamplingFidelityTest, CertificateVerdictMatchesEnumeration) {
  // The DP's count is |F|, so 0 exactly when F is empty: on the fidelity
  // world's regions and on every sequence of one to three regions drawn
  // from the corner POIs' regions, at the hours where the constraints
  // bind.
  std::vector<region::RegionId> pool;
  for (const model::PoiId poi : {0, 1, 4, 5}) {
    for (const int hour : {10, 13, 16}) {
      auto id = decomp_->Lookup(poi, time_.MinuteToTimestep(hour * 60));
      if (id.ok() && std::find(pool.begin(), pool.end(), *id) == pool.end()) {
        pool.push_back(*id);
      }
    }
  }
  ASSERT_GE(pool.size(), 4u);
  const PoiReconstructor reconstructor(decomp_.get(), reach_.get());
  PoiReconstructor::Workspace ws;
  size_t empty = 0, sequences = 0;
  const auto check = [&](const region::RegionTrajectory& regions) {
    const auto count = reconstructor.CountFeasible(regions, ws);
    ASSERT_TRUE(count.ok()) << count.status();
    EXPECT_EQ(*count, static_cast<double>(EnumerateFeasible(regions).size()))
        << "sequence " << sequences;
    ++sequences;
    empty += *count == 0.0 ? 1 : 0;
  };
  check(regions_);
  for (const region::RegionId a : pool) {
    check({a});
    for (const region::RegionId b : pool) {
      check({a, b});
      for (const region::RegionId c : pool) check({a, b, c});
    }
  }
  EXPECT_GT(empty, 0u);
  EXPECT_LT(empty, sequences);
}

TEST_F(SamplingFidelityTest, SameSeedGivesSameHistogram) {
  // The statistics above are constants, not flake.
  EXPECT_TRUE(Sample(2000, 606) == Sample(2000, 606));
  EXPECT_TRUE(SampleDp(2000, 607) == SampleDp(2000, 607));
}

}  // namespace
}  // namespace trajldp::core
