#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <vector>

#include "common/thread_pool.h"
#include "core/batch_release_engine.h"
#include "core/mechanism.h"
#include "core/ngram_perturber.h"
#include "region/region_distance.h"
#include "region/region_graph.h"
#include "test_world.h"

namespace trajldp::core {
namespace {

using trajldp::testing::MakeGridWorld;

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(),
                   [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
  pool.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(ThreadPoolTest, SubmitAndWaitRunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 50);
}

// ---------- Rng substreams ----------

TEST(RngSubstreamTest, PureFunctionOfParentStateAndIndex) {
  const Rng root(42);
  Rng a = root.Substream(7);
  Rng b = root.Substream(7);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngSubstreamTest, DoesNotAdvanceParent) {
  Rng root(43);
  Rng untouched(43);
  (void)root.Substream(0);
  (void)root.Substream(1);
  EXPECT_EQ(root.NextUint64(), untouched.NextUint64());
}

TEST(RngSubstreamTest, DistinctIndicesDecorrelated) {
  const Rng root(44);
  Rng a = root.Substream(0);
  Rng b = root.Substream(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngJumpTest, JumpChangesStreamDeterministically) {
  Rng a(45), b(45), c(45);
  a.Jump();
  b.Jump();
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == c.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

// ---------- BatchReleaseEngine ----------

class BatchReleaseFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = MakeGridWorld();
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<model::PoiDatabase>(std::move(*db));
    time_ = *model::TimeDomain::Create(10);

    region::DecompositionConfig config;
    config.grid_size = 2;
    config.coarse_grids = {1};
    config.base_interval_minutes = 360;
    config.merge.kappa = 1;
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

  // Random multi-user workload over the full region id range.
  std::vector<region::RegionTrajectory> MakeUsers(size_t count,
                                                  uint64_t seed) const {
    const auto num_regions =
        static_cast<uint64_t>(decomp_->num_regions());
    Rng rng(seed);
    std::vector<region::RegionTrajectory> users(count);
    for (auto& tau : users) {
      const size_t len = 2 + static_cast<size_t>(rng.UniformUint64(4));
      for (size_t i = 0; i < len; ++i) {
        tau.push_back(
            static_cast<region::RegionId>(rng.UniformUint64(num_regions)));
      }
    }
    return users;
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
  std::unique_ptr<region::StcDecomposition> decomp_;
  std::unique_ptr<region::RegionDistance> distance_;
  std::unique_ptr<region::RegionGraph> graph_;
  std::unique_ptr<NgramDomain> domain_;
};

void ExpectIdentical(const std::vector<PerturbedNgramSet>& a,
                     const std::vector<PerturbedNgramSet>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "user " << i;
    for (size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i][j].a, b[i][j].a) << "user " << i << " gram " << j;
      EXPECT_EQ(a[i][j].b, b[i][j].b) << "user " << i << " gram " << j;
      EXPECT_EQ(a[i][j].regions, b[i][j].regions)
          << "user " << i << " gram " << j;
    }
  }
}

TEST_F(BatchReleaseFixture, BatchMatchesSequentialForEveryThreadCount) {
  const uint64_t seed = 1234;
  for (const int n : {2, 3}) {
    NgramPerturber perturber(domain_.get(), NgramPerturber::Config{n, 5.0});
    const auto users = MakeUsers(40, 99 + static_cast<uint64_t>(n));

    // Sequential reference: the engine's documented replay recipe.
    std::vector<PerturbedNgramSet> expected;
    const Rng root(seed);
    for (size_t i = 0; i < users.size(); ++i) {
      Rng user_rng = root.Substream(i);
      auto z = perturber.Perturb(users[i], user_rng);
      ASSERT_TRUE(z.ok()) << "user " << i;
      expected.push_back(std::move(*z));
    }

    // Each engine draws on a fresh domain, so its workers race to insert
    // every row the cache does not yet hold (this suite runs under TSan).
    for (const size_t threads : {1u, 2u, 8u}) {
      NgramDomain fresh(graph_.get(), distance_.get());
      NgramPerturber fresh_perturber(&fresh, NgramPerturber::Config{n, 5.0});
      BatchReleaseEngine engine(&fresh_perturber,
                                BatchReleaseEngine::Config{threads});
      EXPECT_EQ(engine.num_threads(), threads);
      auto batched = engine.ReleaseAll(users, seed);
      ASSERT_TRUE(batched.ok()) << "threads " << threads << " n " << n;
      ExpectIdentical(*batched, expected);
    }
  }
}

TEST_F(BatchReleaseFixture, RepeatedRunsAreIdentical) {
  NgramPerturber perturber(domain_.get(), NgramPerturber::Config{2, 5.0});
  const auto users = MakeUsers(16, 5);
  BatchReleaseEngine engine(&perturber, BatchReleaseEngine::Config{4});
  auto first = engine.ReleaseAll(users, 77);
  auto second = engine.ReleaseAll(users, 77);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectIdentical(*first, *second);
}

TEST_F(BatchReleaseFixture, DifferentSeedsDiffer) {
  NgramPerturber perturber(domain_.get(), NgramPerturber::Config{2, 5.0});
  const auto users = MakeUsers(16, 6);
  BatchReleaseEngine engine(&perturber, BatchReleaseEngine::Config{2});
  auto first = engine.ReleaseAll(users, 1);
  auto second = engine.ReleaseAll(users, 2);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  bool any_difference = false;
  for (size_t i = 0; i < users.size() && !any_difference; ++i) {
    for (size_t j = 0; j < (*first)[i].size(); ++j) {
      if ((*first)[i][j].regions != (*second)[i][j].regions) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(BatchReleaseFixture, EmptyBatchIsOk) {
  NgramPerturber perturber(domain_.get(), NgramPerturber::Config{2, 5.0});
  BatchReleaseEngine engine(&perturber, BatchReleaseEngine::Config{2});
  auto result = engine.ReleaseAll({}, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST_F(BatchReleaseFixture, PerUserErrorReportsUserIndex) {
  NgramPerturber perturber(domain_.get(), NgramPerturber::Config{2, 5.0});
  auto users = MakeUsers(5, 7);
  users[3].clear();  // empty trajectory → InvalidArgument
  BatchReleaseEngine engine(&perturber, BatchReleaseEngine::Config{2});
  auto result = engine.ReleaseAll(users, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("user 3"), std::string::npos);
}

// ---------- End-to-end batched pipeline (ReleaseAllFull) ----------

// A 200-region world: 15 × 15 lattice POIs over the four leaf categories
// on a 5 × 5 spatial grid with two half-day intervals — every cell holds
// every category in both intervals, giving 25 × 4 × 2 = 200 STC regions.
class E2eBatchFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    trajldp::testing::GridWorldOptions options;
    options.rows = 15;
    options.cols = 15;
    auto db = MakeGridWorld(options);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<model::PoiDatabase>(std::move(*db));
    time_ = *model::TimeDomain::Create(10);

    NGramConfig config;
    config.n = 2;
    config.epsilon = 5.0;
    config.decomposition.grid_size = 5;
    config.decomposition.coarse_grids = {1};
    config.decomposition.base_interval_minutes = 720;
    config.decomposition.merge.kappa = 1;
    config.reachability.speed_kmh = 30.0;
    config.reachability.reference_gap_minutes = 60;
    auto mech = NGramMechanism::Build(db_.get(), time_, config);
    ASSERT_TRUE(mech.ok()) << mech.status();
    mech_ = std::make_unique<NGramMechanism>(std::move(*mech));
  }

  std::vector<region::RegionTrajectory> MakeUsers(size_t count,
                                                  uint64_t seed) const {
    const auto num_regions =
        static_cast<uint64_t>(mech_->decomposition().num_regions());
    Rng rng(seed);
    std::vector<region::RegionTrajectory> users(count);
    for (auto& tau : users) {
      const size_t len = 2 + static_cast<size_t>(rng.UniformUint64(4));
      for (size_t i = 0; i < len; ++i) {
        tau.push_back(
            static_cast<region::RegionId>(rng.UniformUint64(num_regions)));
      }
    }
    return users;
  }

  // The engine's documented replay recipe, run sequentially without
  // workspaces — the reference the batched output must match bit-for-bit.
  std::vector<FullRelease> SequentialReference(
      const std::vector<region::RegionTrajectory>& users,
      uint64_t seed) const {
    std::vector<FullRelease> expected;
    expected.reserve(users.size());
    const Rng root(seed);
    for (size_t i = 0; i < users.size(); ++i) {
      Rng user_rng = root.Substream(i);
      auto release = mech_->ReleaseFromRegions(users[i], user_rng);
      EXPECT_TRUE(release.ok()) << "user " << i << ": " << release.status();
      expected.push_back(std::move(*release));
    }
    return expected;
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
  std::unique_ptr<NGramMechanism> mech_;
};

void ExpectIdenticalReleases(const std::vector<FullRelease>& a,
                             const std::vector<FullRelease>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].regions, b[i].regions) << "user " << i;
    EXPECT_EQ(a[i].trajectory, b[i].trajectory) << "user " << i;
    EXPECT_EQ(a[i].poi_attempts, b[i].poi_attempts) << "user " << i;
    EXPECT_EQ(a[i].smoothed, b[i].smoothed) << "user " << i;
  }
}

TEST_F(E2eBatchFixture, WorldHasRoughlyTwoHundredRegions) {
  EXPECT_GE(mech_->decomposition().num_regions(), 200u);
}

TEST_F(E2eBatchFixture, ReleaseAllFullMatchesSequentialForEveryThreadCount) {
  const uint64_t seed = 20260729;
  const auto users = MakeUsers(24, 11);
  const auto expected = SequentialReference(users, seed);

  for (const size_t threads : {1u, 2u, 8u}) {
    BatchReleaseEngine engine(mech_.get(),
                              BatchReleaseEngine::Config{threads});
    EXPECT_EQ(engine.num_threads(), threads);
    auto batched = engine.ReleaseAllFull(users, seed);
    ASSERT_TRUE(batched.ok()) << "threads " << threads << ": "
                              << batched.status();
    ExpectIdenticalReleases(*batched, expected);
  }
}

TEST_F(E2eBatchFixture, ReleaseAllFullRepeatedRunsReuseWorkspaces) {
  // The same engine (same worker workspaces) must be replayable: run two
  // batches back to back, then the first batch again — dirty workspaces
  // from earlier users/batches must never leak into later draws.
  const auto users = MakeUsers(12, 13);
  BatchReleaseEngine engine(mech_.get(), BatchReleaseEngine::Config{4});
  auto first = engine.ReleaseAllFull(users, 5);
  auto other = engine.ReleaseAllFull(users, 6);
  auto replay = engine.ReleaseAllFull(users, 5);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(replay.ok());
  ExpectIdenticalReleases(*first, *replay);
}

TEST_F(E2eBatchFixture, ReleaseAllFullOutputsAreValidTrajectories) {
  const auto users = MakeUsers(12, 17);
  BatchReleaseEngine engine(mech_.get(), BatchReleaseEngine::Config{2});
  auto batched = engine.ReleaseAllFull(users, 3);
  ASSERT_TRUE(batched.ok());
  for (size_t i = 0; i < users.size(); ++i) {
    const FullRelease& release = (*batched)[i];
    EXPECT_EQ(release.regions.size(), users[i].size()) << "user " << i;
    EXPECT_EQ(release.trajectory.size(), users[i].size()) << "user " << i;
    if (!release.smoothed) {
      EXPECT_TRUE(release.trajectory.Validate(time_).ok()) << "user " << i;
    }
    // Reconstructed region sequences respect the feasibility graph.
    for (size_t j = 0; j + 1 < release.regions.size(); ++j) {
      EXPECT_TRUE(mech_->graph().HasEdge(release.regions[j],
                                         release.regions[j + 1]))
          << "user " << i << " step " << j;
    }
  }
}

TEST_F(E2eBatchFixture, ReleaseAllFullPerUserErrorReportsUserIndex) {
  auto users = MakeUsers(6, 19);
  users[4].clear();  // empty trajectory → InvalidArgument
  BatchReleaseEngine engine(mech_.get(), BatchReleaseEngine::Config{2});
  auto result = engine.ReleaseAllFull(users, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("user 4"), std::string::npos);
}

TEST_F(E2eBatchFixture, ReleaseAllFullEmptyBatchIsOk) {
  BatchReleaseEngine engine(mech_.get(), BatchReleaseEngine::Config{2});
  auto result = engine.ReleaseAllFull({}, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST_F(BatchReleaseFixture, ReleaseAllFullRequiresMechanism) {
  NgramPerturber perturber(domain_.get(), NgramPerturber::Config{2, 5.0});
  BatchReleaseEngine engine(&perturber, BatchReleaseEngine::Config{1});
  auto result = engine.ReleaseAllFull(MakeUsers(2, 3), 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace trajldp::core
