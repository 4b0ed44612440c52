// Cache coverage for NgramDomain: the weight-row cache must change
// memory and speed only — draws equal an uncached domain's at every
// capacity — and capacity shrinks / ClearCache() must stay safe while
// worker threads are mid-draw (rows are shared_ptr-pinned for the
// duration of a draw).
//
// DomainCacheTest.* and CacheStressTest.* run in the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "core/ngram_domain.h"
#include "region/region_distance.h"
#include "region/region_graph.h"
#include "test_world.h"

namespace trajldp::core {
namespace {

using trajldp::testing::MakeGridWorld;

class DomainCacheTest : public ::testing::Test {
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
  }

  // A mixed workload: several n-gram lengths over distinct regions, each
  // drawn at several ε′ so both row caches see hits, misses, and (when
  // capped) evictions.
  std::vector<std::vector<region::RegionId>> MakeInputs() const {
    const region::RegionId r0 = *decomp_->Lookup(0, 54);
    const region::RegionId r1 = *decomp_->Lookup(1, 60);
    const region::RegionId r2 = *decomp_->Lookup(2, 66);
    return {{r0}, {r0, r1}, {r1, r0}, {r0, r1, r2}, {r2, r1}};
  }

  // The draw sequence of `domain` over the fixed workload with a fresh
  // Rng(seed) and a persistent workspace — the unit being compared
  // against the uncached domain.
  std::vector<std::vector<region::RegionId>> DrawSequence(
      const NgramDomain& domain, uint64_t seed, int rounds,
      SamplerWorkspace& ws) const {
    const auto inputs = MakeInputs();
    Rng rng(seed);
    std::vector<std::vector<region::RegionId>> draws;
    std::vector<region::RegionId> out;
    for (int round = 0; round < rounds; ++round) {
      for (const double epsilon : {0.3, 1.0, 4.0}) {
        for (const auto& input : inputs) {
          const Status status = domain.SampleInto(
              std::span<const region::RegionId>(input), epsilon, rng, ws,
              out);
          EXPECT_TRUE(status.ok()) << status;
          draws.push_back(out);
        }
      }
    }
    return draws;
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
  std::unique_ptr<region::StcDecomposition> decomp_;
  std::unique_ptr<region::RegionDistance> distance_;
  std::unique_ptr<region::RegionGraph> graph_;
};

// The cache is a pure memoisation: the draw sequence equals the
// uncached domain's — including with a capacity cap forcing evictions
// mid-run.
TEST_F(DomainCacheTest, DrawsIdenticalToUncachedAtEveryCapacity) {
  NgramDomain uncached(graph_.get(), distance_.get());
  uncached.set_cache_enabled(false);
  SamplerWorkspace uncached_ws;
  const auto expected = DrawSequence(uncached, 1234, /*rounds=*/3,
                                     uncached_ws);

  for (const size_t capacity : {size_t{0}, size_t{4}}) {
    NgramDomain domain(graph_.get(), distance_.get());
    domain.set_cache_capacity(capacity);
    SamplerWorkspace ws;
    const auto draws = DrawSequence(domain, 1234, /*rounds=*/3, ws);
    EXPECT_EQ(draws, expected) << "capacity " << capacity;
  }
}

// ε′ = +∞ would make every weight row exp(−∞·0) = NaN at the true
// region: the draw must be refused up front, before any row is cached.
TEST_F(DomainCacheTest, InfiniteEpsilonFailsAndCachesNothing) {
  NgramDomain domain(graph_.get(), distance_.get());
  const region::RegionId r0 = *decomp_->Lookup(0, 54);
  const region::RegionId r1 = *decomp_->Lookup(1, 60);
  Rng rng(17);
  const auto draw =
      domain.Sample({r0, r1}, std::numeric_limits<double>::infinity(), rng);
  ASSERT_FALSE(draw.ok());
  EXPECT_EQ(draw.status().code(), StatusCode::kInvalidArgument);
  const auto stats = domain.cache_stats();
  EXPECT_EQ(stats.weight_rows, 0u);
  EXPECT_EQ(stats.suffix_rows, 0u);
  EXPECT_EQ(stats.weight_misses, 0u);
}

// ---------- Concurrent shrink / clear stress ----------

// Capacity shrinks and ClearCache() racing live draws. Workers hold
// shared_ptr pins on borrowed rows, so churn frees memory without ever
// invalidating a row mid-read — and because every worker owns its Rng
// stream, the draw sequences must equal a quiet single-threaded replay
// no matter how the churn interleaves.
class CacheStressTest : public DomainCacheTest {};

TEST_F(CacheStressTest, CapacityChurnAndClearNeverChangeDraws) {
  constexpr size_t kWorkers = 4;
  constexpr int kRounds = 30;
  const Rng root(20260808);

  // Quiet reference: each worker's stream replayed on an undisturbed
  // domain.
  std::vector<std::vector<std::vector<region::RegionId>>> expected(
      kWorkers);
  {
    NgramDomain reference(graph_.get(), distance_.get());
    for (size_t w = 0; w < kWorkers; ++w) {
      SamplerWorkspace ws;
      Rng rng = root.Substream(w);
      const auto inputs = MakeInputs();
      std::vector<region::RegionId> out;
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& input : inputs) {
          ASSERT_TRUE(reference
                          .SampleInto(
                              std::span<const region::RegionId>(input),
                              0.5 + 0.01 * round, rng, ws, out)
                          .ok());
          expected[w].push_back(out);
        }
      }
    }
  }

  NgramDomain domain(graph_.get(), distance_.get());
  std::vector<std::vector<std::vector<region::RegionId>>> got(kWorkers);
  std::atomic<bool> done{false};

  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      SamplerWorkspace ws;
      Rng rng = root.Substream(w);
      const auto inputs = MakeInputs();
      std::vector<region::RegionId> out;
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& input : inputs) {
          const Status status = domain.SampleInto(
              std::span<const region::RegionId>(input),
              0.5 + 0.01 * round, rng, ws, out);
          ASSERT_TRUE(status.ok()) << status;
          got[w].push_back(out);
        }
      }
    });
  }

  // Churn thread: shrink, grow, and clear while the draws run.
  std::thread churn([&] {
    size_t step = 0;
    while (!done.load(std::memory_order_relaxed)) {
      switch (step++ % 4) {
        case 0:
          domain.set_cache_capacity(1);
          break;
        case 1:
          domain.ClearCache();
          break;
        case 2:
          domain.set_cache_capacity(8);
          break;
        default:
          domain.set_cache_capacity(0);
          break;
      }
      std::this_thread::yield();
    }
  });

  for (auto& worker : workers) worker.join();
  done.store(true, std::memory_order_relaxed);
  churn.join();

  for (size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(got[w], expected[w]) << "worker " << w;
  }
}

// The NgramDomain::ClearCache() doc promises clears are safe against
// concurrent SampleInto. Hammer exactly that pair — one thread clearing
// in a tight loop, one thread drawing.
TEST_F(CacheStressTest, ClearWhileSamplingIsSafeAndBitIdentical) {
  const auto inputs = MakeInputs();
  constexpr int kDraws = 400;

  // Quiet reference.
  std::vector<std::vector<region::RegionId>> expected;
  {
    NgramDomain reference(graph_.get(), distance_.get());
    SamplerWorkspace ws;
    Rng rng(31337);
    std::vector<region::RegionId> out;
    for (int i = 0; i < kDraws; ++i) {
      const auto& input = inputs[i % inputs.size()];
      ASSERT_TRUE(reference
                      .SampleInto(std::span<const region::RegionId>(input),
                                  1.0, rng, ws, out)
                      .ok());
      expected.push_back(out);
    }
  }

  NgramDomain domain(graph_.get(), distance_.get());
  std::atomic<bool> done{false};
  std::thread clearer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      domain.ClearCache();
      std::this_thread::yield();
    }
  });

  std::vector<std::vector<region::RegionId>> got;
  SamplerWorkspace ws;
  Rng rng(31337);
  std::vector<region::RegionId> out;
  for (int i = 0; i < kDraws; ++i) {
    const auto& input = inputs[i % inputs.size()];
    ASSERT_TRUE(domain
                    .SampleInto(std::span<const region::RegionId>(input),
                                1.0, rng, ws, out)
                    .ok());
    got.push_back(out);
  }
  done.store(true, std::memory_order_relaxed);
  clearer.join();

  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace trajldp::core
