// Cache coverage for NgramDomain: the insert-only weight-row cache must
// change memory and speed only — draws equal an uncached domain's — and
// worker threads racing to insert the rows a fresh domain does not yet
// hold must draw exactly what a quiet replay draws.
//
// DomainCacheTest.* and CacheStressTest.* run in the TSan CI job.

#include <gtest/gtest.h>

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
  // drawn at several ε′ so both row caches see hits and misses.
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
// uncached domain's, both in the first round, which computes every row,
// and in the later rounds, which only hit.
TEST_F(DomainCacheTest, DrawsIdenticalToUncached) {
  NgramDomain uncached(graph_.get(), distance_.get());
  uncached.set_cache_enabled(false);
  SamplerWorkspace uncached_ws;
  const auto expected = DrawSequence(uncached, 1234, /*rounds=*/3,
                                     uncached_ws);

  NgramDomain domain(graph_.get(), distance_.get());
  SamplerWorkspace ws;
  const auto draws = DrawSequence(domain, 1234, /*rounds=*/3, ws);
  EXPECT_EQ(draws, expected);
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

// ---------- Concurrent first-touch stress ----------

// Worker threads drawing on a fresh domain race to insert every row:
// each round's ε′ is new, so every round starts with rows no thread has
// computed yet. A racing identical row loses the insert and is dropped,
// and the winner's row is never moved or freed, so — every worker owning
// its Rng stream — each worker's draw sequence must equal a quiet
// single-threaded replay no matter how the inserts interleave.
class CacheStressTest : public DomainCacheTest {};

TEST_F(CacheStressTest, ConcurrentFirstTouchMatchesQuietReplay) {
  constexpr size_t kWorkers = 4;
  constexpr int kRounds = 30;
  const Rng root(20260808);
  const auto inputs = MakeInputs();

  // One worker's draw sequence on `domain`.
  auto draw_all = [&](const NgramDomain& domain, size_t w,
                      std::vector<std::vector<region::RegionId>>& draws) {
    SamplerWorkspace ws;
    Rng rng = root.Substream(w);
    std::vector<region::RegionId> out;
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& input : inputs) {
        const Status status = domain.SampleInto(
            std::span<const region::RegionId>(input), 0.5 + 0.01 * round,
            rng, ws, out);
        ASSERT_TRUE(status.ok()) << status;
        draws.push_back(out);
      }
    }
  };

  // Quiet reference: each worker's stream replayed alone on an
  // undisturbed domain.
  std::vector<std::vector<std::vector<region::RegionId>>> expected(
      kWorkers);
  CacheStats quiet;
  {
    NgramDomain reference(graph_.get(), distance_.get());
    for (size_t w = 0; w < kWorkers; ++w) {
      draw_all(reference, w, expected[w]);
    }
    quiet = reference.cache_stats();
  }

  NgramDomain domain(graph_.get(), distance_.get());
  std::vector<std::vector<std::vector<region::RegionId>>> got(kWorkers);
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] { draw_all(domain, w, got[w]); });
  }
  for (auto& worker : workers) worker.join();

  for (size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(got[w], expected[w]) << "worker " << w;
  }
  // A losing racer's row is dropped, not added: the shared domain holds
  // exactly the rows the quiet replay computed.
  EXPECT_EQ(domain.cache_stats().weight_rows, quiet.weight_rows);
  EXPECT_EQ(domain.cache_stats().suffix_rows, quiet.suffix_rows);
}

}  // namespace
}  // namespace trajldp::core
