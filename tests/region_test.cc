#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "region/decomposition.h"
#include "region/merging.h"
#include "region/region_distance.h"
#include "region/region_graph.h"
#include "region/region_index.h"
#include "test_world.h"

namespace trajldp::region {
namespace {

using trajldp::testing::GridWorldOptions;
using trajldp::testing::MakeGridWorld;
using trajldp::testing::MakeStaggeredWorld;

model::TimeDomain TenMinutes() {
  return *model::TimeDomain::Create(10);
}

DecompositionConfig SmallConfig(size_t kappa = 1) {
  DecompositionConfig config;
  config.grid_size = 4;
  config.coarse_grids = {2, 1};
  config.base_interval_minutes = 60;
  config.merge.kappa = kappa;
  return config;
}

// ---------- Decomposition basics ----------

TEST(DecompositionTest, ConfigValidation) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  const auto time = TenMinutes();

  DecompositionConfig bad = SmallConfig();
  bad.grid_size = 0;
  EXPECT_FALSE(StcDecomposition::Build(&*db, time, bad).ok());

  bad = SmallConfig();
  bad.coarse_grids = {8};  // not decreasing
  EXPECT_FALSE(StcDecomposition::Build(&*db, time, bad).ok());

  bad = SmallConfig();
  bad.base_interval_minutes = 45;  // not a multiple of g_t = 10
  EXPECT_FALSE(StcDecomposition::Build(&*db, time, bad).ok());

  bad = SmallConfig();
  bad.base_interval_minutes = 7;  // does not divide 1440
  EXPECT_FALSE(StcDecomposition::Build(&*db, time, bad).ok());
}

TEST(DecompositionTest, EveryOpenPoiTimestepHasExactlyOneRegion) {
  GridWorldOptions options;
  options.restrict_odd_hours = true;
  auto db = MakeGridWorld(options);
  ASSERT_TRUE(db.ok());
  const auto time = TenMinutes();
  auto decomp = StcDecomposition::Build(&*db, time, SmallConfig());
  ASSERT_TRUE(decomp.ok());

  for (model::PoiId poi = 0; poi < db->size(); ++poi) {
    for (model::Timestep t = 0; t < time.num_timesteps(); ++t) {
      const bool open = db->poi(poi).hours.IsOpenAtMinute(
          time.TimestepToMinute(t));
      auto region = decomp->Lookup(poi, t);
      if (open) {
        ASSERT_TRUE(region.ok()) << "poi " << poi << " t " << t;
        // The region must actually contain the POI...
        const StcRegion& r = decomp->region(*region);
        EXPECT_TRUE(std::binary_search(r.pois.begin(), r.pois.end(), poi));
        // ... cover the timestep ...
        EXPECT_TRUE(r.time.Contains(time.TimestepToMinute(t)));
        // ... and carry an ancestor-or-self of the POI's category.
        EXPECT_TRUE(db->categories().IsAncestorOrSelf(
            r.category, db->poi(poi).category));
      } else {
        EXPECT_EQ(region.status().code(), StatusCode::kNotFound);
      }
    }
  }
}

TEST(DecompositionTest, NoEmptyRegions) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  auto decomp = StcDecomposition::Build(&*db, TenMinutes(), SmallConfig());
  ASSERT_TRUE(decomp.ok());
  EXPECT_GT(decomp->num_regions(), 0u);
  for (const StcRegion& r : decomp->regions()) {
    EXPECT_FALSE(r.pois.empty());
    EXPECT_GT(r.time.length(), 0);
  }
}

TEST(DecompositionTest, ToRegionTrajectoryMapsEachPoint) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  const auto time = TenMinutes();
  auto decomp = StcDecomposition::Build(&*db, time, SmallConfig());
  ASSERT_TRUE(decomp.ok());

  const auto traj = trajldp::testing::MakeTrajectory({{0, 60}, {5, 66}});
  auto regions = decomp->ToRegionTrajectory(traj);
  ASSERT_TRUE(regions.ok());
  ASSERT_EQ(regions->size(), 2u);
  EXPECT_EQ((*regions)[0], *decomp->Lookup(0, 60));
  EXPECT_EQ((*regions)[1], *decomp->Lookup(5, 66));
}

// ---------- Merging ----------

TEST(MergingTest, KappaMergesSparseRegions) {
  auto db = MakeGridWorld();  // 16 POIs
  ASSERT_TRUE(db.ok());
  const auto time = TenMinutes();

  auto fine = StcDecomposition::Build(&*db, time, SmallConfig(1));
  ASSERT_TRUE(fine.ok());
  auto merged = StcDecomposition::Build(&*db, time, SmallConfig(4));
  ASSERT_TRUE(merged.ok());

  // Requiring 4 POIs per region must produce (weakly) fewer regions.
  EXPECT_LE(merged->num_regions(), fine->num_regions());
  EXPECT_GE(merged->FractionAtKappa(), fine->FractionAtKappa());
}

TEST(MergingTest, HighKappaStillCoversEveryAssignment) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  const auto time = TenMinutes();
  auto decomp = StcDecomposition::Build(&*db, time, SmallConfig(8));
  ASSERT_TRUE(decomp.ok());
  // All POIs are always open in this world: every (poi, t) must resolve.
  for (model::PoiId poi = 0; poi < db->size(); ++poi) {
    EXPECT_TRUE(decomp->Lookup(poi, 0).ok());
    EXPECT_TRUE(decomp->Lookup(poi, 143).ok());
  }
}

TEST(MergingTest, PopularityProtectionKeepsHotRegionsUnmerged) {
  auto db = MakeGridWorld();  // popularity = id + 1, max 16
  ASSERT_TRUE(db.ok());
  const auto time = TenMinutes();

  DecompositionConfig config = SmallConfig(16);
  config.merge.protect_popularity = 16.0;  // protect POI 15's regions
  auto decomp = StcDecomposition::Build(&*db, time, config);
  ASSERT_TRUE(decomp.ok());

  // Every region containing POI 15 must contain nothing else that could
  // only have arrived via merging: protected regions never merge, so they
  // keep their original (cell, hour, leaf-category) membership.
  for (const StcRegion& r : decomp->regions()) {
    if (std::binary_search(r.pois.begin(), r.pois.end(),
                           model::PoiId{15})) {
      EXPECT_GE(r.max_popularity, 16.0);
      EXPECT_EQ(r.space_level, 0);
      EXPECT_EQ(r.time.length(), 60);
    }
  }
}

TEST(MergingTest, DistinctPoiCountDeduplicates) {
  ProtoRegion region;
  region.members = {{0, 0}, {0, 1}, {1, 0}};
  EXPECT_EQ(DistinctPoiCount(region), 2u);
}

TEST(MergingTest, CategoryPriorityPreservesSpace) {
  // A denser 8×8 lattice puts sibling leaf categories (adjacent columns)
  // into the same decomposition cell, giving the category merger partners.
  GridWorldOptions options;
  options.rows = 8;
  options.cols = 8;
  auto db = MakeGridWorld(options);
  ASSERT_TRUE(db.ok());
  const auto time = TenMinutes();

  // Merge category first: regions should coarsen categories before
  // touching the grid.
  DecompositionConfig config = SmallConfig(4);
  config.merge.priority = {MergeDimension::kCategory,
                           MergeDimension::kTime, MergeDimension::kSpace};
  auto decomp = StcDecomposition::Build(&*db, time, config);
  ASSERT_TRUE(decomp.ok());
  // At least one region should have a non-leaf category (level < 3 for
  // food leaves) while staying at the finest grid.
  bool lifted_category_fine_space = false;
  for (const StcRegion& r : decomp->regions()) {
    if (db->categories().level(r.category) < 3 && r.space_level == 0) {
      lifted_category_fine_space = true;
      break;
    }
  }
  EXPECT_TRUE(lifted_category_fine_space);
}

// ---------- RegionDistance ----------

TEST(RegionDistanceTest, SymmetricAndZeroOnSelf) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  auto decomp = StcDecomposition::Build(&*db, TenMinutes(), SmallConfig());
  ASSERT_TRUE(decomp.ok());
  RegionDistance dist(&*decomp);
  const size_t n = std::min<size_t>(decomp->num_regions(), 40);
  for (RegionId a = 0; a < n; ++a) {
    EXPECT_DOUBLE_EQ(dist.Between(a, a), 0.0);
    for (RegionId b = 0; b < n; ++b) {
      EXPECT_DOUBLE_EQ(dist.Between(a, b), dist.Between(b, a));
      EXPECT_LE(dist.Between(a, b), dist.MaxDistance() + 1e-9);
    }
  }
}

TEST(RegionDistanceTest, CombinationMatchesEq15) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  auto decomp = StcDecomposition::Build(&*db, TenMinutes(), SmallConfig());
  ASSERT_TRUE(decomp.ok());
  RegionDistance dist(&*decomp);
  for (RegionId a = 0; a < std::min<size_t>(decomp->num_regions(), 20);
       ++a) {
    for (RegionId b = 0; b < std::min<size_t>(decomp->num_regions(), 20);
         ++b) {
      const double s = dist.SpatialKm(a, b);
      const double t = dist.TimeHours(a, b);
      const double c = dist.Category(a, b);
      EXPECT_NEAR(dist.Between(a, b), std::sqrt(s * s + t * t + c * c),
                  1e-9);
    }
  }
}

TEST(RegionDistanceTest, WeightsZeroOutDimensions) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  auto decomp = StcDecomposition::Build(&*db, TenMinutes(), SmallConfig());
  ASSERT_TRUE(decomp.ok());
  RegionDistance phys(&*decomp, RegionDistance::Weights{1.0, 0.0, 0.0});
  for (RegionId a = 0; a < std::min<size_t>(decomp->num_regions(), 20);
       ++a) {
    for (RegionId b = 0; b < std::min<size_t>(decomp->num_regions(), 20);
         ++b) {
      EXPECT_NEAR(phys.Between(a, b), phys.SpatialKm(a, b), 1e-12);
    }
  }
}

// The grid world plus, at three POIs' locations, a twin of another
// category: two regions with one centroid and different category nodes.
StatusOr<model::PoiDatabase> GridWorldWithTwins() {
  auto grid = MakeGridWorld();
  if (!grid.ok()) return grid.status();
  std::vector<model::Poi> pois = grid->pois();
  const std::vector<hierarchy::CategoryId> leaves =
      grid->categories().Leaves();
  for (const size_t i : {0, 5, 10}) {
    model::Poi twin = pois[i];
    twin.name += "_twin";
    twin.category = leaves[(i + 1) % leaves.size()];
    pois.push_back(std::move(twin));
  }
  return model::PoiDatabase::Create(std::move(pois),
                                    trajldp::testing::MakeSmallTree());
}

// The matrix is built once per pair of (centroid, category) keys; every
// entry must still be the float of the per-pair Between(), bit for bit,
// with the larger region first as the per-pair loop called it.
TEST(RegionDistanceTest, MatrixEqualsBetweenBitForBit) {
  struct World {
    std::string name;
    StatusOr<model::PoiDatabase> db;
    int base_interval_minutes;
  };
  World worlds[] = {
      // Hourly intervals: every (cell, category) key recurs per hour.
      {"hourly", MakeGridWorld(), 60},
      {"twins", GridWorldWithTwins(), 60},
      // All day: one key per region.
      {"all-day", MakeGridWorld(), 1440},
  };
  const RegionDistance::Weights weights[] = {
      {1.0, 1.0, 1.0}, {1.0, 0.0, 0.0}, {0.7, 1.9, 2.3}};
  bool recurring = false, twins = false, one_per_region = false;
  for (World& world : worlds) {
    SCOPED_TRACE(world.name);
    ASSERT_TRUE(world.db.ok());
    DecompositionConfig config = SmallConfig();
    config.base_interval_minutes = world.base_interval_minutes;
    auto decomp = StcDecomposition::Build(&*world.db, TenMinutes(), config);
    ASSERT_TRUE(decomp.ok());
    const size_t n = decomp->num_regions();
    // What d_s and d_c read: the centroid's bits and the category node.
    std::map<std::tuple<uint64_t, uint64_t, hierarchy::CategoryId>, size_t>
        keys;
    std::map<std::pair<uint64_t, uint64_t>, std::set<hierarchy::CategoryId>>
        categories_at;
    for (const StcRegion& r : decomp->regions()) {
      const auto lat = std::bit_cast<uint64_t>(r.centroid.lat);
      const auto lon = std::bit_cast<uint64_t>(r.centroid.lon);
      recurring |= ++keys[{lat, lon, r.category}] >= 2;
      categories_at[{lat, lon}].insert(r.category);
    }
    for (const auto& [centroid, categories] : categories_at) {
      twins |= categories.size() >= 2;
    }
    one_per_region |= keys.size() == n;
    for (const RegionDistance::Weights& w : weights) {
      const RegionDistance dist(&*decomp, w);
      size_t mismatches = 0;
      for (RegionId a = 0; a < n; ++a) {
        const std::span<const float> row = dist.ToAll(a);
        for (RegionId b = 0; b < n; ++b) {
          const auto want = static_cast<float>(
              dist.Between(std::max(a, b), std::min(a, b)));
          if (std::bit_cast<uint32_t>(row[b]) !=
              std::bit_cast<uint32_t>(want)) {
            ++mismatches;
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << "weights {" << w.spatial << ", "
                                << w.temporal << ", " << w.category
                                << "} over " << n * n << " pairs";
    }
  }
  EXPECT_TRUE(recurring);
  EXPECT_TRUE(twins);
  EXPECT_TRUE(one_per_region);
}

// ---------- RegionGraph ----------

TEST(RegionGraphTest, EdgesRespectTimeOrder) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  const auto time = TenMinutes();
  auto decomp = StcDecomposition::Build(&*db, time, SmallConfig());
  ASSERT_TRUE(decomp.ok());

  model::ReachabilityConfig reach;
  reach.speed_kmh = 8.0;
  reach.reference_gap_minutes = 30;
  const RegionGraph graph = RegionGraph::Build(*decomp, reach);

  for (RegionId a = 0; a < graph.num_regions(); ++a) {
    for (RegionId b : graph.Neighbors(a)) {
      const StcRegion& ra = decomp->region(a);
      const StcRegion& rb = decomp->region(b);
      // There must exist timesteps t_a < t_b within the two intervals.
      EXPECT_GT(rb.time.end, ra.time.begin + time.granularity_minutes());
    }
  }
}

TEST(RegionGraphTest, EdgesRespectReachability) {
  auto db = MakeGridWorld();  // 4 km wide lattice
  ASSERT_TRUE(db.ok());
  auto decomp = StcDecomposition::Build(&*db, TenMinutes(), SmallConfig());
  ASSERT_TRUE(decomp.ok());

  model::ReachabilityConfig tight;
  tight.speed_kmh = 2.0;
  tight.reference_gap_minutes = 30;  // θ = 1 km
  const RegionGraph graph = RegionGraph::Build(*decomp, tight);
  const double theta = tight.ReferenceThetaKm();

  for (RegionId a = 0; a < graph.num_regions(); ++a) {
    for (RegionId b : graph.Neighbors(a)) {
      if (a == b) continue;
      // Verify at least one POI pair within θ exists.
      bool any = false;
      for (model::PoiId p : decomp->region(a).pois) {
        for (model::PoiId q : decomp->region(b).pois) {
          if (db->DistanceKm(p, q) <= theta + 1e-9) {
            any = true;
            break;
          }
        }
        if (any) break;
      }
      EXPECT_TRUE(any) << "edge " << a << "->" << b;
    }
  }
}

TEST(RegionGraphTest, UnconstrainedKeepsAllTimeCompatiblePairs) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  const auto time = TenMinutes();
  auto decomp = StcDecomposition::Build(&*db, time, SmallConfig());
  ASSERT_TRUE(decomp.ok());

  const RegionGraph constrained = RegionGraph::Build(
      *decomp, model::ReachabilityConfig{2.0, 30});
  const RegionGraph unconstrained = RegionGraph::Build(
      *decomp, model::ReachabilityConfig::Unconstrained());
  EXPECT_GE(unconstrained.num_edges(), constrained.num_edges());
}

TEST(RegionGraphTest, HasEdgeAgreesWithNeighbors) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  auto decomp = StcDecomposition::Build(&*db, TenMinutes(), SmallConfig());
  ASSERT_TRUE(decomp.ok());
  const RegionGraph graph = RegionGraph::Build(
      *decomp, model::ReachabilityConfig{8.0, 30});
  for (RegionId a = 0; a < std::min<size_t>(graph.num_regions(), 30); ++a) {
    std::set<RegionId> nbrs(graph.Neighbors(a).begin(),
                            graph.Neighbors(a).end());
    for (RegionId b = 0; b < std::min<size_t>(graph.num_regions(), 30);
         ++b) {
      EXPECT_EQ(graph.HasEdge(a, b), nbrs.count(b) > 0);
    }
  }
}

TEST(RegionGraphTest, CountNgramsMatchesManualCount) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  auto decomp = StcDecomposition::Build(&*db, TenMinutes(), SmallConfig());
  ASSERT_TRUE(decomp.ok());
  const RegionGraph graph = RegionGraph::Build(
      *decomp, model::ReachabilityConfig{8.0, 30});
  EXPECT_DOUBLE_EQ(graph.CountNgrams(1),
                   static_cast<double>(graph.num_regions()));
  EXPECT_DOUBLE_EQ(graph.CountNgrams(2),
                   static_cast<double>(graph.num_edges()));
  // Trigram count: sum over edges (a→b) of out-degree(b).
  double trigrams = 0.0;
  for (RegionId a = 0; a < graph.num_regions(); ++a) {
    for (RegionId b : graph.Neighbors(a)) {
      trigrams += static_cast<double>(graph.Neighbors(b).size());
    }
  }
  EXPECT_DOUBLE_EQ(graph.CountNgrams(3), trigrams);
}

// The all-pairs construction: every time-ordered pair of distinct regions
// runs the bounding-box tests and, when they cannot decide, the exact POI
// scan (smaller region's POIs against the larger one's, the first
// argument on ties). RegionGraph::Build shares one spatial test among
// regions with equal POI sets and must equal this edge for edge.
std::vector<std::vector<RegionId>> AllPairsNeighbors(
    const StcDecomposition& decomp, const model::ReachabilityConfig& reach) {
  const model::PoiDatabase& db = decomp.db();
  const double theta = reach.ReferenceThetaKm();
  auto any_poi_pair_within = [&](const StcRegion& a, const StcRegion& b) {
    const StcRegion& small = a.pois.size() <= b.pois.size() ? a : b;
    const StcRegion& large = a.pois.size() <= b.pois.size() ? b : a;
    for (model::PoiId p : small.pois) {
      const geo::LatLon& loc = db.poi(p).location;
      if (large.bounds.DistanceKm(loc) > theta) continue;
      for (model::PoiId q : large.pois) {
        if (geo::HaversineKm(loc, db.poi(q).location) <= theta) return true;
      }
    }
    return false;
  };
  const int g_t = decomp.time().granularity_minutes();
  const size_t n = decomp.num_regions();
  std::vector<std::vector<RegionId>> adj(n);
  for (RegionId a = 0; a < n; ++a) {
    const StcRegion& ra = decomp.region(a);
    for (RegionId b = 0; b < n; ++b) {
      const StcRegion& rb = decomp.region(b);
      if (!(rb.time.end > ra.time.begin + g_t)) continue;
      if (!reach.unconstrained() && a != b) {
        if (ra.bounds.MinDistanceKm(rb.bounds) > theta) continue;
        if (ra.bounds.MaxDistanceKm(rb.bounds) > theta &&
            !any_poi_pair_within(ra, rb)) {
          continue;
        }
      }
      adj[a].push_back(b);
    }
  }
  return adj;
}

// True when two regions with distinct POI sets of equal size need the
// exact POI scan under `reach` (their boxes cannot decide), so the scan's
// small/large choice rests on argument order alone.
bool HasUndecidedEqualSizePair(const StcDecomposition& decomp,
                               const model::ReachabilityConfig& reach) {
  const double theta = reach.ReferenceThetaKm();
  for (const StcRegion& a : decomp.regions()) {
    for (const StcRegion& b : decomp.regions()) {
      if (a.pois.size() == b.pois.size() && a.pois != b.pois &&
          a.bounds.MinDistanceKm(b.bounds) <= theta &&
          a.bounds.MaxDistanceKm(b.bounds) > theta) {
        return true;
      }
    }
  }
  return false;
}

TEST(RegionGraphTest, BuildEqualsAllPairsReference) {
  // Every POI of the default lattice is open all day, so each POI set
  // recurs once per hour.
  std::vector<std::pair<std::string, model::PoiDatabase>> worlds;
  auto lattice = MakeGridWorld();
  ASSERT_TRUE(lattice.ok());
  worlds.emplace_back("lattice", std::move(*lattice));
  auto staggered = MakeStaggeredWorld();
  ASSERT_TRUE(staggered.ok());
  worlds.emplace_back("staggered", std::move(*staggered));
  const model::ReachabilityConfig reaches[] = {
      {2.0, 30}, {8.0, 30}, model::ReachabilityConfig::Unconstrained()};
  bool undecided_equal_size = false;
  for (const auto& [name, db] : worlds) {
    for (size_t kappa : {1, 3}) {
      auto decomp = StcDecomposition::Build(&db, TenMinutes(),
                                            SmallConfig(kappa));
      ASSERT_TRUE(decomp.ok());
      std::set<std::vector<model::PoiId>> sets;
      for (const StcRegion& region : decomp->regions()) {
        sets.insert(region.pois);
      }
      EXPECT_LT(sets.size(), decomp->num_regions())
          << name << " kappa " << kappa << ": no POI set recurs";
      for (const model::ReachabilityConfig& reach : reaches) {
        SCOPED_TRACE(name + " kappa " + std::to_string(kappa) + " speed " +
                     std::to_string(reach.speed_kmh));
        const RegionGraph graph = RegionGraph::Build(*decomp, reach);
        const auto expected = AllPairsNeighbors(*decomp, reach);
        ASSERT_EQ(graph.num_regions(), expected.size());
        size_t edges = 0;
        for (RegionId a = 0; a < expected.size(); ++a) {
          EXPECT_TRUE(std::ranges::equal(graph.Neighbors(a), expected[a]))
              << "region " << a;
          edges += expected[a].size();
        }
        EXPECT_EQ(graph.num_edges(), edges);
        // The factored test the set relaxation reads equals the edge
        // list on every pair, and each set lists exactly its regions in
        // (begin, id) order.
        const int g_t = decomp->time().granularity_minutes();
        for (RegionId a = 0; a < expected.size(); ++a) {
          std::vector<bool> factored(expected.size());
          for (RegionId b = 0; b < expected.size(); ++b) {
            factored[b] =
                graph.interval_begin(a) + g_t < graph.interval_end(b) &&
                std::ranges::binary_search(
                    graph.SetPredecessors(graph.poi_set(b)),
                    graph.poi_set(a));
          }
          std::vector<bool> listed(expected.size());
          for (RegionId b : expected[a]) listed[b] = true;
          EXPECT_EQ(factored, listed) << "region " << a;
        }
        ASSERT_EQ(graph.num_poi_sets(), sets.size());
        std::vector<std::vector<RegionId>> members(graph.num_poi_sets());
        for (RegionId r = 0; r < expected.size(); ++r) {
          const StcRegion& region = decomp->region(r);
          EXPECT_EQ(graph.interval_begin(r), region.time.begin);
          EXPECT_EQ(graph.interval_end(r), region.time.end);
          EXPECT_EQ(region.pois,
                    decomp->region(graph.SetMembers(graph.poi_set(r))[0])
                        .pois);
          members[graph.poi_set(r)].push_back(r);
        }
        for (uint32_t s = 0; s < graph.num_poi_sets(); ++s) {
          std::ranges::stable_sort(members[s], {}, [&](RegionId r) {
            return decomp->region(r).time.begin;
          });
          EXPECT_TRUE(std::ranges::equal(graph.SetMembers(s), members[s]))
              << "set " << s;
        }
        if (!reach.unconstrained()) {
          undecided_equal_size |= HasUndecidedEqualSizePair(*decomp, reach);
        }
      }
    }
  }
  EXPECT_TRUE(undecided_equal_size);
}

// ---------- MBR candidates ----------

TEST(RegionIndexTest, MbrCandidatesIncludeObserved) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  auto decomp = StcDecomposition::Build(&*db, TenMinutes(), SmallConfig());
  ASSERT_TRUE(decomp.ok());

  const std::vector<RegionId> observed = {0, 1};
  const auto candidates = MbrCandidateRegions(*decomp, observed);
  for (RegionId id : observed) {
    EXPECT_TRUE(
        std::binary_search(candidates.begin(), candidates.end(), id));
  }
  EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
}

TEST(RegionIndexTest, MbrRestrictsSpatially) {
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  auto decomp = StcDecomposition::Build(&*db, TenMinutes(), SmallConfig());
  ASSERT_TRUE(decomp.ok());

  // Find a region whose POIs all sit in the lattice's bottom-left corner.
  RegionId corner = kInvalidRegion;
  for (const StcRegion& r : decomp->regions()) {
    bool all_corner = true;
    for (model::PoiId p : r.pois) {
      if (p != 0 && p != 1 && p != 4 && p != 5) all_corner = false;
    }
    if (all_corner) {
      corner = r.id;
      break;
    }
  }
  ASSERT_NE(corner, kInvalidRegion);
  const auto candidates = MbrCandidateRegions(*decomp, {corner});
  // The MBR of a corner region must exclude regions made only of the
  // far corner's POIs (e.g. POI 15 at ~4.2 km away).
  for (RegionId id : candidates) {
    const StcRegion& r = decomp->region(id);
    bool any_near = false;
    for (model::PoiId p : r.pois) {
      if (db->DistanceKm(p, 0) < 3.0) any_near = true;
    }
    EXPECT_TRUE(any_near) << "region " << id << " should be near corner";
  }
}

}  // namespace
}  // namespace trajldp::region
