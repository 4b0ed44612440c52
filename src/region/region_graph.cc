#include "region/region_graph.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

namespace trajldp::region {

namespace {

// Exact test: does any POI pair (p ∈ a, q ∈ b) lie within theta_km?
// Scans the smaller region's POIs against the larger one's, early-exiting
// on the first hit. Only runs for pairs the bounding boxes cannot decide.
bool AnyPoiPairWithin(const model::PoiDatabase& db, const StcRegion& a,
                      const StcRegion& b, double theta_km) {
  const StcRegion& small = a.pois.size() <= b.pois.size() ? a : b;
  const StcRegion& large = a.pois.size() <= b.pois.size() ? b : a;
  for (model::PoiId p : small.pois) {
    const geo::LatLon& loc = db.poi(p).location;
    if (large.bounds.DistanceKm(loc) > theta_km) continue;
    for (model::PoiId q : large.pois) {
      if (geo::HaversineKm(loc, db.poi(q).location) <= theta_km) {
        return true;
      }
    }
  }
  return false;
}

// Spatial half of the edge test for a ≠ b: bounding boxes first, the exact
// POI scan only for pairs the boxes cannot decide.
bool SpatiallyReachable(const model::PoiDatabase& db, const StcRegion& a,
                        const StcRegion& b, double theta_km) {
  if (a.bounds.MinDistanceKm(b.bounds) > theta_km) return false;
  if (a.bounds.MaxDistanceKm(b.bounds) > theta_km) {
    return AnyPoiPairWithin(db, a, b, theta_km);
  }
  return true;
}

}  // namespace

RegionGraph RegionGraph::Build(const StcDecomposition& decomp,
                               const model::ReachabilityConfig& reach) {
  RegionGraph graph(&decomp, reach);
  const size_t n = decomp.num_regions();
  const int g_t = decomp.time().granularity_minutes();
  const double theta = reach.ReferenceThetaKm();
  const bool unconstrained = reach.unconstrained();

  // Flat interval bounds, so neither the time-order test below nor the
  // solver loads a StcRegion per pair. The distinct ends are indexed from
  // the ends themselves (24 on an hourly city, 1 on an all-day lattice).
  std::vector<int> end(n);
  graph.begin_.resize(n);
  for (RegionId r = 0; r < n; ++r) {
    graph.begin_[r] = decomp.region(r).time.begin;
    end[r] = decomp.region(r).time.end;
  }
  graph.ends_ = end;
  std::sort(graph.ends_.begin(), graph.ends_.end());
  graph.ends_.erase(std::unique(graph.ends_.begin(), graph.ends_.end()),
                    graph.ends_.end());
  graph.end_index_.resize(n);
  for (RegionId r = 0; r < n; ++r) {
    graph.end_index_[r] = static_cast<uint32_t>(
        std::lower_bound(graph.ends_.begin(), graph.ends_.end(), end[r]) -
        graph.ends_.begin());
  }

  // The spatial test reads nothing but the two POI sets (bounds are the
  // sets' bounding boxes), and regions share sets: a POI open for many
  // hours lands in one region per interval with the same members. Number
  // the distinct sets by exact content and test each ordered pair of
  // sets at most once.
  std::vector<uint32_t>& poi_set = graph.poi_set_;
  poi_set.resize(n);
  size_t num_sets = 0;
  {
    std::map<std::vector<model::PoiId>, uint32_t> ids;
    for (RegionId r = 0; r < n; ++r) {
      const auto [it, inserted] = ids.try_emplace(
          decomp.region(r).pois, static_cast<uint32_t>(num_sets));
      if (inserted) ++num_sets;
      poi_set[r] = it->second;
    }
  }
  enum : uint8_t { kUntested, kUnreachable, kReachable };
  std::vector<uint8_t> spatial(unconstrained ? 0 : num_sets * num_sets,
                               kUntested);
  auto is_edge = [&](RegionId a, RegionId b) {
    // Time order: can a visit in `a` precede a visit in `b` by at least
    // one timestep? Interval boundaries are multiples of g_t.
    if (end[b] <= graph.begin_[a] + g_t) return false;
    // a == b: the zero self-distance always satisfies θ.
    if (unconstrained || a == b) return true;
    uint8_t& known = spatial[poi_set[a] * num_sets + poi_set[b]];
    if (known == kUntested) {
      known = SpatiallyReachable(decomp.db(), decomp.region(a),
                                 decomp.region(b), theta)
                  ? kReachable
                  : kUnreachable;
    }
    return known == kReachable;
  };

  // Pass 1 counts out-degrees (running every spatial test the graph
  // needs), so the CSR is allocated once at its exact size; pass 2 fills
  // it from the memoised answers.
  graph.offsets_.assign(n + 1, 0);
  for (RegionId a = 0; a < n; ++a) {
    size_t degree = 0;
    for (RegionId b = 0; b < n; ++b) degree += is_edge(a, b) ? 1 : 0;
    graph.offsets_[a + 1] = graph.offsets_[a] + degree;
  }
  graph.targets_.resize(graph.offsets_[n]);
  size_t next = 0;
  for (RegionId a = 0; a < n; ++a) {
    for (RegionId b = 0; b < n; ++b) {
      if (is_edge(a, b)) graph.targets_[next++] = b;
    }
  }

  // Each set's regions by (interval begin, id), one run per set.
  graph.members_.resize(n);
  std::iota(graph.members_.begin(), graph.members_.end(), RegionId{0});
  std::ranges::stable_sort(graph.members_, {}, [&](RegionId r) {
    return std::pair(poi_set[r], graph.begin_[r]);
  });
  graph.member_offsets_.assign(num_sets + 1, 0);
  for (RegionId r = 0; r < n; ++r) ++graph.member_offsets_[poi_set[r] + 1];
  std::partial_sum(graph.member_offsets_.begin(), graph.member_offsets_.end(),
                   graph.member_offsets_.begin());

  // Each set's spatial predecessors, read from the memo. A pair of
  // distinct sets the memo never tested has no time-ordered region pair,
  // so leaving it out changes no edge.
  graph.predecessor_offsets_.assign(num_sets + 1, 0);
  for (size_t s = 0; s < num_sets; ++s) {
    for (size_t from = 0; from < num_sets; ++from) {
      if (unconstrained || from == s ||
          spatial[from * num_sets + s] == kReachable) {
        graph.predecessors_.push_back(static_cast<uint32_t>(from));
      }
    }
    graph.predecessor_offsets_[s + 1] =
        static_cast<uint32_t>(graph.predecessors_.size());
  }

  // The relaxation's cost test. Per layer the set path takes one prefix
  // minimum per region, fills and ranks a sets × distinct-ends table and
  // walks one ranking per region; only its per-user predecessor bitsets
  // scale with Σ_s |SetPredecessors(s)|. The edge path scans one entry
  // per edge in every layer. A set entry measured up to twice an edge's
  // cost (docs/PERF.md §Ranked walk).
  const size_t set_entries =
      graph.predecessors_.size() + num_sets * graph.ends_.size() + 2 * n;
  graph.relax_by_set_ = 2 * set_entries < graph.num_edges();
  return graph;
}

bool RegionGraph::HasEdge(RegionId a, RegionId b) const {
  const auto neighbors = Neighbors(a);
  return std::binary_search(neighbors.begin(), neighbors.end(), b);
}

double RegionGraph::CountNgrams(int n) const {
  const size_t regions = num_regions();
  if (n <= 0 || regions == 0) return 0.0;
  // paths[r] = number of feasible suffixes of length k starting at r.
  std::vector<double> paths(regions, 1.0);
  for (int step = 1; step < n; ++step) {
    std::vector<double> next(regions, 0.0);
    for (RegionId r = 0; r < regions; ++r) {
      double total = 0.0;
      for (RegionId nb : Neighbors(r)) total += paths[nb];
      next[r] = total;
    }
    paths = std::move(next);
  }
  double total = 0.0;
  for (double p : paths) total += p;
  return total;
}

}  // namespace trajldp::region
