#include "region/region_distance.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <tuple>
#include <vector>

namespace trajldp::region {

namespace {

// eq. 15's combination of the weighted components. The matrix and
// Between() both go through it, so each entry is float(Between(a, b)).
double Combine(double s, double t, double c) {
  return std::sqrt(s * s + t * t + c * c);
}

}  // namespace

RegionDistance::RegionDistance(const StcDecomposition* decomp)
    : RegionDistance(decomp, Weights()) {}

RegionDistance::RegionDistance(const StcDecomposition* decomp,
                               Weights weights)
    : decomp_(decomp), weights_(weights) {
  // Public diameter: spatial extent diagonal, 12 h time cap, d_c maximum.
  const geo::BoundingBox& extent = decomp->db().extent();
  const double ds_max =
      geo::HaversineKm(extent.min_corner(), extent.max_corner());
  const double dt_max = 12.0;
  const double dc_max = decomp->db().category_distance().MaxDistance();
  max_distance_ = Combine(weights_.spatial * ds_max, weights_.temporal * dt_max,
                          weights_.category * dc_max);

  // Dense symmetric table. d_s reads only the two regions' centroids and
  // d_c only their category nodes, so regions with the same (centroid
  // bits, category) key share their weighted d_s and d_c against every
  // region. Rows go one key at a time; within a key's rows those two are
  // computed once per other key, at the first pair that needs them, and
  // only d_t per pair. Entry (a, b), b ≤ a, is computed with the larger
  // region first, as Between(a, b) is, so it is bit-equal to that call's
  // float. Where each region is its own key, every pair costs one
  // haversine, as a per-pair loop does.
  num_regions_ = decomp->num_regions();
  const size_t n = num_regions_;
  std::vector<uint32_t> key_of(n);
  {
    std::map<std::tuple<uint64_t, uint64_t, hierarchy::CategoryId>, uint32_t>
        ids;
    for (RegionId r = 0; r < n; ++r) {
      const StcRegion& region = decomp->region(r);
      key_of[r] =
          ids.try_emplace({std::bit_cast<uint64_t>(region.centroid.lat),
                           std::bit_cast<uint64_t>(region.centroid.lon),
                           region.category},
                          static_cast<uint32_t>(ids.size()))
              .first->second;
    }
  }
  std::vector<RegionId> rows(n);
  std::iota(rows.begin(), rows.end(), RegionId{0});
  std::ranges::stable_sort(rows, {}, [&](RegionId r) { return key_of[r]; });

  matrix_.resize(n * n);
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> filled_for(n, kNone);
  std::vector<double> spatial(n);
  std::vector<double> category(n);
  for (const RegionId a : rows) {
    const uint32_t ka = key_of[a];
    for (RegionId b = 0; b <= a; ++b) {
      const uint32_t kb = key_of[b];
      if (filled_for[kb] != ka) {
        filled_for[kb] = ka;
        spatial[kb] = weights_.spatial * SpatialKm(a, b);
        category[kb] = weights_.category * Category(a, b);
      }
      const float d = static_cast<float>(Combine(
          spatial[kb], weights_.temporal * TimeHours(a, b), category[kb]));
      matrix_[static_cast<size_t>(a) * n + b] = d;
      matrix_[static_cast<size_t>(b) * n + a] = d;
    }
  }
}

double RegionDistance::SpatialKm(RegionId a, RegionId b) const {
  return geo::HaversineKm(decomp_->region(a).centroid,
                          decomp_->region(b).centroid);
}

double RegionDistance::TimeHours(RegionId a, RegionId b) const {
  const double minutes = std::abs(decomp_->region(a).MinuteCenter() -
                                  decomp_->region(b).MinuteCenter());
  return std::min(minutes / 60.0, 12.0);
}

double RegionDistance::Category(RegionId a, RegionId b) const {
  return decomp_->db().category_distance().Between(
      decomp_->region(a).category, decomp_->region(b).category);
}

double RegionDistance::Between(RegionId a, RegionId b) const {
  return Combine(weights_.spatial * SpatialKm(a, b),
                 weights_.temporal * TimeHours(a, b),
                 weights_.category * Category(a, b));
}

}  // namespace trajldp::region
