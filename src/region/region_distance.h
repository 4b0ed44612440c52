#ifndef TRAJLDP_REGION_REGION_DISTANCE_H_
#define TRAJLDP_REGION_REGION_DISTANCE_H_

#include <span>
#include <vector>

#include "region/decomposition.h"

namespace trajldp::region {

/// \brief The multi-attributed semantic distance between STC regions
/// (§5.10, eq. 15): d(r_a, r_b) = sqrt(d_s² + d_t² + d_c²).
///
/// * d_s — haversine distance between the centroids of the POIs in the two
///   regions, in km;
/// * d_t — absolute difference between the interval centres, in hours,
///   capped at 12 h;
/// * d_c — Figure 5 category distance between the region category nodes.
///
/// The mechanism is not tied to this function (§5.10); the weights allow
/// ablations, and PhysDist-style "physical only" distances are obtained by
/// zeroing the time and category weights.
///
/// Construction precomputes the full symmetric R × R distance matrix once
/// (4·R² bytes as floats). d_s reads only the two regions' centroids and
/// d_c only their category nodes, so construction computes those once per
/// pair of distinct (centroid, category) keys — at most K² haversines for
/// K keys, and never more than R(R+1)/2 — and per region pair only d_t
/// and the combination. Every entry is bit-equal to
/// float(Between(max(a, b), min(a, b))). The city's 1,563 hourly regions
/// hold 163 keys; an all-day lattice's regions are one key each.
///
/// Region distances are public data — they depend only on the
/// decomposition, never on user trajectories — so one table serves every
/// user, n-gram slot, and thread. ToAll() then is a constant-time row
/// view instead of an O(R) haversine + category-tree sweep, which is what
/// the perturber hits once per n-gram slot per user.
class RegionDistance {
 public:
  /// Per-dimension multipliers applied inside the combination (eq. 15
  /// corresponds to all-ones).
  struct Weights {
    double spatial = 1.0;
    double temporal = 1.0;
    double category = 1.0;
  };

  /// `decomp` must outlive this object. The two-argument overload allows
  /// custom per-dimension weights.
  explicit RegionDistance(const StcDecomposition* decomp);
  RegionDistance(const StcDecomposition* decomp, Weights weights);

  /// d_s(r_a, r_b) in km.
  double SpatialKm(RegionId a, RegionId b) const;

  /// d_t(r_a, r_b) in hours (capped at 12).
  double TimeHours(RegionId a, RegionId b) const;

  /// d_c(r_a, r_b) per Figure 5.
  double Category(RegionId a, RegionId b) const;

  /// Combined distance, eq. 15 with the configured weights.
  double Between(RegionId a, RegionId b) const;

  /// Upper bound on Between over all region pairs — the public diameter
  /// used as the EM quality sensitivity Δd (§4.2): the maximum quality gap
  /// between any two outputs for a fixed input is at most this value.
  double MaxDistance() const { return max_distance_; }

  /// Distances from `from` to every region: a view of one precomputed
  /// matrix row, valid for the lifetime of this object. This is the hot
  /// path of the perturber (one call per n-gram slot). Entries are the
  /// float-rounded values of Between(); Between() itself stays exact
  /// double for callers that need full precision.
  std::span<const float> ToAll(RegionId from) const {
    return {matrix_.data() + static_cast<size_t>(from) * num_regions_,
            num_regions_};
  }

  const StcDecomposition& decomposition() const { return *decomp_; }
  const Weights& weights() const { return weights_; }

 private:
  const StcDecomposition* decomp_;
  Weights weights_;
  double max_distance_;
  size_t num_regions_ = 0;
  /// Row-major symmetric R × R matrix of Between() values.
  std::vector<float> matrix_;
};

}  // namespace trajldp::region

#endif  // TRAJLDP_REGION_REGION_DISTANCE_H_
