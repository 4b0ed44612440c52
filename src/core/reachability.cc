#include "core/reachability.h"

#include <algorithm>
#include <string>

namespace trajldp::core {

StatusOr<ReachabilityTable> ReachabilityTable::Build(
    const model::PoiDatabase& db, const model::TimeDomain& time,
    model::ReachabilityConfig config, Options options) {
  ReachabilityTable table;
  table.num_pois_ = db.size();
  table.num_timesteps_ = time.num_timesteps();
  table.config_ = config;
  if (config.unconstrained()) {
    table.unconstrained_ = true;
    return table;
  }
  if (db.size() == 0) {
    return Status::InvalidArgument(
        "cannot build a reachability table over an empty POI database");
  }

  const size_t p = db.size();
  const size_t matrix_bytes = p * p * sizeof(uint16_t);
  if (matrix_bytes > options.max_bytes) {
    return Status::ResourceExhausted(
        "reachability min-gap matrix needs " + std::to_string(matrix_bytes) +
        " bytes for " + std::to_string(p) + " POIs, over the " +
        std::to_string(options.max_bytes) + "-byte budget");
  }

  // θ thresholds per integer timestep budget, computed with the exact
  // expression model::Reachability compares against — ThetaKm(g · g_t).
  // θ is nondecreasing in g, so the smallest sufficient budget is the
  // first index with θ(g) ≥ d, found by binary search; the result then
  // satisfies d ≤ θ(min_gap) and d > θ(min_gap − 1) under the *same*
  // floating-point comparisons the formula path performs, which is what
  // makes table lookups bit-equivalent to model::Reachability.
  const model::Timestep num_t = table.num_timesteps_;
  std::vector<double> theta(static_cast<size_t>(num_t) + 1, 0.0);
  for (model::Timestep g = 1; g <= num_t; ++g) {
    theta[static_cast<size_t>(g)] =
        config.ThetaKm(time.GapMinutes(0, g));
  }

  table.min_gap_.assign(p * p, kNever);
  for (size_t from = 0; from < p; ++from) {
    for (size_t to = from; to < p; ++to) {
      // Haversine is symmetric, so one distance serves both directions.
      const double d =
          db.DistanceKm(static_cast<model::PoiId>(from),
                        static_cast<model::PoiId>(to));
      uint16_t gap = kNever;
      // First budget g ∈ [1, |T|] with θ(g) ≥ d (θ(g) ≥ d ⇔ d ≤ θ(g),
      // the formula's predicate). Same-day trajectories never see a gap
      // beyond |T|, so larger budgets stay kNever.
      const auto it = std::lower_bound(theta.begin() + 1, theta.end(), d);
      if (it != theta.end()) {
        gap = static_cast<uint16_t>(it - theta.begin());
      }
      table.min_gap_[from * p + to] = gap;
      table.min_gap_[to * p + from] = gap;
    }
  }
  return table;
}

}  // namespace trajldp::core
