#include "core/reachability.h"

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

  // model::MinReachableGap makes the formula's own comparison, so table
  // lookups are bit-equivalent to model::Reachability.
  table.min_gap_.assign(p * p, kNever);
  for (size_t from = 0; from < p; ++from) {
    for (size_t to = from; to < p; ++to) {
      // Haversine is symmetric, so one distance serves both directions.
      const uint16_t gap = model::MinReachableGap(
          db.DistanceKm(static_cast<model::PoiId>(from),
                        static_cast<model::PoiId>(to)),
          time, config);
      table.min_gap_[from * p + to] = gap;
      table.min_gap_[to * p + from] = gap;
    }
  }
  return table;
}

}  // namespace trajldp::core
