#ifndef TRAJLDP_CORE_TIME_SMOOTHER_H_
#define TRAJLDP_CORE_TIME_SMOOTHER_H_

#include <vector>

#include "common/status_or.h"
#include "model/poi_database.h"
#include "model/reachability.h"
#include "model/time_domain.h"

namespace trajldp::core {

/// \brief Timestep smoothing for infeasible POI sequences (§5.6).
///
/// When POI-level sampling cannot find a feasible trajectory for a region
/// sequence, the paper fixes a POI/time sequence and "smooths" the times
/// until consecutive points are mutually reachable — deliberately allowing
/// times to drift outside their region's interval (the paper's example
/// moves a 9–10 pm visit to 8–9 pm).
///
/// Smoothing enforces, with minimal forward/backward shifting:
///   t_{i+1} ≥ t_i + gap_i,  gap_i = model::MinReachableGap(d_s(p_i, p_{i+1}))
/// (in timesteps, at least 1), keeping all times within the day. The gap
/// is the model's own threshold, so every smoothed pair is reachable.
class TimeSmoother {
 public:
  /// `db` must outlive this object.
  TimeSmoother(const model::PoiDatabase* db, const model::TimeDomain& time,
               model::ReachabilityConfig reach);

  /// Minimum feasible gap in timesteps between consecutive visits
  /// (model::kUnreachableGap when no same-day gap reaches).
  int MinGapTimesteps(model::PoiId from, model::PoiId to) const;

  /// Returns smoothed, strictly increasing, reachability-feasible
  /// timesteps as close to `initial` as the two-pass shift allows.
  /// Fails when even the tightest packing does not fit in the day.
  StatusOr<std::vector<model::Timestep>> Smooth(
      const std::vector<model::PoiId>& pois,
      std::vector<model::Timestep> initial) const;

 private:
  model::Reachability reach_;
};

}  // namespace trajldp::core

#endif  // TRAJLDP_CORE_TIME_SMOOTHER_H_
