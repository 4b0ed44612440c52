#include "model/reachability.h"

#include <cmath>
#include <string>

namespace trajldp::model {

uint16_t MinReachableGap(double km, const TimeDomain& time,
                         const ReachabilityConfig& config) {
  if (config.unconstrained()) return 1;
  // Binary search for the first g with km ≤ θ(g); hi = |T| + 1 stands for
  // "no gap reaches".
  Timestep lo = 1;
  Timestep hi = time.num_timesteps() + 1;
  while (lo < hi) {
    const Timestep mid = lo + (hi - lo) / 2;
    if (km <= config.ThetaKm(time.GapMinutes(0, mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo > time.num_timesteps() ? kUnreachableGap
                                   : static_cast<uint16_t>(lo);
}

Reachability::Reachability(const PoiDatabase* db, const TimeDomain& time,
                           ReachabilityConfig config)
    : db_(db), time_(time), config_(config) {}

bool Reachability::IsReachable(PoiId from, PoiId to, int gap_minutes) const {
  if (config_.unconstrained()) return true;
  if (gap_minutes <= 0) return false;
  return db_->DistanceKm(from, to) <= config_.ThetaKm(gap_minutes);
}

bool Reachability::IsReachableBetween(PoiId from, PoiId to, Timestep t_from,
                                      Timestep t_to) const {
  return IsReachable(from, to, time_.GapMinutes(t_from, t_to));
}

uint16_t Reachability::MinGapTimesteps(PoiId from, PoiId to) const {
  if (config_.unconstrained()) return 1;
  return MinReachableGap(db_->DistanceKm(from, to), time_, config_);
}

std::vector<PoiId> Reachability::ReachableSet(PoiId from,
                                              int gap_minutes) const {
  if (config_.unconstrained()) {
    std::vector<PoiId> all(db_->size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<PoiId>(i);
    return all;
  }
  if (gap_minutes <= 0) return {};
  return db_->WithinRadiusOf(from, config_.ThetaKm(gap_minutes));
}

Status Reachability::CheckFeasible(const Trajectory& traj) const {
  TRAJLDP_RETURN_NOT_OK(traj.Validate(time_));
  for (size_t i = 0; i < traj.size(); ++i) {
    const TrajectoryPoint& pt = traj.point(i);
    const int minute = time_.TimestepToMinute(pt.t);
    if (!db_->poi(pt.poi).hours.IsOpenAtMinute(minute)) {
      return Status::FailedPrecondition(
          "point " + std::to_string(i) + " visits POI " +
          std::to_string(pt.poi) + " while it is closed");
    }
    if (i > 0) {
      const TrajectoryPoint& prev = traj.point(i - 1);
      if (!IsReachableBetween(prev.poi, pt.poi, prev.t, pt.t)) {
        return Status::FailedPrecondition(
            "point " + std::to_string(i) + " is not reachable from point " +
            std::to_string(i - 1) + " in the available gap");
      }
    }
  }
  return Status::Ok();
}

}  // namespace trajldp::model
