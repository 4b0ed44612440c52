#ifndef TRAJLDP_MODEL_REACHABILITY_H_
#define TRAJLDP_MODEL_REACHABILITY_H_

#include <cmath>
#include <cstdint>
#include <limits>

#include "model/poi_database.h"
#include "model/time_domain.h"
#include "model/trajectory.h"

namespace trajldp::model {

/// \brief Configuration of the reachability constraint θ (§4.1).
///
/// θ(gap) = speed × gap is the maximum distance coverable in a time gap.
/// The paper assumes city-wide effective travel speeds (4 km/h walking for
/// the campus data, 8 km/h transit-inclusive for the urban data, §6.2) and
/// also evaluates the unconstrained setting θ = ∞.
struct ReachabilityConfig {
  /// Assumed travel speed in km/h. Infinity disables the constraint.
  double speed_kmh = 8.0;

  /// Reference gap (minutes) used when reachability must be decided
  /// without a concrete pair of timesteps — i.e. when building the public
  /// region-level n-gram set W_n ahead of time (§5.3). Defaults to 30
  /// minutes, a typical inter-point gap in the paper's datasets; each
  /// dataset config overrides it with its own typical gap.
  int reference_gap_minutes = 30;

  /// Convenience factory for the unconstrained setting (θ = ∞).
  static ReachabilityConfig Unconstrained() {
    return {std::numeric_limits<double>::infinity(), 30};
  }

  bool unconstrained() const { return !std::isfinite(speed_kmh); }

  /// θ in km for a gap of `gap_minutes`.
  double ThetaKm(int gap_minutes) const {
    return speed_kmh * (static_cast<double>(gap_minutes) / 60.0);
  }

  /// θ in km for the reference gap.
  double ReferenceThetaKm() const { return ThetaKm(reference_gap_minutes); }
};

/// Min-gap sentinel: no gap in [1, |T|] timesteps reaches (unreachable
/// within any same-day time budget).
inline constexpr uint16_t kUnreachableGap = 0xFFFF;

/// \brief The smallest gap g ∈ [1, |T|], in timesteps, with
/// `km ≤ config.ThetaKm(time.GapMinutes(0, g))` — the very comparison
/// Reachability::IsReachable makes — or kUnreachableGap when none; 1 when
/// unconstrained. θ is nondecreasing in the gap, so for every same-day gap
/// g ≥ 1 the pair is reachable iff g ≥ this value. Every consumer of a
/// pair's minimum gap (TimeSmoother, and both POI samplers through their
/// per-user memo) calls this one function, so none of them can disagree
/// with the model.
uint16_t MinReachableGap(double km, const TimeDomain& time,
                         const ReachabilityConfig& config);

/// \brief Answers reachability queries over a PoiDatabase (§4.1).
///
/// A POI q is reachable from p within a gap Δt iff d_s(p, q) ≤ θ(Δt).
/// The definition accommodates asymmetric/time-varying distances; this
/// implementation uses the symmetric haversine metric the paper evaluates
/// with, and keeps the (p, t) signature so a road-network distance could
/// be dropped in.
class Reachability {
 public:
  /// `db` must outlive this object.
  Reachability(const PoiDatabase* db, const TimeDomain& time,
               ReachabilityConfig config);

  const ReachabilityConfig& config() const { return config_; }
  const TimeDomain& time() const { return time_; }

  /// True when `to` can be reached from `from` within `gap_minutes`.
  bool IsReachable(PoiId from, PoiId to, int gap_minutes) const;

  /// True when `to` can be reached from `from` between the two timesteps.
  bool IsReachableBetween(PoiId from, PoiId to, Timestep t_from,
                          Timestep t_to) const;

  /// MinReachableGap of the pair's distance; makes no distance call when
  /// unconstrained.
  uint16_t MinGapTimesteps(PoiId from, PoiId to) const;

  /// All POIs reachable from `from` within `gap_minutes` (includes `from`).
  std::vector<PoiId> ReachableSet(PoiId from, int gap_minutes) const;

  /// OK when every consecutive pair of `traj` satisfies reachability and
  /// every visit happens while the POI is open. This is the trajectory
  /// filter of §6.2.
  Status CheckFeasible(const Trajectory& traj) const;

 private:
  const PoiDatabase* db_;
  TimeDomain time_;
  ReachabilityConfig config_;
};

}  // namespace trajldp::model

#endif  // TRAJLDP_MODEL_REACHABILITY_H_
