#include "baselines/independent.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/stopwatch.h"
#include "ldp/exponential_mechanism.h"

namespace trajldp::baselines {

using model::PoiId;
using model::Timestep;

StatusOr<IndependentMechanism> IndependentMechanism::Build(
    const model::PoiDatabase* db, const model::TimeDomain& time,
    Config config) {
  TRAJLDP_RETURN_NOT_OK(
      ldp::ValidateBudget(config.epsilon, config.quality_sensitivity));
  IndependentMechanism mech;
  mech.config_ = config;
  mech.db_ = db;
  mech.time_ = time;
  mech.distance_ = std::make_unique<model::SemanticDistance>(db, time);
  mech.smoother_ = std::make_unique<core::TimeSmoother>(
      db, time, config.reachability);
  return mech;
}

StatusOr<model::Trajectory> IndependentMechanism::Perturb(
    const model::Trajectory& input, Rng& rng,
    core::StageBreakdown* stages) const {
  TRAJLDP_RETURN_NOT_OK(input.Validate(time_));
  const size_t len = input.size();
  const double eps = config_.epsilon / static_cast<double>(len);
  const size_t num_pois = db_->size();
  const Timestep num_ts = time_.num_timesteps();
  Stopwatch watch;

  const double delta = config_.quality_sensitivity > 0.0
                           ? config_.quality_sensitivity
                           : distance_->MaxDistance();
  auto em = ldp::ExponentialMechanism::Create(eps, delta);
  if (!em.ok()) return em.status();

  const auto& weights = distance_->weights();
  std::vector<model::TrajectoryPoint> out(len);
  bool needs_smoothing = !config_.respect_reachability;

  for (size_t i = 0; i < len; ++i) {
    const model::TrajectoryPoint& truth = input.point(i);
    // Separable squared terms: d(q,s)² = poi_part[q] + time_part[s].
    std::vector<double> poi_part(num_pois);
    for (PoiId q = 0; q < num_pois; ++q) {
      const double s = weights.spatial * db_->DistanceKm(truth.poi, q);
      const double c = weights.category *
                       db_->category_distance().Between(
                           db_->poi(truth.poi).category, db_->poi(q).category);
      poi_part[q] = s * s + c * c;
    }
    std::vector<double> time_part(num_ts);
    for (Timestep s = 0; s < num_ts; ++s) {
      const double t =
          weights.temporal * distance_->TimeHours(truth.t, s);
      time_part[s] = t * t;
    }

    // Candidate (q, s) pairs for this point.
    std::vector<PoiId> cand_poi;
    std::vector<Timestep> cand_time;
    if (!config_.respect_reachability) {
      cand_poi.reserve(num_pois * static_cast<size_t>(num_ts));
      cand_time.reserve(num_pois * static_cast<size_t>(num_ts));
      for (PoiId q = 0; q < num_pois; ++q) {
        for (Timestep s = 0; s < num_ts; ++s) {
          cand_poi.push_back(q);
          cand_time.push_back(s);
        }
      }
    } else {
      // IndReach: open at s, strictly later than the previous output,
      // reachable from it, and leaving room for the remaining points.
      const Timestep min_t = i == 0 ? 0 : out[i - 1].t + 1;
      const Timestep max_t = num_ts - static_cast<Timestep>(len - i);
      std::vector<double> dist_prev(num_pois, 0.0);
      if (i > 0) {
        for (PoiId q = 0; q < num_pois; ++q) {
          dist_prev[q] = db_->DistanceKm(out[i - 1].poi, q);
        }
      }
      for (Timestep s = min_t; s <= max_t; ++s) {
        const int minute = time_.TimestepToMinute(s);
        const double theta =
            i == 0 ? 0.0
                   : config_.reachability.ThetaKm(
                         time_.GapMinutes(out[i - 1].t, s));
        for (PoiId q = 0; q < num_pois; ++q) {
          if (!db_->poi(q).hours.IsOpenAtMinute(minute)) continue;
          if (i > 0 && !config_.reachability.unconstrained() &&
              dist_prev[q] > theta) {
            continue;
          }
          cand_poi.push_back(q);
          cand_time.push_back(s);
        }
      }
      if (cand_poi.empty()) {
        // Degenerate corner (previous output at the end of the day with
        // nothing reachable): fall back to the unconstrained domain and
        // repair with smoothing afterwards.
        for (PoiId q = 0; q < num_pois; ++q) {
          for (Timestep s = 0; s < num_ts; ++s) {
            cand_poi.push_back(q);
            cand_time.push_back(s);
          }
        }
        needs_smoothing = true;
      }
    }

    auto pick = em->SampleStreaming(
        cand_poi.size(),
        [&](size_t k) {
          return -std::sqrt(poi_part[cand_poi[k]] + time_part[cand_time[k]]);
        },
        rng);
    if (!pick.ok()) return pick.status();
    out[i] = {cand_poi[*pick], cand_time[*pick]};
  }
  if (stages != nullptr) stages->perturb_seconds += watch.ElapsedSeconds();

  if (needs_smoothing) {
    // Post-processing: sort the sampled timesteps, then smooth them into
    // a realistic (strictly increasing, reachable) schedule.
    watch.Restart();
    std::vector<PoiId> pois(len);
    std::vector<Timestep> times(len);
    for (size_t i = 0; i < len; ++i) {
      pois[i] = out[i].poi;
      times[i] = out[i].t;
    }
    std::sort(times.begin(), times.end());
    auto smoothed = smoother_->Smooth(pois, times);
    if (!smoothed.ok()) return smoothed.status();
    for (size_t i = 0; i < len; ++i) out[i].t = (*smoothed)[i];
    if (stages != nullptr) stages->other_seconds += watch.ElapsedSeconds();
  }
  return model::Trajectory(std::move(out));
}

}  // namespace trajldp::baselines
