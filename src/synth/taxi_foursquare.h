#ifndef TRAJLDP_SYNTH_TAXI_FOURSQUARE_H_
#define TRAJLDP_SYNTH_TAXI_FOURSQUARE_H_

#include "common/status_or.h"
#include "model/poi_database.h"
#include "model/reachability.h"
#include "model/time_domain.h"
#include "model/trajectory.h"
#include "synth/city_model.h"

namespace trajldp::synth {

/// \brief Generator standing in for the paper's Taxi-Foursquare dataset
/// (§6.1.1): NYC Foursquare check-ins fused with TLC taxi trips.
///
/// The substitution (docs/CALIBRATION.md): a Zipf-popular,
/// cluster-structured NYC-scale POI set with the Foursquare-like category
/// tree; each trajectory chains POI visits the way concatenated daily
/// taxi trips do — popular, spread-out destinations with dwell + ride
/// gaps — while respecting the 8 km/h effective-speed reachability the
/// paper filters with, POI opening hours, and the minimum g_t spacing of
/// the cleaning step.
struct TaxiFoursquareConfig {
  CityModelConfig city;
  size_t num_trajectories = 1000;
  /// |τ| ~ U(min_len, max_len).
  int min_len = 3;
  int max_len = 8;
  /// Start time ~ U(6:00, 22:00) minutes.
  int earliest_start_minute = 6 * 60;
  int latest_start_minute = 22 * 60;
  /// Effective travel speed used for reachability-compatible generation.
  double speed_kmh = 8.0;
  /// Dwell time at a POI before the next trip, U(min,max) minutes.
  int min_dwell_minutes = 10;
  int max_dwell_minutes = 90;
  /// Popularity-vs-proximity trade-off: destination weight is
  /// popularity × exp(−distance / distance_scale_km).
  double distance_scale_km = 3.0;
  uint64_t seed = 42;
};

/// Builds the POI database (city model over the Foursquare-like tree).
StatusOr<model::PoiDatabase> BuildTaxiFoursquarePois(
    const TaxiFoursquareConfig& config);

/// Generates trajectories over `db`. Every output satisfies the
/// reachability filter at `config.speed_kmh`, visits POIs only while
/// open, and spaces points at least one timestep apart (§6.2's filter
/// accepts all of them; the caller should still run the filter).
StatusOr<model::TrajectorySet> GenerateTaxiFoursquareTrajectories(
    const model::PoiDatabase& db, const model::TimeDomain& time,
    const TaxiFoursquareConfig& config);

}  // namespace trajldp::synth

#endif  // TRAJLDP_SYNTH_TAXI_FOURSQUARE_H_
