#ifndef TRAJLDP_SYNTH_CITY_MODEL_H_
#define TRAJLDP_SYNTH_CITY_MODEL_H_

#include <vector>

#include "common/rng.h"
#include "common/status_or.h"
#include "geo/latlon.h"
#include "hierarchy/category_tree.h"
#include "model/opening_hours.h"
#include "model/poi_database.h"

namespace trajldp::synth {

/// \brief Parameters of the synthetic city POI generator.
///
/// Stands in for the Foursquare/Safegraph POI inventories (§6.1, see
/// docs/CALIBRATION.md's substitution table): POIs form Gaussian
/// neighbourhood clusters inside a city-scale box, popularity follows a
/// Zipf law (check-in data is heavily skewed), categories are uniform over
/// the tree's leaves, and opening hours follow per-level-1-category
/// templates — the same "manually specify opening hours per broad
/// category" rule the paper applies to its real data.
struct CityModelConfig {
  size_t num_pois = 2000;
  /// City centre; the default is midtown Manhattan, matching the paper's
  /// NYC datasets.
  geo::LatLon center{40.754, -73.984};
  /// Side length of the square city extent, in km. Checked-in POIs
  /// concentrate in the urban core (most Foursquare NYC check-ins fall
  /// within ~10–15 km).
  double extent_km = 14.0;
  /// Number of Gaussian neighbourhood clusters.
  size_t num_clusters = 12;
  /// Standard deviation of each cluster, in km.
  double cluster_stddev_km = 0.9;
  /// Fraction of POIs placed uniformly (background noise between
  /// clusters).
  double background_fraction = 0.2;
  /// Zipf exponent for the popularity distribution.
  double zipf_exponent = 1.0;
  /// Zipf exponent for the leaf-category distribution: real POI
  /// inventories are heavily skewed (restaurants vastly outnumber
  /// stadiums), which is what lets STC regions reach κ POIs without
  /// coarse merging. 0 = uniform categories.
  double category_zipf_exponent = 0.9;
  uint64_t seed = 1;
};

/// Deterministic per-category opening-hours template: maps a level-1
/// category name to daily hours (e.g. nightlife wraps midnight, parks
/// close at dusk, transport never closes). Unknown names get 8:00–20:00.
model::OpeningHours OpeningHoursTemplate(const std::string& level1_name);

/// Generates a synthetic city POI database over `tree` (consumed).
StatusOr<model::PoiDatabase> GenerateCity(const CityModelConfig& config,
                                          hierarchy::CategoryTree tree);

}  // namespace trajldp::synth

#endif  // TRAJLDP_SYNTH_CITY_MODEL_H_
