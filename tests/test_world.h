#ifndef TRAJLDP_TESTS_TEST_WORLD_H_
#define TRAJLDP_TESTS_TEST_WORLD_H_

// Shared fixtures: small deterministic worlds used across test binaries.

#include <string>
#include <vector>

#include "geo/latlon.h"
#include "hierarchy/category_tree.h"
#include "model/opening_hours.h"
#include "model/poi_database.h"
#include "model/time_domain.h"
#include "model/trajectory.h"

namespace trajldp::testing {

// A 3-level tree with two unrelated domains:
//   Food -> {Restaurant -> {Pizza, Sushi}, Cafe -> {Espresso}}
//   Transit -> {Station -> {Subway}}
inline hierarchy::CategoryTree MakeSmallTree() {
  hierarchy::CategoryTree tree;
  const auto food = tree.AddRoot("Food");
  const auto transit = tree.AddRoot("Transit");
  const auto restaurant = tree.AddChild(food, "Restaurant");
  const auto cafe = tree.AddChild(food, "Cafe");
  const auto station = tree.AddChild(transit, "Station");
  tree.AddChild(restaurant, "Pizza Place");
  tree.AddChild(restaurant, "Sushi Bar");
  tree.AddChild(cafe, "Espresso Bar");
  tree.AddChild(station, "Subway Stop");
  return tree;
}

struct GridWorldOptions {
  // POIs are placed on a rows × cols lattice with this spacing.
  int rows = 4;
  int cols = 4;
  double spacing_km = 1.0;
  // All POIs open all day unless this is set; then POIs with odd ids are
  // open [open_begin, open_end) only.
  bool restrict_odd_hours = false;
  int open_begin_minute = 9 * 60;
  int open_end_minute = 17 * 60;
};

// Builds a deterministic lattice city over MakeSmallTree(): POI i sits at
// row i / cols, column i % cols, with leaf categories cycling through the
// tree's leaves and popularity = i + 1.
inline StatusOr<model::PoiDatabase> MakeGridWorld(
    const GridWorldOptions& options = GridWorldOptions()) {
  hierarchy::CategoryTree tree = MakeSmallTree();
  const std::vector<hierarchy::CategoryId> leaves = tree.Leaves();
  const geo::LatLon origin{40.7000, -74.0000};
  std::vector<model::Poi> pois;
  for (int r = 0; r < options.rows; ++r) {
    for (int c = 0; c < options.cols; ++c) {
      model::Poi poi;
      const size_t i = pois.size();
      poi.name = "poi_" + std::to_string(i);
      poi.location = geo::OffsetKm(origin, c * options.spacing_km,
                                   r * options.spacing_km);
      poi.category = leaves[i % leaves.size()];
      poi.popularity = static_cast<double>(i + 1);
      if (options.restrict_odd_hours && (i % 2 == 1)) {
        poi.hours = model::OpeningHours::Daily(options.open_begin_minute,
                                               options.open_end_minute);
      }
      pois.push_back(std::move(poi));
    }
  }
  return model::PoiDatabase::Create(std::move(pois), std::move(tree));
}

// An 8 × 8 lattice, 0.5 km apart, in which the two POIs of each
// (cell, category) group keep staggered 12-hour days: POI (r, c) opens at
// ((r + c) % 4) × 3 h. A group's set is {p}, then {p, q}, then {q} as the
// day goes on, so sets recur across hours, distinct sets share members,
// and distinct sets of equal size lie both within and beyond θ.
inline StatusOr<model::PoiDatabase> MakeStaggeredWorld() {
  hierarchy::CategoryTree tree = MakeSmallTree();
  const std::vector<hierarchy::CategoryId> leaves = tree.Leaves();
  const geo::LatLon origin{40.7000, -74.0000};
  std::vector<model::Poi> pois;
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      model::Poi poi;
      poi.name = "poi_" + std::to_string(pois.size());
      poi.location = geo::OffsetKm(origin, c * 0.5, r * 0.5);
      poi.category = leaves[c % 2];
      const int open = ((r + c) % 4) * 180;
      poi.hours = model::OpeningHours::Daily(open, open + 720);
      pois.push_back(std::move(poi));
    }
  }
  return model::PoiDatabase::Create(std::move(pois), std::move(tree));
}

// Convenience: a trajectory from (poi, timestep) pairs.
inline model::Trajectory MakeTrajectory(
    std::vector<std::pair<model::PoiId, model::Timestep>> points) {
  model::Trajectory traj;
  for (const auto& [poi, t] : points) traj.Append(poi, t);
  return traj;
}

}  // namespace trajldp::testing

#endif  // TRAJLDP_TESTS_TEST_WORLD_H_
