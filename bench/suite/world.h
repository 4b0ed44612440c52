#ifndef TRAJLDP_BENCH_SUITE_WORLD_H_
#define TRAJLDP_BENCH_SUITE_WORLD_H_

// The two worlds the workloads run in, and the device side that turns
// their users into wire frames. A world's map is fixed, and so are the
// city's trajectories; --seed gives the lattice's trajectories and, in
// both worlds, the mechanism's noise. Every seed costs the same work, so
// the run-to-run spread measures the code, not the map or the users.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analytics/stream_analytics.h"
#include "common/status_or.h"
#include "core/mechanism.h"
#include "io/wire.h"
#include "model/poi_database.h"
#include "model/time_domain.h"
#include "model/trajectory.h"
#include "suite.h"

namespace trajldp::suite {

/// User ids at and above this are warm-up users, disjoint from the timed
/// users [0, ...).
inline constexpr uint64_t kWarmupBase = uint64_t{1} << 40;

/// The devices perturb warm-up users with this seed, not --seed, so every
/// run's set-up does the same work. A collector worker's scratch grows
/// with the first problems it meets and keeps what it grew to: with
/// warm-up noise drawn from --seed, the memory a warmed-up city collector
/// held moved by 1.6 MB of 63 MB with the seed, and 1500 timed users
/// later it had not caught up.
inline constexpr uint64_t kWarmupSeed = 0x5eed;

/// One user in this many gets its output bit-compared (and its
/// per-user spans recorded when tracing).
inline constexpr uint64_t kSampleEvery = 32;
inline bool Sampled(uint64_t user) { return user % kSampleEvery == 0; }

struct World {
  std::string name;
  model::TimeDomain time;
  std::optional<model::PoiDatabase> db;
  core::NGramConfig config;
  /// User u travels real[u % size()] (and regions[u % size()] once
  /// ConvertToRegions ran).
  model::TrajectorySet real;
  std::vector<region::RegionTrajectory> regions;
  /// The analytics bundle every collector sink of this world feeds.
  analytics::StreamAnalyticsConfig analytics;

  const model::Trajectory& Real(uint64_t user) const {
    return real[user % real.size()];
  }
  const region::RegionTrajectory& Regions(uint64_t user) const {
    return regions[user % regions.size()];
  }
};

/// Taxi-Foursquare-like city: 2000 POIs on a fixed layout and `pool`
/// fixed trajectories (L in [3, 8]).
StatusOr<std::unique_ptr<World>> MakeCity(size_t pool);

/// 2000 always-open POIs on a 1 km lattice (225 regions), `pool`
/// uniform 5-point trajectories generated from `seed`.
StatusOr<std::unique_ptr<World>> MakeLattice(uint64_t seed, size_t pool);

/// Fills World::regions from a decomposition of the world.
Status ConvertToRegions(World* world, const region::StcDecomposition& decomp);

/// The device side of one user: perturbs with CollectorPipeline::UserRng
/// (seed, user) into a wire report, exactly as MakeWireReports frames it.
Status PerturbUser(const core::CollectorPipeline& pipeline, const World& world,
                   uint64_t seed, uint64_t user, core::SamplerWorkspace& ws,
                   io::WireReport* out);

/// Perturbs users [first, first + count) on GeneratorThreads() threads
/// and frames them `frame_users` per frame with the user-range field.
/// With `logs` (resized to the thread count) the perturb and encode
/// calls are recorded as spans.
StatusOr<std::vector<std::string>> MakeFrames(
    const World& world, const core::NGramMechanism& mechanism, uint64_t seed,
    uint64_t first, size_t count, size_t frame_users,
    std::vector<SpanLog>* logs);

/// 64-bit fingerprints (FNV-1a) the output checks compare, so the sink
/// keeps 8 bytes per checked user instead of the release itself. Two
/// releases with equal fingerprints are taken as bit-identical.
uint64_t Fingerprint(std::string_view bytes);
uint64_t Fingerprint(const core::FullRelease& release);

}  // namespace trajldp::suite

#endif  // TRAJLDP_BENCH_SUITE_WORLD_H_
