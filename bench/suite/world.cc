#include "world.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "../test_support.h"
#include "common/rng.h"
#include "eval/dataset.h"
#include "synth/taxi_foursquare.h"

namespace trajldp::suite {

namespace {

// The city's POI layout is the one the reproduction benches use.
constexpr uint64_t kCityLayoutSeed = 7;
// The city's trajectories are fixed too. The warm-up travels the pool's
// first users, and what the warm-up leaves in the collector workers'
// scratch stays there (see kWarmupSeed): with a pool drawn per seed, the
// memory a city collector held moved by up to 5 MB of 63 MB with the
// seed's users, not with the code.
constexpr uint64_t kCityUsersSeed = 42;

analytics::StreamAnalyticsConfig SinkAnalytics(const World* world,
                                               bool with_prq) {
  analytics::StreamAnalyticsConfig config;
  config.hotspots.emplace();
  config.hotspots->entity = eval::HotspotSpec::Entity::kSpatialGrid;
  config.hotspots->grid_size = 4;
  config.top_k.emplace();
  config.top_k->window_minutes = 120;
  config.top_k->k = 5;
  if (with_prq) {
    config.prq.push_back(
        {eval::PrqDimension::kSpace, {0.25, 0.5, 1.0, 2.0, 4.0}});
    config.real_lookup = [world](uint64_t user) {
      return &world->Real(user);
    };
  }
  return config;
}

}  // namespace

StatusOr<std::unique_ptr<World>> MakeCity(size_t pool) {
  auto world = std::make_unique<World>();
  world->name = "taxi-foursquare city";
  synth::TaxiFoursquareConfig tf;
  tf.city.num_pois = 2000;
  tf.city.seed = kCityLayoutSeed;
  tf.num_trajectories = pool;
  tf.seed = kCityUsersSeed;
  TRAJLDP_ASSIGN_OR_RETURN(auto db, synth::BuildTaxiFoursquarePois(tf));
  world->db.emplace(std::move(db));
  TRAJLDP_ASSIGN_OR_RETURN(
      world->real,
      synth::GenerateTaxiFoursquareTrajectories(*world->db, world->time, tf));
  model::ReachabilityConfig reach;
  reach.speed_kmh = tf.speed_kmh;
  reach.reference_gap_minutes = 50;  // as eval::MakeTaxiFoursquareDataset
  eval::FilterFeasible(*world->db, world->time, reach, &world->real);
  if (world->real.empty()) return Status::Internal("city has no users");
  world->config.reachability = reach;
  world->analytics = SinkAnalytics(world.get(), /*with_prq=*/true);
  return world;
}

StatusOr<std::unique_ptr<World>> MakeLattice(uint64_t seed, size_t pool) {
  constexpr size_t kPois = 2000;
  constexpr size_t kLength = 5;
  auto world = std::make_unique<World>();
  world->name = "lattice";
  TRAJLDP_ASSIGN_OR_RETURN(auto db, bench::MakeLatticeDb(kPois));
  world->db.emplace(std::move(db));

  const Rng root(seed);
  const auto steps = static_cast<uint64_t>(world->time.num_timesteps());
  world->real.resize(pool);
  for (size_t u = 0; u < pool; ++u) {
    Rng rng = root.Substream(u);
    std::vector<model::Timestep> times;
    while (times.size() < kLength) {
      const auto t = static_cast<model::Timestep>(rng.UniformUint64(steps));
      if (std::find(times.begin(), times.end(), t) == times.end()) {
        times.push_back(t);
      }
    }
    std::sort(times.begin(), times.end());
    for (model::Timestep t : times) {
      world->real[u].Append(
          static_cast<model::PoiId>(rng.UniformUint64(kPois)), t);
    }
  }

  core::NGramConfig& config = world->config;
  config.decomposition.grid_size = 5;
  config.decomposition.coarse_grids = {1};
  config.decomposition.base_interval_minutes = 1440;
  config.decomposition.merge.kappa = 1;
  config.reachability.speed_kmh = 8.0;
  config.reachability.reference_gap_minutes = 30;
  world->analytics = SinkAnalytics(world.get(), /*with_prq=*/false);
  return world;
}

Status ConvertToRegions(World* world, const region::StcDecomposition& decomp) {
  world->regions.clear();
  world->regions.reserve(world->real.size());
  for (const model::Trajectory& trajectory : world->real) {
    TRAJLDP_ASSIGN_OR_RETURN(auto tau, decomp.ToRegionTrajectory(trajectory));
    world->regions.push_back(std::move(tau));
  }
  return Status::Ok();
}

Status PerturbUser(const core::CollectorPipeline& pipeline, const World& world,
                   uint64_t seed, uint64_t user, core::SamplerWorkspace& ws,
                   io::WireReport* out) {
  const region::RegionTrajectory& tau = world.Regions(user);
  Rng rng = core::CollectorPipeline::UserRng(seed, user);
  TRAJLDP_RETURN_NOT_OK(pipeline.PerturbInto(tau, rng, ws, out->ngrams));
  out->user_id = user;
  out->trajectory_len = static_cast<uint32_t>(tau.size());
  out->epsilon_prime = pipeline.perturber().EpsilonPerPerturbation(tau.size());
  return Status::Ok();
}

StatusOr<std::vector<std::string>> MakeFrames(
    const World& world, const core::NGramMechanism& mechanism, uint64_t seed,
    uint64_t first, size_t count, size_t frame_users,
    std::vector<SpanLog>* logs) {
  const size_t num_frames = (count + frame_users - 1) / frame_users;
  std::vector<std::string> frames(num_frames);
  const size_t threads = GeneratorThreads();
  if (logs != nullptr) logs->assign(threads, SpanLog(true));
  const core::CollectorPipeline pipeline = mechanism.pipeline();
  io::WireEncodeOptions encode;
  encode.include_user_range = true;
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  Status error;
  auto worker = [&](size_t thread) {
    SpanLog unused;
    SpanLog& log = logs != nullptr ? (*logs)[thread] : unused;
    core::SamplerWorkspace ws;
    io::ReportBatch batch;
    for (size_t f = next++; f < num_frames; f = next++) {
      const uint64_t begin = first + f * frame_users;
      const uint64_t end = std::min<uint64_t>(begin + frame_users,
                                              first + count);
      batch.resize(end - begin);
      Status status;
      for (uint64_t u = begin; u < end && status.ok(); ++u) {
        const int32_t span = Sampled(u) ? log.Begin(Layer::kPerturb, u) : -1;
        status = PerturbUser(pipeline, world, seed, u, ws, &batch[u - begin]);
        log.End(span);
      }
      if (status.ok()) {
        const int32_t span = log.Begin(Layer::kEncode, f);
        auto frame = io::EncodeReportBatch(batch, encode);
        log.End(span);
        if (frame.ok()) {
          frames[f] = std::move(*frame);
        } else {
          status = frame.status();
        }
      }
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (error.ok()) error = status;
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (std::thread& t : pool) t.join();
  TRAJLDP_RETURN_NOT_OK(error);
  return frames;
}

namespace {

/// FNV-1a, fed bytes or little-endian 64-bit words.
class Fnv {
 public:
  void AddByte(uint8_t byte) { h_ = (h_ ^ byte) * 0x100000001b3ULL; }
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i, word >>= 8) AddByte(word & 0xff);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

uint64_t Fingerprint(std::string_view bytes) {
  Fnv h;
  for (const char c : bytes) h.AddByte(static_cast<uint8_t>(c));
  return h.value();
}

uint64_t Fingerprint(const core::FullRelease& release) {
  Fnv h;
  h.Add(release.regions.size());
  for (const region::RegionId r : release.regions) h.Add(r);
  for (const model::TrajectoryPoint& p : release.trajectory.points()) {
    h.Add(p.poi);
    h.Add(static_cast<uint64_t>(p.t));
  }
  h.Add(release.poi_attempts);
  h.Add(release.smoothed ? 1 : 0);
  return h.value();
}

}  // namespace trajldp::suite
