#include "core/batch_release_engine.h"

#include <algorithm>
#include <string>
#include <utility>

namespace trajldp::core {

BatchReleaseEngine::BatchReleaseEngine(const NgramPerturber* perturber,
                                       Config config)
    : perturber_(perturber), pool_(config.num_threads) {}

BatchReleaseEngine::BatchReleaseEngine(const NGramMechanism* mechanism,
                                       Config config)
    : perturber_(&mechanism->perturber()),
      pipeline_(mechanism->pipeline()),
      pool_(config.num_threads) {}

template <typename Out, typename PerUserFn>
StatusOr<std::vector<Out>> BatchReleaseEngine::RunBatch(
    size_t num_users, uint64_t seed, const PerUserFn& per_user) {
  std::vector<Out> out(num_users);
  std::vector<Status> statuses(num_users);
  const Rng root(seed);
  pool_.ParallelFor(num_users, [&](size_t i, size_t worker) {
    Rng user_rng = root.Substream(i);
    statuses[i] = per_user(i, worker, user_rng, out[i]);
  });

  for (size_t i = 0; i < num_users; ++i) {
    if (!statuses[i].ok()) {
      return Status(statuses[i].code(),
                    "user " + std::to_string(i) + ": " +
                        std::string(statuses[i].message()));
    }
  }
  return out;
}

StatusOr<std::vector<PerturbedNgramSet>> BatchReleaseEngine::ReleaseAll(
    std::span<const region::RegionTrajectory> users, uint64_t seed) {
  // One workspace per worker slot: rows/beta buffers grow to steady state
  // once, then every draw is allocation-free.
  std::vector<SamplerWorkspace> workspaces(
      std::min(pool_.size(), std::max<size_t>(users.size(), 1)));
  return RunBatch<PerturbedNgramSet>(
      users.size(), seed,
      [&](size_t i, size_t worker, Rng& user_rng, PerturbedNgramSet& out) {
        auto z = perturber_->Perturb(users[i], user_rng, workspaces[worker]);
        if (!z.ok()) return z.status();
        out = std::move(*z);
        return Status::Ok();
      });
}

StatusOr<std::vector<FullRelease>> BatchReleaseEngine::ReleaseAllFull(
    std::span<const region::RegionTrajectory> users, uint64_t seed) {
  if (!pipeline_.has_value()) {
    return Status::FailedPrecondition(
        "ReleaseAllFull requires an engine constructed from an "
        "NGramMechanism (this one wraps a bare NgramPerturber)");
  }
  // One full-pipeline workspace per worker slot: sampler rows, candidate
  // buffers, node-error tables, solver scratch, and POI sampling buffers
  // all reach steady state after the first few users.
  std::vector<PipelineWorkspace> workspaces(
      std::min(pool_.size(), std::max<size_t>(users.size(), 1)));
  return RunBatch<FullRelease>(
      users.size(), seed,
      [&](size_t i, size_t worker, Rng& user_rng, FullRelease& out) {
        return pipeline_->ReleaseInto(users[i], user_rng, workspaces[worker],
                                      out);
      });
}

}  // namespace trajldp::core
