#ifndef TRAJLDP_CORE_BATCH_RELEASE_ENGINE_H_
#define TRAJLDP_CORE_BATCH_RELEASE_ENGINE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status_or.h"
#include "common/thread_pool.h"
#include "core/collector_pipeline.h"
#include "core/mechanism.h"
#include "core/ngram_perturber.h"

namespace trajldp::core {

/// \brief Collector-side batched release of many users' trajectories.
///
/// The per-user mechanism is embarrassingly parallel: each trajectory is
/// processed independently, and everything the stages share — EM weight
/// rows, the region-distance matrix, the reachability graph — is public
/// data behind const pointers. This engine fans a batch out over a
/// persistent thread pool, giving each worker its own workspace
/// (allocation-free hot loop) and each *user* their own deterministic
/// RNG substream:
///
///   user i's generator = Rng(seed).Substream(i)
///
/// Because the substream depends only on (seed, i) — never on scheduling —
/// the batched output is bit-identical to the sequential loop
///
///   Rng root(seed);
///   for (i = 0; i < users.size(); ++i) {
///     Rng user_rng = root.Substream(i);
///     mechanism.ReleaseFromRegions(users[i], user_rng);   // or Perturb
///   }
///
/// for any thread count. Reproducibility is a release-pipeline feature
/// (audits replay a batch), not just a testing convenience.
///
/// Two entry points cover the two collector roles:
///  * ReleaseAll     — perturbation only (the ε-LDP reports as collected);
///  * ReleaseAllFull — the full §5.5–§5.6 pipeline through region-level
///    reconstruction and POI-level resampling, one FullRelease per user.
///
/// Both are thin fan-out wrappers over core::CollectorPipeline — the
/// same per-user unit the streaming/sharded collectors run — so a batch
/// released here is bit-identical to the same users ingested through
/// StreamingCollector at any shard count.
class BatchReleaseEngine {
 public:
  struct Config {
    /// Worker threads; 0 → all hardware threads.
    size_t num_threads = 0;
  };

  /// Perturb-only engine. `perturber` (and the domain/graph/distance
  /// behind it) must outlive this engine. ReleaseAllFull is unavailable.
  explicit BatchReleaseEngine(const NgramPerturber* perturber)
      : BatchReleaseEngine(perturber, Config()) {}
  BatchReleaseEngine(const NgramPerturber* perturber, Config config);

  /// Full-pipeline engine. `mechanism` must outlive this engine; its
  /// perturber also serves ReleaseAll.
  explicit BatchReleaseEngine(const NGramMechanism* mechanism)
      : BatchReleaseEngine(mechanism, Config()) {}
  BatchReleaseEngine(const NGramMechanism* mechanism, Config config);

  size_t num_threads() const { return pool_.size(); }

  /// Perturbs every trajectory in `users`, returning one PerturbedNgramSet
  /// per user in input order. Fails with the first per-user error (by
  /// user index) if any perturbation fails; partial output is discarded.
  StatusOr<std::vector<PerturbedNgramSet>> ReleaseAll(
      std::span<const region::RegionTrajectory> users, uint64_t seed);

  /// Runs the full pipeline (perturb → R_mbr candidates → optimal
  /// region-level reconstruction → POI-level resampling with smoothing)
  /// for every user, returning one FullRelease per user in input order.
  /// Requires construction from an NGramMechanism. Error policy matches
  /// ReleaseAll.
  StatusOr<std::vector<FullRelease>> ReleaseAllFull(
      std::span<const region::RegionTrajectory> users, uint64_t seed);

 private:
  template <typename Out, typename PerUserFn>
  StatusOr<std::vector<Out>> RunBatch(size_t num_users, uint64_t seed,
                                      const PerUserFn& per_user);

  const NgramPerturber* perturber_;
  /// Present only for full-pipeline engines (mechanism constructor).
  std::optional<CollectorPipeline> pipeline_;
  ThreadPool pool_;
};

}  // namespace trajldp::core

#endif  // TRAJLDP_CORE_BATCH_RELEASE_ENGINE_H_
