#ifndef TRAJLDP_CORE_COLLECTOR_PIPELINE_H_
#define TRAJLDP_CORE_COLLECTOR_PIPELINE_H_

#include <cstdint>

#include "common/rng.h"
#include "common/status_or.h"
#include "core/ngram.h"
#include "core/ngram_perturber.h"
#include "core/poi_reconstructor.h"
#include "core/reconstruction.h"
#include "core/viterbi_reconstructor.h"
#include "model/trajectory.h"
#include "region/decomposition.h"
#include "region/region_distance.h"
#include "region/region_graph.h"

namespace trajldp::core {

/// \brief Wall-clock breakdown of one perturbation, mirroring Table 3's
/// columns (Perturb / Reconst. Prep / Optimal Reconst. / Other).
struct StageBreakdown {
  double perturb_seconds = 0.0;
  double reconstruct_prep_seconds = 0.0;
  double optimal_reconstruct_seconds = 0.0;
  /// Region conversion, POI-level reconstruction, smoothing, overheads.
  double other_seconds = 0.0;
  /// Of which: §5.6 POI-level resampling (a sub-slice of other_seconds,
  /// tracked separately so the POI stage's speedup is gateable — it is
  /// NOT added again by TotalSeconds).
  double poi_seconds = 0.0;

  double TotalSeconds() const {
    return perturb_seconds + reconstruct_prep_seconds +
           optimal_reconstruct_seconds + other_seconds;
  }

  StageBreakdown& operator+=(const StageBreakdown& other);
};

/// \brief One user's complete collector-side release (Figure 1 steps
/// 2–4): the §5.5 optimal region-level sequence and the §5.6 POI-level
/// trajectory resampled from it, plus the sampling diagnostics.
struct FullRelease {
  model::Trajectory trajectory;
  region::RegionTrajectory regions;
  /// §5.6 POI sampling attempts: proposals made, plus one when the exact
  /// DP drew the trajectory (PoiReconstructor::Result::attempts).
  size_t poi_attempts = 0;
  /// True when the region sequence has no feasible (POI, timestep)
  /// assignment and the §5.6 time-smoothing fallback produced the output.
  bool smoothed = false;

  bool operator==(const FullRelease&) const = default;
};

/// \brief A release paired with the global user id it belongs to — the
/// unit shard collectors emit and MergeShardReleases consumes.
struct UserRelease {
  uint64_t user_id = 0;
  FullRelease release;
};

/// \brief Per-thread scratch for the full release pipeline: sampler
/// buffers, candidate/observed region lists, the reconstruction problem
/// (error tables), the Viterbi solver's DP tables and relaxation scratch,
/// and POI sampling buffers. One per worker thread (see BatchReleaseEngine
/// and StreamingCollector); with a workspace the per-user hot loop
/// allocates only the released outputs themselves once buffers reach
/// steady state. Workspaces never change results: runs with and without
/// one are bit-identical.
struct PipelineWorkspace {
  SamplerWorkspace sampler;
  std::vector<region::RegionId> observed;
  std::vector<region::RegionId> candidates;
  ReconstructionProblem problem;
  ViterbiWorkspace viterbi;
  PoiReconstructor::Workspace poi;
};

/// \brief The reusable per-user collector pipeline, factored out of
/// NGramMechanism/BatchReleaseEngine so every server-side consumer — the
/// in-process batch engine, the streaming collector, and independent
/// shard processes — runs the exact same per-user unit.
///
/// A pipeline is a bundle of const pointers into one mechanism's public
/// pre-processing (decomposition, distance table, feasibility graph,
/// perturber, POI resampler); it is cheap to copy and safe to use from
/// many threads at once as long as each call gets its own workspace and
/// Rng.
///
/// ### The RNG seam (why sharding is bit-exact)
///
/// Each user's randomness is keyed by their *global* user id:
///
///   user_rng      = Rng(seed).Substream(user_id)      // UserRng()
///   device draws  : user_rng, advanced by the perturbation
///   collector_rng = user_rng.Substream(kCollectorStream)  // CollectorRng()
///
/// `Substream` reads — never advances — the parent state, so the
/// collector stream is a pure function of (seed, user_id) that does NOT
/// depend on the device's private draw history. A collector that holds
/// only (seed, user id, the wire report Z) can therefore finish the
/// pipeline bit-identically to a single process that ran the whole thing
/// — which is exactly what makes K shards over a user partition produce
/// output equal to BatchReleaseEngine::ReleaseAllFull. The device stream
/// is user_rng itself, so perturb-only collection (ReleaseAll) yields
/// the same reports the full pipeline consumes.
class CollectorPipeline {
 public:
  /// The substream tag separating collector-side randomness (POI-level
  /// resampling) from the device's perturbation draws.
  static constexpr uint64_t kCollectorStream = 0x636F6C6C6563746FULL;

  /// All pointees must outlive the pipeline. Usually obtained from
  /// NGramMechanism::pipeline() rather than assembled by hand.
  CollectorPipeline(const region::StcDecomposition* decomp,
                    const region::RegionDistance* distance,
                    const region::RegionGraph* graph,
                    const NgramPerturber* perturber,
                    const PoiReconstructor* poi_reconstructor,
                    double mbr_expand_km);

  /// The canonical per-user generator: Rng(seed).Substream(user_id).
  static Rng UserRng(uint64_t seed, uint64_t user_id);

  /// The collector-side generator for one user, derived from the user
  /// generator's CURRENT state. Take it before any device draws advance
  /// `user_rng` (ReleaseInto does this internally).
  static Rng CollectorRng(const Rng& user_rng);

  /// Device side: perturbs `tau` into the ε-LDP report Z. Advances `rng`
  /// (the device stream).
  Status PerturbInto(const region::RegionTrajectory& tau, Rng& rng,
                     SamplerWorkspace& ws, PerturbedNgramSet& out) const;

  /// Collector side, complete: region-level reconstruction + POI-level
  /// resampling with time-smoothing fallback. `collector_rng` must be
  /// CollectorRng(user_rng) for bit-identity with ReleaseInto.
  Status ReconstructReportInto(size_t trajectory_len,
                               const PerturbedNgramSet& z, Rng& collector_rng,
                               PipelineWorkspace& ws, FullRelease& out,
                               StageBreakdown* stages = nullptr) const;

  /// The full per-user unit (device + collector in one process): perturb
  /// with `rng`, then reconstruct with CollectorRng taken from `rng`'s
  /// initial state. This is what BatchReleaseEngine fans out.
  Status ReleaseInto(const region::RegionTrajectory& tau, Rng& rng,
                     PipelineWorkspace& ws, FullRelease& out,
                     StageBreakdown* stages = nullptr) const;

  /// Structural validation of an untrusted (wire-decoded) report against
  /// this pipeline's world: a trajectory length in [1, |T|], n-gram
  /// bounds within it, every position covered and every region id within
  /// the decomposition. Reports from the wire must pass here before
  /// ReconstructReportInto may index with them.
  Status ValidateReport(size_t trajectory_len,
                        const PerturbedNgramSet& z) const;

  const NgramPerturber& perturber() const { return *perturber_; }
  size_t num_regions() const;

 private:
  /// Collector side, deterministic half: R_mbr candidate selection +
  /// optimal region-level reconstruction (ViterbiReconstructor) from a
  /// report. Needs no RNG.
  Status ReconstructRegionsInto(size_t trajectory_len,
                                const PerturbedNgramSet& z,
                                PipelineWorkspace& ws,
                                region::RegionTrajectory& out,
                                StageBreakdown* stages) const;

  const region::StcDecomposition* decomp_;
  const region::RegionDistance* distance_;
  const region::RegionGraph* graph_;
  const NgramPerturber* perturber_;
  const PoiReconstructor* poi_reconstructor_;
  double mbr_expand_km_;
};

}  // namespace trajldp::core

#endif  // TRAJLDP_CORE_COLLECTOR_PIPELINE_H_
