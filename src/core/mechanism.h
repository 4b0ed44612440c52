#ifndef TRAJLDP_CORE_MECHANISM_H_
#define TRAJLDP_CORE_MECHANISM_H_

#include <memory>

#include "common/rng.h"
#include "common/status_or.h"
#include "core/collector_pipeline.h"
#include "core/ngram_domain.h"
#include "core/ngram_perturber.h"
#include "core/poi_reconstructor.h"
#include "model/poi_database.h"
#include "model/reachability.h"
#include "region/decomposition.h"
#include "region/region_distance.h"
#include "region/region_graph.h"

namespace trajldp::core {

// StageBreakdown, FullRelease, and PipelineWorkspace — the per-user
// pipeline vocabulary — live in core/collector_pipeline.h and are
// re-exported here for the many callers that include this header.

/// \brief Configuration of the full NGram mechanism.
struct NGramConfig {
  /// n-gram length (bigrams recommended, §5.8).
  int n = 2;
  /// Total per-trajectory privacy budget ε (the paper's default is 5).
  double epsilon = 5.0;
  /// STC decomposition settings (§5.3, §6.2 defaults).
  region::DecompositionConfig decomposition;
  /// Reachability constraint θ (§4.1).
  model::ReachabilityConfig reachability;
  /// Optional padding of the R_mbr candidate rectangle, in km.
  double mbr_expand_km = 0.0;
  /// EM quality sensitivity Δd_w. 0 (default) = the strict value
  /// n × (region-distance diameter) for which the ε-LDP proof holds.
  /// Setting 1.0 reproduces the paper's published error magnitudes
  /// ("paper calibration"; see NgramDomain and docs/CALIBRATION.md).
  /// Build() rejects negative, NaN and infinite values.
  double quality_sensitivity = 0.0;
};

/// \brief The paper's primary contribution: the hierarchical n-gram
/// ε-LDP trajectory perturbation mechanism (Figure 1, §5.2–5.6).
///
/// Build() runs the public pre-processing (STC decomposition, region
/// reachability graph) once; Perturb() then runs the four per-trajectory
/// stages: region conversion → overlapping n-gram perturbation → optimal
/// region-level reconstruction → POI-level reconstruction. Only the
/// perturbation stage touches the privacy budget; everything else is
/// public knowledge or post-processing (Theorem 5.3: the output is
/// ε-LDP).
class NGramMechanism {
 public:
  /// Runs pre-processing and assembles the mechanism. `db` must outlive
  /// the result.
  static StatusOr<NGramMechanism> Build(const model::PoiDatabase* db,
                                        const model::TimeDomain& time,
                                        NGramConfig config);

  NGramMechanism(NGramMechanism&&) = default;
  NGramMechanism& operator=(NGramMechanism&&) = default;

  /// Perturbs one trajectory end-to-end. When `stages` is non-null the
  /// per-stage wall-clock times are accumulated into it.
  StatusOr<model::Trajectory> Perturb(const model::Trajectory& input,
                                      Rng& rng,
                                      StageBreakdown* stages = nullptr) const;

  /// Full collector-side pipeline for an already region-converted
  /// trajectory: n-gram perturbation → R_mbr candidate selection →
  /// optimal region-level reconstruction → POI-level resampling with
  /// time-smoothing fallback. This is the per-user unit the batched
  /// engine fans out — a thin wrapper over CollectorPipeline::ReleaseInto,
  /// so its randomness follows the pipeline's RNG seam: perturbation
  /// draws advance `rng` (the device stream) and the POI-level stage
  /// uses CollectorRng(rng) derived from `rng`'s initial state, making
  /// the collector half re-derivable from (seed, user id) alone. When
  /// `ws` is non-null all scratch lives there (allocation-free hot
  /// loop); results are bit-identical either way for the same Rng state.
  StatusOr<FullRelease> ReleaseFromRegions(
      const region::RegionTrajectory& tau, Rng& rng,
      PipelineWorkspace* ws = nullptr, StageBreakdown* stages = nullptr) const;

  /// The reusable per-user pipeline over this mechanism's components.
  /// Cheap to copy (a bundle of const pointers); stays valid across moves
  /// of this mechanism (components are heap-owned) but not past its
  /// destruction.
  CollectorPipeline pipeline() const;

  const NGramConfig& config() const { return config_; }
  const NgramPerturber& perturber() const { return *perturber_; }
  const region::StcDecomposition& decomposition() const { return *decomp_; }
  const region::RegionGraph& graph() const { return *graph_; }
  const region::RegionDistance& distance() const { return *distance_; }
  const NgramDomain& domain() const { return *domain_; }
  const model::Reachability& reachability() const { return *reachability_; }

  /// Pre-processing wall-clock seconds (Figure 7).
  double preprocessing_seconds() const { return preprocessing_seconds_; }

 private:
  NGramMechanism() = default;

  NGramConfig config_;
  const model::PoiDatabase* db_ = nullptr;
  model::TimeDomain time_;
  std::unique_ptr<region::StcDecomposition> decomp_;
  std::unique_ptr<region::RegionDistance> distance_;
  std::unique_ptr<region::RegionGraph> graph_;
  std::unique_ptr<NgramDomain> domain_;
  std::unique_ptr<NgramPerturber> perturber_;
  std::unique_ptr<model::Reachability> reachability_;
  std::unique_ptr<PoiReconstructor> poi_reconstructor_;
  double preprocessing_seconds_ = 0.0;
};

}  // namespace trajldp::core

#endif  // TRAJLDP_CORE_MECHANISM_H_
