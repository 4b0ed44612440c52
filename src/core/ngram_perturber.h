#ifndef TRAJLDP_CORE_NGRAM_PERTURBER_H_
#define TRAJLDP_CORE_NGRAM_PERTURBER_H_

#include "common/rng.h"
#include "common/status_or.h"
#include "core/ngram.h"
#include "core/ngram_domain.h"
#include "region/decomposition.h"

namespace trajldp::core {

/// \brief The overlapping n-gram perturbation stage (§5.4, Figure 3).
///
/// For a region-level trajectory of length L = |τ| and n-gram length n:
///  * main perturbations: z(a, a+n−1) for a = 1..L−n+1, each an EM draw
///    from W_n with budget ε′ = ε / (L + n − 1);
///  * supplementary perturbations (end effects): prefixes z(1, m) and
///    suffixes z(L−m+1, L) for m = 1..n−1, drawn from W_m at the same ε′.
///
/// Every position ends up covered exactly n times, and sequential
/// composition of the L + n − 1 draws consumes exactly ε (Theorem 5.3).
class NgramPerturber {
 public:
  struct Config {
    /// n-gram length; the paper recommends bigrams (§5.8).
    int n = 2;
    /// Total privacy budget ε for one trajectory.
    double epsilon = 5.0;
  };

  /// `domain` must outlive this object.
  NgramPerturber(const NgramDomain* domain, Config config);

  const Config& config() const { return config_; }

  /// The domain this perturber draws from (e.g. to read cache stats on
  /// the engine path, which only holds the perturber).
  const NgramDomain& domain() const { return *domain_; }

  /// Number of EM invocations for a trajectory of length `len`:
  /// L + n − 1 (with n clamped to L).
  size_t NumPerturbations(size_t len) const;

  /// Per-invocation budget ε′ for a trajectory of length `len`. The one
  /// place Theorem 5.3's split is computed: the device spends it on every
  /// draw and the collector requires it of every report
  /// (CollectorPipeline::CheckEpsilonPrime).
  double EpsilonPerPerturbation(size_t len) const;

  /// Perturbs a region-level trajectory into the set Z of overlapping
  /// perturbed n-grams, NumPerturbations(L) EM draws at
  /// EpsilonPerPerturbation(L) each. n is clamped to the trajectory
  /// length.
  StatusOr<PerturbedNgramSet> Perturb(const region::RegionTrajectory& tau,
                                      Rng& rng) const;

  /// Hot-path variant: all sampler scratch lives in `ws`, so repeated
  /// calls (one per user of a batch) allocate only the output set. Draws
  /// are bit-identical to the workspace-free overload for the same Rng
  /// state. Thread-safe given one workspace and Rng per thread.
  StatusOr<PerturbedNgramSet> Perturb(const region::RegionTrajectory& tau,
                                      Rng& rng, SamplerWorkspace& ws) const;

 private:
  const NgramDomain* domain_;
  Config config_;
};

}  // namespace trajldp::core

#endif  // TRAJLDP_CORE_NGRAM_PERTURBER_H_
