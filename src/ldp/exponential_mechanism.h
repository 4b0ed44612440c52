#ifndef TRAJLDP_LDP_EXPONENTIAL_MECHANISM_H_
#define TRAJLDP_LDP_EXPONENTIAL_MECHANISM_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/status_or.h"

namespace trajldp::ldp {

/// Validates a mechanism's total budget ε (positive and finite) and its
/// EM quality-sensitivity override (finite and ≥ 0, where 0 selects the
/// strict public diameter). Every mechanism's Build (or Create) calls
/// this, so a negative or NaN override cannot silently mean "strict",
/// and +∞ cannot flatten every draw to uniform.
Status ValidateBudget(double epsilon, double quality_sensitivity);

/// \brief The exponential mechanism of McSherry–Talwar (Definition 4.3).
///
/// Selects an output index y with probability proportional to
/// exp(ε · q(y) / (2Δq)). In this library the quality is always a negated
/// distance (q = −d), so lower distance means higher probability, and the
/// sensitivity Δq is the public diameter of the distance function — which
/// makes every selection ε-LDP regardless of the input (§4.2).
///
/// Sampling uses the Gumbel-max trick: argmax_y (ε·q(y)/(2Δq) + G_y) with
/// i.i.d. standard Gumbel noise G_y is an exact sample from the EM
/// distribution. This avoids computing the normaliser and is numerically
/// stable for very small ε or large distances.
class ExponentialMechanism {
 public:
  /// \param epsilon     per-invocation privacy budget ε′ (> 0).
  /// \param sensitivity Δq, the quality function's sensitivity (> 0).
  static StatusOr<ExponentialMechanism> Create(double epsilon,
                                               double sensitivity);

  double epsilon() const { return epsilon_; }
  double sensitivity() const { return sensitivity_; }

  /// The log-weight ε·q/(2Δq) assigned to quality `q`.
  double LogWeight(double quality) const {
    return epsilon_ * quality / (2.0 * sensitivity_);
  }

  /// Samples an index from `qualities` (one quality per candidate).
  /// Fails on an empty candidate set.
  StatusOr<size_t> Sample(const std::vector<double>& qualities,
                          Rng& rng) const;

  /// Streaming variant: candidates are produced by `quality(i)` for
  /// i ∈ [0, n). Avoids materialising the quality vector for very large
  /// domains (e.g. the global mechanism's trajectory space). Templated on
  /// the functor so the per-candidate call inlines — no std::function
  /// dispatch inside the Gumbel-max loop.
  template <typename QualityFn>
  StatusOr<size_t> SampleStreaming(size_t n, QualityFn&& quality,
                                   Rng& rng) const {
    if (n == 0) {
      return Status::InvalidArgument("EM candidate set is empty");
    }
    size_t best = 0;
    double best_key = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      const double key = LogWeight(quality(i)) + rng.Gumbel();
      if (key > best_key) {
        best_key = key;
        best = i;
      }
    }
    return best;
  }

  /// Exact selection probabilities for the candidate set — used by tests
  /// to verify the ε-LDP ratio bound, and by the theoretical utility
  /// computations (eq. 3). Not used on the sampling path.
  std::vector<double> Probabilities(const std::vector<double>& qualities) const;

 private:
  ExponentialMechanism(double epsilon, double sensitivity)
      : epsilon_(epsilon), sensitivity_(sensitivity) {}

  double epsilon_;
  double sensitivity_;
};

/// Evaluates the EM utility bound (eq. 3): the probability that the chosen
/// quality falls short of OPT by more than 2Δq/ε (ln|Y| + ζ) is ≤ e^{−ζ}.
/// Returns the additive error bound for the given ζ.
double EmUtilityBound(double epsilon, double sensitivity, size_t domain_size,
                      double zeta);

}  // namespace trajldp::ldp

#endif  // TRAJLDP_LDP_EXPONENTIAL_MECHANISM_H_
