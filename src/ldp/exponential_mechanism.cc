#include "ldp/exponential_mechanism.h"

#include <cmath>
#include <limits>
#include <string>

#include "common/math_util.h"

namespace trajldp::ldp {

Status ValidateBudget(double epsilon, double quality_sensitivity) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  if (!(quality_sensitivity >= 0.0) || !std::isfinite(quality_sensitivity)) {
    return Status::InvalidArgument(
        "quality_sensitivity must be finite and >= 0 (0 = strict)");
  }
  return Status::Ok();
}

StatusOr<ExponentialMechanism> ExponentialMechanism::Create(
    double epsilon, double sensitivity) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("EM epsilon must be positive, got " +
                                   std::to_string(epsilon));
  }
  if (!(sensitivity > 0.0) || !std::isfinite(sensitivity)) {
    return Status::InvalidArgument("EM sensitivity must be positive, got " +
                                   std::to_string(sensitivity));
  }
  return ExponentialMechanism(epsilon, sensitivity);
}

StatusOr<size_t> ExponentialMechanism::Sample(
    const std::vector<double>& qualities, Rng& rng) const {
  return SampleStreaming(
      qualities.size(), [&](size_t i) { return qualities[i]; }, rng);
}

std::vector<double> ExponentialMechanism::Probabilities(
    const std::vector<double>& qualities) const {
  std::vector<double> logits(qualities.size());
  for (size_t i = 0; i < qualities.size(); ++i) {
    logits[i] = LogWeight(qualities[i]);
  }
  return Softmax(logits);
}

double EmUtilityBound(double epsilon, double sensitivity, size_t domain_size,
                      double zeta) {
  return 2.0 * sensitivity / epsilon *
         (std::log(static_cast<double>(domain_size)) + zeta);
}

}  // namespace trajldp::ldp
