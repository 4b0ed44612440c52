#include "core/ngram_perturber.h"

#include <algorithm>
#include <string>

namespace trajldp::core {

using region::RegionId;

NgramPerturber::NgramPerturber(const NgramDomain* domain, Config config)
    : domain_(domain), config_(config) {}

size_t NgramPerturber::NumPerturbations(size_t len) const {
  const size_t n = std::min<size_t>(static_cast<size_t>(config_.n), len);
  return len + n - 1;
}

double NgramPerturber::EpsilonPerPerturbation(size_t len) const {
  return config_.epsilon / static_cast<double>(NumPerturbations(len));
}

StatusOr<PerturbedNgramSet> NgramPerturber::Perturb(
    const region::RegionTrajectory& tau, Rng& rng) const {
  SamplerWorkspace ws;
  return Perturb(tau, rng, ws);
}

StatusOr<PerturbedNgramSet> NgramPerturber::Perturb(
    const region::RegionTrajectory& tau, Rng& rng,
    SamplerWorkspace& ws) const {
  if (tau.empty()) {
    return Status::InvalidArgument("cannot perturb an empty trajectory");
  }
  if (config_.n < 1) {
    return Status::InvalidArgument("n-gram length must be >= 1");
  }
  const size_t len = tau.size();
  // Clamp n for trajectories shorter than the configured n-gram length; a
  // 2-point trajectory with n = 3 degenerates to bigram perturbation.
  const size_t n = std::min<size_t>(static_cast<size_t>(config_.n), len);
  const double eps_prime = EpsilonPerPerturbation(len);

  // Samples the fragment tau[a..b] (1-based inclusive) straight from the
  // trajectory storage — no per-n-gram input copy.
  auto sample = [&](size_t a, size_t b) -> StatusOr<std::vector<RegionId>> {
    const std::span<const RegionId> input(tau.data() + (a - 1), b - a + 1);
    std::vector<RegionId> out;
    TRAJLDP_RETURN_NOT_OK(
        domain_->SampleInto(input, eps_prime, rng, ws, out));
    return out;
  };

  PerturbedNgramSet z;
  z.reserve(len + n - 1);

  // Main perturbations: a = 1..L−n+1 (1-based inclusive indices).
  for (size_t a = 1; a + n - 1 <= len; ++a) {
    const size_t b = a + n - 1;
    auto sampled = sample(a, b);
    if (!sampled.ok()) return sampled.status();
    z.push_back(PerturbedNgram{a, b, std::move(*sampled)});
  }

  // Supplementary perturbations: prefixes z(1, m) and suffixes
  // z(L−m+1, L) for m = 1..n−1, using the smaller domains W_m.
  for (size_t m = 1; m < n; ++m) {
    {
      auto sampled = sample(1, m);
      if (!sampled.ok()) return sampled.status();
      z.push_back(PerturbedNgram{1, m, std::move(*sampled)});
    }
    {
      const size_t a = len - m + 1;
      auto sampled = sample(a, len);
      if (!sampled.ok()) return sampled.status();
      z.push_back(PerturbedNgram{a, len, std::move(*sampled)});
    }
  }
  return z;
}

}  // namespace trajldp::core
