#include "common/rng.h"

#include <cmath>
#include <limits>
#include <numeric>

namespace trajldp {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

Rng Rng::Split() {
  // Derive the child seed from this generator's stream; advancing this
  // generator by one draw keeps parent and child decorrelated.
  return Rng(NextUint64() ^ 0xA3EC647659359ACDULL);
}

Rng Rng::Substream(uint64_t stream) const {
  // Hash (state, stream) into a fresh 256-bit state via splitmix64. The
  // parent state is read, never advanced, so Substream(i) is a pure
  // function of (parent state, i).
  uint64_t sm = stream ^ 0xD2B74407B1CE6E93ULL;
  const uint64_t h = SplitMix64(sm);
  Rng child(0);
  for (int i = 0; i < 4; ++i) {
    uint64_t mixed = state_[i] ^ h;
    child.state_[i] = SplitMix64(mixed);
  }
  return child;
}

void Rng::Jump() {
  // Standard xoshiro256++ jump constants (Blackman & Vigna).
  static constexpr uint64_t kJump[] = {0x180EC6D33CFD0ABAULL,
                                       0xD5A61266F0C9392CULL,
                                       0xA9582618E03FC9AAULL,
                                       0x39ABDC4529B1661CULL};
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (uint64_t{1} << b)) {
        s0 ^= state_[0];
        s1 ^= state_[1];
        s2 ^= state_[2];
        s3 ^= state_[3];
      }
      NextUint64();
    }
  }
  state_[0] = s0;
  state_[1] = s1;
  state_[2] = s2;
  state_[3] = s3;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(UniformUint64(span));
}

double Rng::UniformDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Gumbel() {
  // Guard against log(0): UniformDouble() can return exactly 0.
  double u = UniformDouble();
  while (u <= 0.0) u = UniformDouble();
  return -std::log(-std::log(u));
}

double Rng::Exponential(double rate) {
  double u = UniformDouble();
  while (u <= 0.0) u = UniformDouble();
  return -std::log(u) / rate;
}

double Rng::Normal() {
  double u1 = UniformDouble();
  while (u1 <= 0.0) u1 = UniformDouble();
  const double u2 = UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

size_t Rng::Discrete(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (!(total > 0.0) || !std::isfinite(total)) return weights.size();
  double target = UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  // Floating-point slack: fall back to the last positive weight.
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size();
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), size_t{0});
  for (size_t i = n; i > 1; --i) {
    const size_t j = UniformUint64(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace trajldp
