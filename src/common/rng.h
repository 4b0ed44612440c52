#ifndef TRAJLDP_COMMON_RNG_H_
#define TRAJLDP_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace trajldp {

/// \brief Deterministic, splittable pseudo-random number generator.
///
/// All randomness in the library flows through this class so that every
/// mechanism run, test, and benchmark is reproducible from a single seed.
/// The core generator is xoshiro256++ seeded via splitmix64; `Split()`
/// derives an independent child stream, which lets parallel or per-user
/// perturbations stay deterministic regardless of interleaving.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Derives an independent child generator. Subsequent draws from this
  /// generator are unaffected by draws from the child and vice versa.
  Rng Split();

  /// Derives the `stream`-th independent substream of this generator
  /// WITHOUT advancing it: the same parent state yields the same substream
  /// for the same index, no matter how many substreams are taken or in
  /// what order. This is what makes batched multi-user perturbation
  /// bit-identical to a sequential loop — worker threads call
  /// `root.Substream(user_index)` and the interleaving becomes irrelevant.
  Rng Substream(uint64_t stream) const;

  /// Advances this generator by 2^128 steps (the standard xoshiro256++
  /// jump polynomial). 2^128 non-overlapping subsequences of length 2^128
  /// each: an alternative substream construction for long-lived workers.
  void Jump();

  /// Next raw 64 random bits.
  uint64_t NextUint64() {
    // xoshiro256++ step.
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be positive. Raw words
  /// below 2^64 mod bound are rejected: what is left is a whole number of
  /// copies of [0, bound), so the final `% bound` is unbiased.
  uint64_t UniformUint64(uint64_t bound) {
    const uint64_t threshold = (0ULL - bound) % bound;
    for (;;) {
      const uint64_t r = NextUint64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Standard Gumbel(0, 1) draw: -log(-log(U)). Used by the Gumbel-max
  /// exponential-mechanism sampler.
  double Gumbel();

  /// Exponential draw with the given rate (mean 1/rate).
  double Exponential(double rate);

  /// Standard normal draw (Box–Muller, no caching).
  double Normal();

  /// Normal draw with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Log-normal draw parameterised by the underlying normal.
  double LogNormal(double mu, double sigma);

  /// Bernoulli draw with success probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Samples an index proportionally to non-negative `weights`.
  /// Returns weights.size() if the total weight is zero or not finite.
  size_t Discrete(std::span<const double> weights);

  /// Fisher–Yates shuffles indices [0, n) and returns the permutation.
  std::vector<size_t> Permutation(size_t n);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace trajldp

#endif  // TRAJLDP_COMMON_RNG_H_
