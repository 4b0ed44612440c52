#include "core/ngram_domain.h"

#include <bit>
#include <cmath>
#include <mutex>
#include <utility>

namespace trajldp::core {

using region::RegionId;

NgramDomain::NgramDomain(const region::RegionGraph* graph,
                         const region::RegionDistance* distance,
                         double sensitivity_override)
    : graph_(graph),
      distance_(distance),
      sensitivity_override_(sensitivity_override) {}

double NgramDomain::Sensitivity(int n) const {
  if (sensitivity_override_ > 0.0) return sensitivity_override_;
  return static_cast<double>(n) * distance_->MaxDistance();
}

double NgramDomain::UtilityBound(int n, double epsilon, double zeta) const {
  const double size = DomainSize(n);
  return 2.0 * Sensitivity(n) / epsilon * (std::log(size) + zeta);
}

void NgramDomain::ComputeWeightRow(RegionId r, double scale,
                                   std::vector<double>& out) const {
  const std::span<const float> d = distance_->ToAll(r);
  out.resize(d.size());
  for (size_t i = 0; i < d.size(); ++i) {
    out[i] = std::exp(-scale * static_cast<double>(d[i]));
  }
}

void NgramDomain::ComputeSuffixRow(const std::vector<double>& weight_row,
                                   std::vector<double>& out) const {
  out.resize(graph_->num_regions());
  NeighborSums(
      out.size(), [this](uint32_t v) { return graph_->Neighbors(v); },
      weight_row.data(), out.data());
}

template <typename ComputeFn>
const std::vector<double>& NgramDomain::LookupOrCompute(
    RowCache& cache, const RowKey& key, ComputeFn&& compute) const {
  {
    std::shared_lock<std::shared_mutex> lock(cache_mu_);
    const auto it = cache.map.find(key);
    if (it != cache.map.end()) {
      cache.hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Compute outside the lock; another thread may race us to the insert,
  // in which case its identical row wins and ours is discarded.
  std::vector<double> computed;
  compute(computed);
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  const auto [it, inserted] = cache.map.try_emplace(key, std::move(computed));
  (inserted ? cache.misses : cache.hits)
      .fetch_add(1, std::memory_order_relaxed);
  if (inserted) cache.rows.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

const std::vector<double>& NgramDomain::CachedWeightRow(RegionId r,
                                                        double scale) const {
  const RowKey key{r, std::bit_cast<uint64_t>(scale)};
  return LookupOrCompute(
      weight_cache_, key,
      [&](std::vector<double>& row) { ComputeWeightRow(r, scale, row); });
}

const std::vector<double>& NgramDomain::CachedSuffixRow(RegionId r,
                                                        double scale) const {
  const RowKey key{r, std::bit_cast<uint64_t>(scale)};
  return LookupOrCompute(suffix_cache_, key, [&](std::vector<double>& row) {
    ComputeSuffixRow(CachedWeightRow(r, scale), row);
  });
}

CacheStats NgramDomain::cache_stats() const {
  CacheStats stats;
  stats.weight_rows = weight_cache_.rows.load(std::memory_order_relaxed);
  stats.suffix_rows = suffix_cache_.rows.load(std::memory_order_relaxed);
  stats.weight_hits = weight_cache_.hits.load(std::memory_order_relaxed);
  stats.weight_misses = weight_cache_.misses.load(std::memory_order_relaxed);
  stats.suffix_hits = suffix_cache_.hits.load(std::memory_order_relaxed);
  stats.suffix_misses = suffix_cache_.misses.load(std::memory_order_relaxed);
  return stats;
}

Status NgramDomain::SampleInto(std::span<const RegionId> input,
                               double epsilon, Rng& rng, SamplerWorkspace& ws,
                               std::vector<RegionId>& out) const {
  const size_t n = input.size();
  if (n == 0) {
    return Status::InvalidArgument("cannot perturb an empty n-gram");
  }
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  const size_t num_regions = graph_->num_regions();
  if (num_regions == 0) {
    return Status::FailedPrecondition("region graph is empty");
  }

  // Per-slot EM weights: weight_k[r] = exp(−ε′ · d(x_k, r) / (2Δd_w)),
  // with Δd_w = n·Δd the n-gram sensitivity — exactly eq. 6 in factored
  // form. Rows come from the cache or, when caching is off, the
  // workspace; the arithmetic is identical either way, so enablement
  // changes throughput only, never draws.
  const double scale = epsilon / (2.0 * Sensitivity(static_cast<int>(n)));
  ws.rows.resize(n);
  std::span<const double> suffix;
  if (cache_enabled_) {
    // Cached rows live as long as the domain: borrowing is enough.
    for (size_t k = 0; k < n; ++k) {
      ws.rows[k] = CachedWeightRow(input[k], scale).data();
    }
    if (n >= 2) suffix = CachedSuffixRow(input[n - 1], scale);
  } else {
    if (ws.scratch.size() < n + 1) ws.scratch.resize(n + 1);
    for (size_t k = 0; k < n; ++k) {
      ComputeWeightRow(input[k], scale, ws.scratch[k]);
      ws.rows[k] = ws.scratch[k].data();
    }
    if (n >= 2) {
      ComputeSuffixRow(ws.scratch[n - 1], ws.scratch[n]);
      suffix = ws.scratch[n];
    }
  }

  return SamplePathEmInto(
      num_regions, [this](uint32_t v) { return graph_->Neighbors(v); },
      std::span<const double* const>(ws.rows.data(), n), suffix, rng, ws,
      out);
}

StatusOr<std::vector<RegionId>> NgramDomain::Sample(
    const std::vector<RegionId>& input, double epsilon, Rng& rng) const {
  SamplerWorkspace ws;
  std::vector<RegionId> out;
  TRAJLDP_RETURN_NOT_OK(SampleInto(input, epsilon, rng, ws, out));
  return out;
}

}  // namespace trajldp::core
