#include "core/ngram_domain.h"

#include <bit>
#include <cmath>
#include <iterator>
#include <mutex>

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
NgramDomain::RowPtr NgramDomain::LookupOrCompute(RowCache& cache,
                                                 const RowKey& key,
                                                 ComputeFn&& compute) const {
  const uint64_t tick = lru_tick_.fetch_add(1, std::memory_order_relaxed);
  {
    std::shared_lock<std::shared_mutex> lock(cache_mu_);
    const auto it = cache.map.find(key);
    if (it != cache.map.end()) {
      cache.hits.fetch_add(1, std::memory_order_relaxed);
      it->second->last_used.store(tick, std::memory_order_relaxed);
      return it->second->row;
    }
  }
  // Compute outside the lock; another thread may race us to the insert,
  // in which case its identical row wins and ours is discarded.
  auto computed = std::make_shared<std::vector<double>>();
  compute(*computed);
  auto entry = std::make_unique<CacheEntry>();
  entry->row = std::move(computed);
  entry->last_used.store(tick, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  const auto [it, inserted] = cache.map.try_emplace(key, std::move(entry));
  (inserted ? cache.misses : cache.hits)
      .fetch_add(1, std::memory_order_relaxed);
  it->second->last_used.store(tick, std::memory_order_relaxed);
  RowPtr row = it->second->row;
  if (inserted) {
    cache.rows.fetch_add(1, std::memory_order_relaxed);
    EvictOverCapacity(cache);
  }
  return row;
}

void NgramDomain::EvictOverCapacity(RowCache& cache) const {
  const size_t capacity = cache_capacity_.load(std::memory_order_relaxed);
  if (capacity == 0) return;
  // The scan is O(occupancy) but runs only on an over-capacity insert,
  // where occupancy ≤ capacity + 1 — bounded by construction.
  while (cache.map.size() > capacity) {
    auto victim = cache.map.begin();
    uint64_t oldest = victim->second->last_used.load(std::memory_order_relaxed);
    for (auto it = std::next(cache.map.begin()); it != cache.map.end();
         ++it) {
      const uint64_t used =
          it->second->last_used.load(std::memory_order_relaxed);
      if (used < oldest) {
        oldest = used;
        victim = it;
      }
    }
    cache.map.erase(victim);  // pinned borrowers keep the row alive
    cache.rows.fetch_sub(1, std::memory_order_relaxed);
    cache.evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

NgramDomain::RowPtr NgramDomain::CachedWeightRow(RegionId r,
                                                 double scale) const {
  const RowKey key{r, std::bit_cast<uint64_t>(scale)};
  return LookupOrCompute(
      weight_cache_, key,
      [&](std::vector<double>& row) { ComputeWeightRow(r, scale, row); });
}

NgramDomain::RowPtr NgramDomain::CachedSuffixRow(RegionId r,
                                                 double scale) const {
  const RowKey key{r, std::bit_cast<uint64_t>(scale)};
  return LookupOrCompute(suffix_cache_, key, [&](std::vector<double>& row) {
    ComputeSuffixRow(*CachedWeightRow(r, scale), row);
  });
}

void NgramDomain::set_cache_capacity(size_t max_rows) {
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  cache_capacity_.store(max_rows, std::memory_order_relaxed);
  // Shrinking must free memory now, not on the next insert.
  EvictOverCapacity(weight_cache_);
  EvictOverCapacity(suffix_cache_);
}

void NgramDomain::ClearCache() const {
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  for (RowCache* cache : {&weight_cache_, &suffix_cache_}) {
    cache->map.clear();
    cache->rows.store(0, std::memory_order_relaxed);
  }
}

CacheStats NgramDomain::cache_stats() const {
  CacheStats stats;
  stats.weight_rows = weight_cache_.rows.load(std::memory_order_relaxed);
  stats.suffix_rows = suffix_cache_.rows.load(std::memory_order_relaxed);
  stats.weight_hits = weight_cache_.hits.load(std::memory_order_relaxed);
  stats.weight_misses = weight_cache_.misses.load(std::memory_order_relaxed);
  stats.suffix_hits = suffix_cache_.hits.load(std::memory_order_relaxed);
  stats.suffix_misses = suffix_cache_.misses.load(std::memory_order_relaxed);
  stats.weight_evictions =
      weight_cache_.evictions.load(std::memory_order_relaxed);
  stats.suffix_evictions =
      suffix_cache_.evictions.load(std::memory_order_relaxed);
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
  ws.pins.clear();
  if (cache_enabled_) {
    // Pins hold shared ownership until the draw completes, so an LRU
    // eviction — by another thread, or by this draw's own later lookups
    // under a small cap — can never free a row mid-sample.
    ws.pins.reserve(n + 1);
    for (size_t k = 0; k < n; ++k) {
      ws.pins.push_back(CachedWeightRow(input[k], scale));
      ws.rows[k] = ws.pins.back()->data();
    }
    if (n >= 2) {
      ws.pins.push_back(CachedSuffixRow(input[n - 1], scale));
      suffix = *ws.pins.back();
    }
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

  const Status status = SamplePathEmInto(
      num_regions, [this](uint32_t v) { return graph_->Neighbors(v); },
      std::span<const double* const>(ws.rows.data(), n), suffix, rng, ws,
      out);
  // Release the pins now that the draw is done — an idle workspace must
  // not keep evicted rows alive past the capacity the cap promises.
  ws.pins.clear();
  return status;
}

StatusOr<std::vector<RegionId>> NgramDomain::Sample(
    const std::vector<RegionId>& input, double epsilon, Rng& rng) const {
  SamplerWorkspace ws;
  std::vector<RegionId> out;
  TRAJLDP_RETURN_NOT_OK(SampleInto(input, epsilon, rng, ws, out));
  return out;
}

}  // namespace trajldp::core
