#ifndef TRAJLDP_CORE_NGRAM_DOMAIN_H_
#define TRAJLDP_CORE_NGRAM_DOMAIN_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status_or.h"
#include "region/region_distance.h"
#include "region/region_graph.h"

namespace trajldp::core {

/// Cache occupancy, hit, and miss counters (diagnostics & tests).
/// Read lock-free: every counter is an atomic in the domain.
struct CacheStats {
  size_t weight_rows = 0;
  size_t suffix_rows = 0;
  size_t weight_hits = 0;
  size_t weight_misses = 0;
  size_t suffix_hits = 0;
  size_t suffix_misses = 0;
};

/// \brief Reusable buffers for the path-EM sampler. One per thread.
///
/// Every hot-path allocation of the sampler lands in one of these vectors
/// and is amortised across calls: after the first few draws the per-draw
/// path performs no heap allocation. Not thread-safe — each worker thread
/// owns its own workspace (see BatchReleaseEngine).
struct SamplerWorkspace {
  /// Flattened backward-recursion table, (n−1) × num_nodes.
  std::vector<double> beta;
  /// Neighbour sums of the last slot's weight row (uncached fallback).
  std::vector<double> suffix;
  /// Per-step neighbour weights during forward sampling.
  std::vector<double> local;
  /// Per-slot weight-row pointers handed to the sampler.
  std::vector<const double*> rows;
  /// Row storage when the domain's cache is disabled.
  std::vector<std::vector<double>> scratch;
};

/// The neighbour-sum kernel: out[v] = Σ_{u∈adj(v)} in[u] for every node
/// v < num_nodes, where neighbors(v) returns adj(v) as a span. Each sum
/// adds its terms left to right from 0.0, exactly as the plain loop does,
/// so every output is bit-identical to it; four nodes' sums run side by
/// side, so each chain's adds overlap the other chains' instead of waiting
/// on their own previous add. The chains are named scalars, not an array,
/// so they stay in registers at -O2 as well as -O3.
template <typename NeighborFn>
void NeighborSums(size_t num_nodes, NeighborFn&& neighbors, const double* in,
                  double* out) {
  uint32_t v = 0;
  for (; v + 4 <= num_nodes; v += 4) {
    const std::span<const uint32_t> a0 = neighbors(v);
    const std::span<const uint32_t> a1 = neighbors(v + 1);
    const std::span<const uint32_t> a2 = neighbors(v + 2);
    const std::span<const uint32_t> a3 = neighbors(v + 3);
    const size_t common =
        std::min({a0.size(), a1.size(), a2.size(), a3.size()});
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t j = 0; j < common; ++j) {
      s0 += in[a0[j]];
      s1 += in[a1[j]];
      s2 += in[a2[j]];
      s3 += in[a3[j]];
    }
    auto finish = [&](std::span<const uint32_t> adj, double sum) {
      for (size_t j = common; j < adj.size(); ++j) sum += in[adj[j]];
      return sum;
    };
    out[v] = finish(a0, s0);
    out[v + 1] = finish(a1, s1);
    out[v + 2] = finish(a2, s2);
    out[v + 3] = finish(a3, s3);
  }
  for (; v < num_nodes; ++v) {
    double sum = 0.0;
    for (uint32_t u : neighbors(v)) sum += in[u];
    out[v] = sum;
  }
}

/// Exact exponential-mechanism sampling of one walk from a directed graph
/// with separable per-slot log-linear weights: Pr[path] ∝ Π_k
/// weights[k][node_k] over all walks whose steps follow `neighbors`.
/// Backward weight recursion + forward sampling, O(n · (V + E)).
///
/// This is the allocation-free core: `weight_rows` are borrowed pointers
/// to rows of length `num_nodes`, all scratch lives in `ws`, and the
/// neighbour functor is a template parameter (no std::function dispatch
/// on the inner loops). `last_suffix`, when non-empty, must equal
/// S[v] = Σ_{u∈adj(v)} weight_rows[n−1][u]; passing a precomputed row
/// (NgramDomain caches them per (region, ε′)) removes the only O(E) pass
/// a bigram draw would otherwise need.
template <typename NeighborFn>
Status SamplePathEmInto(size_t num_nodes, NeighborFn&& neighbors,
                        std::span<const double* const> weight_rows,
                        std::span<const double> last_suffix, Rng& rng,
                        SamplerWorkspace& ws, std::vector<uint32_t>& out) {
  const size_t n = weight_rows.size();
  if (n == 0) {
    return Status::InvalidArgument("cannot sample an empty path");
  }
  if (num_nodes == 0) {
    return Status::FailedPrecondition("graph is empty");
  }
  out.resize(n);

  if (n == 1) {
    const size_t pick =
        rng.Discrete(std::span<const double>(weight_rows[0], num_nodes));
    if (pick >= num_nodes) {
      return Status::FailedPrecondition(
          "the graph admits no feasible walk of length 1");
    }
    out[0] = static_cast<uint32_t>(pick);
    return Status::Ok();
  }

  // Suffix sums of the final slot: S[v] = Σ_{u∈adj(v)} w_{n−1}[u].
  const double* suffix = last_suffix.data();
  if (last_suffix.empty()) {
    ws.suffix.resize(num_nodes);
    NeighborSums(num_nodes, neighbors, weight_rows[n - 1], ws.suffix.data());
    suffix = ws.suffix.data();
  }

  // Backward recursion: beta[k][v] = w_k[v] · Σ_{u∈adj(v)} beta[k+1][u] is
  // the total weight of all feasible suffixes starting at v in slot k.
  // beta[n−1] is the last weight row itself and is never materialised;
  // rows 0..n−2 live flattened in the workspace.
  ws.beta.resize((n - 1) * num_nodes);
  {
    const double* w = weight_rows[n - 2];
    double* row = ws.beta.data() + (n - 2) * num_nodes;
    for (uint32_t v = 0; v < num_nodes; ++v) row[v] = w[v] * suffix[v];
  }
  for (size_t k = n - 2; k-- > 0;) {
    const double* w = weight_rows[k];
    const double* next = ws.beta.data() + (k + 1) * num_nodes;
    double* row = ws.beta.data() + k * num_nodes;
    NeighborSums(num_nodes, neighbors, next, row);
    for (uint32_t v = 0; v < num_nodes; ++v) row[v] = w[v] * row[v];
  }

  // Forward sampling: first node ∝ beta[0]; each next node among the
  // previous one's neighbours ∝ beta[k] (∝ w_{n−1} on the last step).
  {
    const size_t pick =
        rng.Discrete(std::span<const double>(ws.beta.data(), num_nodes));
    if (pick >= num_nodes) {
      return Status::FailedPrecondition(
          "the graph admits no feasible walk of length " + std::to_string(n));
    }
    out[0] = static_cast<uint32_t>(pick);
  }
  for (size_t k = 1; k < n; ++k) {
    const auto adj = neighbors(out[k - 1]);
    const double* scores = k + 1 < n ? ws.beta.data() + k * num_nodes
                                     : weight_rows[n - 1];
    ws.local.resize(adj.size());
    for (size_t j = 0; j < adj.size(); ++j) ws.local[j] = scores[adj[j]];
    const size_t pick =
        rng.Discrete(std::span<const double>(ws.local.data(), adj.size()));
    if (pick >= adj.size()) {
      return Status::Internal("inconsistent backward weights in path EM");
    }
    out[k] = adj[pick];
  }
  return Status::Ok();
}

/// Convenience wrapper with the original signature: weights held as one
/// vector per slot, result returned by value. Kept for the POI-level
/// baselines and tests; the multi-user hot path uses SamplePathEmInto
/// with a reusable workspace instead.
template <typename NeighborFn>
StatusOr<std::vector<uint32_t>> SamplePathEm(
    size_t num_nodes, NeighborFn&& neighbors,
    const std::vector<std::vector<double>>& weights, Rng& rng) {
  SamplerWorkspace ws;
  ws.rows.reserve(weights.size());
  for (const auto& row : weights) ws.rows.push_back(row.data());
  std::vector<uint32_t> out;
  const Status status = SamplePathEmInto(
      num_nodes, std::forward<NeighborFn>(neighbors),
      std::span<const double* const>(ws.rows.data(), ws.rows.size()),
      std::span<const double>(), rng, ws, out);
  if (!status.ok()) return status;
  return out;
}

/// \brief The reachable n-gram set W_n in factored form, with exact
/// exponential-mechanism sampling (§5.3–5.4).
///
/// W_n is the set of length-(n−1) walks of the region reachability graph.
/// Because the n-gram distance is element-wise separable (eq. 16),
///   Pr[z = w] ∝ exp(−ε′ d_w(x, w) / 2Δ) = Π_k exp(−ε′ d(x_k, w_k) / 2Δ),
/// the EM distribution over W_n factorises over the walk and can be
/// sampled exactly by a backward weight recursion followed by a forward
/// sampling pass — O(n·(R + E)) per draw, never materialising W_n. This is
/// what makes the mechanism scale to large cities (§5.8) and makes n = 3
/// affordable where explicit enumeration is O(|P|³).
///
/// Sensitivity: by default Δd_w = n · Δd where Δd is the public region-
/// distance diameter, since d_w sums n per-slot distances each bounded by
/// Δd. This is the strict value for which the EM's ε-LDP proof holds.
///
/// `sensitivity_override` (> 0) replaces Δd_w outright. The paper's
/// published error magnitudes (Table 2: d_c ≈ 1.8, d_s ≈ 2.2 km at
/// ε′ ≈ 0.6) imply an effective Δq ≈ 1 — the strict diameter (~30–50
/// distance units for a city) would give a ~30× flatter distribution than
/// the paper reports. The reproduction benches therefore run with
/// sensitivity_override = 1 ("paper calibration"), while the library
/// default stays strict; see docs/CALIBRATION.md §Sensitivity
/// calibration.
///
/// ### Weight-row cache
///
/// The per-slot EM weight row exp(−ε′·d(x, ·)/2Δ) depends only on the
/// true region x and the per-perturbation budget ε′ — NOT on which user,
/// trajectory, or n-gram slot is being perturbed. Under a fixed collector
/// policy (same ε, same n) a workload of millions of reports touches only
/// |R| distinct rows, so the domain memoises rows — and the last-slot
/// neighbour-sum rows the sampler needs — keyed by (region, scale).
/// Cached and uncached sampling perform bit-identical arithmetic, so
/// disabling the cache (set_cache_enabled(false)) changes nothing but
/// speed.
///
/// ### Cache layout
///
/// Both caches sit behind one shared_mutex: a lookup takes it shared, a
/// miss computes its row outside the lock and takes it exclusively only
/// to insert. Every counter is atomic, so cache_stats() takes no lock.
/// Lock striping and per-thread copies were measured against this
/// layout and were no faster (docs/PERF.md §"Domain cache"); no layout
/// can change a draw, since every row is a pure function of
/// (region, scale).
///
/// ### Row lifetime
///
/// The caches are insert-only: a row, once computed, is owned by its map
/// entry and neither moves nor is freed until the domain is destroyed,
/// so samplers borrow plain `const double*` rows with no pinning. Memory
/// stays bounded without a cap: under one mechanism ε and n are fixed,
/// so the key space is |R| × the distinct (trajectory length, n-gram
/// length) scales a workload produces.
class NgramDomain {
 public:
  /// `graph` and `distance` must outlive this object and refer to the
  /// same decomposition.
  NgramDomain(const region::RegionGraph* graph,
              const region::RegionDistance* distance,
              double sensitivity_override = 0.0);

  /// Samples one perturbed n-gram for the input fragment `input` (region
  /// ids, length n ≥ 1) with per-invocation budget ε′. This is eq. 6.
  /// Fails when W_n is empty (graph has no length-(n−1) walk).
  StatusOr<std::vector<region::RegionId>> Sample(
      const std::vector<region::RegionId>& input, double epsilon,
      Rng& rng) const;

  /// Allocation-free variant: scratch lives in `ws`, the sampled n-gram
  /// is written into `out` (resized to input.size()). Safe to call
  /// concurrently from multiple threads as long as each thread passes its
  /// own workspace and Rng. `epsilon` must be positive and finite.
  Status SampleInto(std::span<const region::RegionId> input, double epsilon,
                    Rng& rng, SamplerWorkspace& ws,
                    std::vector<region::RegionId>& out) const;

  /// Δd_w for n-grams of length n.
  double Sensitivity(int n) const;

  /// |W_n| (as a double; used for the Theorem 5.2 utility bound).
  double DomainSize(int n) const { return graph_->CountNgrams(n); }

  /// The Theorem 5.2 bound: with probability ≥ 1 − e^{−ζ}, the sampled
  /// n-gram w satisfies d_w(x, w) ≤ (2Δd_w / ε′)(ln|W_n| + ζ).
  double UtilityBound(int n, double epsilon, double zeta) const;

  /// Enables/disables the weight-row caches (on by default). Sampling
  /// draws are bit-identical either way; this only trades memory for
  /// throughput. Not thread-safe against concurrent SampleInto calls.
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }
  bool cache_enabled() const { return cache_enabled_; }

  /// Occupancy, hit, and miss counters of both caches. Lock-free.
  CacheStats cache_stats() const;

  const region::RegionGraph& graph() const { return *graph_; }
  const region::RegionDistance& distance() const { return *distance_; }

 private:
  /// Cache key of one EM weight (or suffix) row: the true region and the
  /// bit pattern of the per-draw scale ε′ / (2Δd_w).
  struct RowKey {
    uint32_t region;
    uint64_t scale_bits;
    bool operator==(const RowKey&) const = default;
  };
  struct RowKeyHash {
    size_t operator()(const RowKey& key) const {
      uint64_t h = key.scale_bits * 0x9E3779B97F4A7C15ULL;
      h ^= h >> 29;
      h += static_cast<uint64_t>(key.region) * 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 32;
      return static_cast<size_t>(h);
    }
  };
  /// One row cache: its map, guarded by cache_mu_, and every counter the
  /// map feeds — atomics, so cache_stats() never takes the lock. Map
  /// nodes never move (rehashing relinks them), and entries are never
  /// erased or modified, so a row's buffer stays valid for the domain's
  /// lifetime.
  struct RowCache {
    std::unordered_map<RowKey, std::vector<double>, RowKeyHash> map;
    std::atomic<size_t> rows{0};
    std::atomic<size_t> hits{0};
    std::atomic<size_t> misses{0};
  };

  /// exp(−scale·d(r, ·)) over the cached float distance row.
  void ComputeWeightRow(region::RegionId r, double scale,
                        std::vector<double>& out) const;
  /// S[v] = Σ_{u∈adj(v)} weight_row[u].
  void ComputeSuffixRow(const std::vector<double>& weight_row,
                        std::vector<double>& out) const;

  /// Double-checked cache protocol shared by both row caches: shared-lock
  /// lookup, compute outside any lock on miss, try_emplace under the
  /// unique lock (a racing thread's identical row wins ties). The
  /// returned row lives as long as the domain.
  template <typename ComputeFn>
  const std::vector<double>& LookupOrCompute(RowCache& cache,
                                             const RowKey& key,
                                             ComputeFn&& compute) const;

  const std::vector<double>& CachedWeightRow(region::RegionId r,
                                             double scale) const;
  const std::vector<double>& CachedSuffixRow(region::RegionId r,
                                             double scale) const;

  const region::RegionGraph* graph_;
  const region::RegionDistance* distance_;
  double sensitivity_override_;

  bool cache_enabled_ = true;
  mutable std::shared_mutex cache_mu_;
  mutable RowCache weight_cache_;
  mutable RowCache suffix_cache_;
};

}  // namespace trajldp::core

#endif  // TRAJLDP_CORE_NGRAM_DOMAIN_H_
