#ifndef TRAJLDP_BENCH_SEED_REPLICA_H_
#define TRAJLDP_BENCH_SEED_REPLICA_H_

// Faithful replicas of the pre-optimisation ("seed") per-user pipeline,
// kept as the fixed baseline the perf benches regress against:
//
//  * SeedPerturb      — per-call O(R) distance row + exp() weight row per
//    n-gram slot per draw, heap-allocated backward-recursion tables, and
//    std::function dispatch in the sampler (pre weight-row-cache /
//    SamplerWorkspace).
//  * SeedBuildProblem — node-error table filled with exact double
//    RegionDistance::Between() calls, i.e. a haversine + category-tree
//    walk per (candidate, observed) pair (pre float-table gather), plus a
//    freshly allocated candidate list per user.
//  * SeedViterbi      — the DP solver with per-call vector-of-vectors
//    parent tables and a fresh region→candidate index map per user
//    (pre ViterbiWorkspace).
//  * SeedPoiReconstructor — the paper's §5.6 loop: uniform candidates
//    from the regions' boxes, accepted when feasible, γ = 50,000 tries
//    before smoothing. It is also the reference of bench_batch_e2e's POI
//    stage gate.
//
// These deliberately reproduce the allocation and recomputation behaviour
// of the seed library; do not "fix" them.

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status_or.h"
#include "core/ngram.h"
#include "core/time_smoother.h"
#include "model/reachability.h"
#include "model/trajectory.h"
#include "region/decomposition.h"
#include "region/region_distance.h"
#include "region/region_graph.h"
#include "region/region_index.h"

namespace trajldp::bench {

// Replica of the seed SamplePathEm: per-call vector-of-vectors beta
// tables and std::function neighbour dispatch.
inline StatusOr<std::vector<uint32_t>> SeedSamplePathEm(
    size_t num_nodes,
    const std::function<std::span<const uint32_t>(uint32_t)>& neighbors,
    const std::vector<std::vector<double>>& weights, Rng& rng) {
  const size_t n = weights.size();
  std::vector<std::vector<double>> beta(n);
  beta[n - 1] = weights[n - 1];
  for (size_t k = n - 1; k-- > 0;) {
    beta[k].assign(num_nodes, 0.0);
    for (uint32_t v = 0; v < num_nodes; ++v) {
      double suffix = 0.0;
      for (uint32_t u : neighbors(v)) suffix += beta[k + 1][u];
      beta[k][v] = weights[k][v] * suffix;
    }
  }
  std::vector<uint32_t> out(n);
  {
    const size_t pick = rng.Discrete(beta[0]);
    if (pick >= num_nodes) {
      return Status::FailedPrecondition("no feasible walk");
    }
    out[0] = static_cast<uint32_t>(pick);
  }
  for (size_t k = 1; k < n; ++k) {
    const auto adj = neighbors(out[k - 1]);
    std::vector<double> local(adj.size());
    for (size_t j = 0; j < adj.size(); ++j) local[j] = beta[k][adj[j]];
    const size_t pick = rng.Discrete(local);
    if (pick >= adj.size()) {
      return Status::Internal("inconsistent backward weights");
    }
    out[k] = adj[pick];
  }
  return out;
}

// Replica of the seed NgramDomain::Sample: recomputes the full distance
// row and the exp() weight row for every n-gram slot of every draw.
inline StatusOr<std::vector<region::RegionId>> SeedSample(
    const region::RegionGraph& graph, const region::RegionDistance& distance,
    const std::vector<region::RegionId>& input, double epsilon, Rng& rng) {
  const int n = static_cast<int>(input.size());
  const size_t num_regions = graph.num_regions();
  const double sensitivity = static_cast<double>(n) * distance.MaxDistance();
  const double scale = epsilon / (2.0 * sensitivity);
  std::vector<std::vector<double>> weight(n);
  for (int k = 0; k < n; ++k) {
    std::vector<double> d(num_regions);
    for (region::RegionId r = 0; r < num_regions; ++r) {
      d[r] = distance.Between(input[k], r);
    }
    weight[k].resize(num_regions);
    for (size_t r = 0; r < num_regions; ++r) {
      weight[k][r] = std::exp(-scale * d[r]);
    }
  }
  auto result = SeedSamplePathEm(
      num_regions, [&graph](uint32_t v) { return graph.Neighbors(v); },
      weight, rng);
  if (!result.ok()) return result.status();
  return std::vector<region::RegionId>(result->begin(), result->end());
}

// Replica of the seed NgramPerturber::Perturb (per-n-gram input copies).
inline StatusOr<core::PerturbedNgramSet> SeedPerturb(
    const region::RegionGraph& graph, const region::RegionDistance& distance,
    const region::RegionTrajectory& tau, int config_n, double epsilon,
    Rng& rng) {
  const size_t len = tau.size();
  const size_t n = std::min<size_t>(static_cast<size_t>(config_n), len);
  const double eps_prime = epsilon / static_cast<double>(len + n - 1);
  core::PerturbedNgramSet z;
  z.reserve(len + n - 1);
  for (size_t a = 1; a + n - 1 <= len; ++a) {
    const size_t b = a + n - 1;
    std::vector<region::RegionId> input(
        tau.begin() + static_cast<ptrdiff_t>(a - 1),
        tau.begin() + static_cast<ptrdiff_t>(b));
    auto sampled = SeedSample(graph, distance, input, eps_prime, rng);
    if (!sampled.ok()) return sampled.status();
    z.push_back(core::PerturbedNgram{a, b, std::move(*sampled)});
  }
  for (size_t m = 1; m < n; ++m) {
    {
      std::vector<region::RegionId> input(
          tau.begin(), tau.begin() + static_cast<ptrdiff_t>(m));
      auto sampled = SeedSample(graph, distance, input, eps_prime, rng);
      if (!sampled.ok()) return sampled.status();
      z.push_back(core::PerturbedNgram{1, m, std::move(*sampled)});
    }
    {
      const size_t a = len - m + 1;
      std::vector<region::RegionId> input(
          tau.begin() + static_cast<ptrdiff_t>(a - 1), tau.end());
      auto sampled = SeedSample(graph, distance, input, eps_prime, rng);
      if (!sampled.ok()) return sampled.status();
      z.push_back(core::PerturbedNgram{a, len, std::move(*sampled)});
    }
  }
  return z;
}

// Replica of the seed ReconstructionProblem: candidate list + node-error
// table built with exact double Between() calls, fresh per user.
struct SeedProblem {
  size_t len = 0;
  std::vector<region::RegionId> candidates;
  /// Row-major [len][candidates].
  std::vector<double> node_error;

  double Multiplicity(size_t i) const {
    if (len == 1) return 1.0;
    return (i == 0 || i + 1 == len) ? 1.0 : 2.0;
  }
};

inline SeedProblem SeedBuildProblem(const region::RegionDistance& distance,
                                    size_t len,
                                    const core::PerturbedNgramSet& z,
                                    std::vector<region::RegionId> candidates) {
  SeedProblem problem;
  problem.len = len;
  problem.candidates = std::move(candidates);
  const size_t num_cand = problem.candidates.size();
  problem.node_error.assign(len * num_cand, 0.0);
  for (const core::PerturbedNgram& gram : z) {
    for (size_t pos = gram.a; pos <= gram.b; ++pos) {
      const region::RegionId observed = gram.RegionAt(pos);
      double* row = problem.node_error.data() + (pos - 1) * num_cand;
      for (size_t c = 0; c < num_cand; ++c) {
        row[c] += distance.Between(problem.candidates[c], observed);
      }
    }
  }
  return problem;
}

// Replica of the seed ViterbiReconstructor: fresh cand_index / dp /
// vector-of-vectors parent per call.
inline StatusOr<region::RegionTrajectory> SeedViterbi(
    const region::RegionGraph& graph, const SeedProblem& problem) {
  const size_t len = problem.len;
  const auto& candidates = problem.candidates;
  const size_t num_cand = candidates.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto node_error = [&](size_t i, size_t c) {
    return problem.node_error[i * num_cand + c];
  };

  if (len == 1) {
    size_t best = 0;
    for (size_t c = 1; c < num_cand; ++c) {
      if (node_error(0, c) < node_error(0, best)) best = c;
    }
    return region::RegionTrajectory{candidates[best]};
  }

  const size_t num_regions = graph.num_regions();
  std::vector<int32_t> cand_index(num_regions, -1);
  for (size_t c = 0; c < num_cand; ++c) {
    cand_index[candidates[c]] = static_cast<int32_t>(c);
  }

  std::vector<double> dp(num_cand), next(num_cand);
  std::vector<std::vector<int32_t>> parent(
      len, std::vector<int32_t>(num_cand, -1));
  for (size_t c = 0; c < num_cand; ++c) {
    dp[c] = problem.Multiplicity(0) * node_error(0, c);
  }
  for (size_t i = 1; i < len; ++i) {
    next.assign(num_cand, kInf);
    for (size_t c_prev = 0; c_prev < num_cand; ++c_prev) {
      if (dp[c_prev] == kInf) continue;
      for (region::RegionId nb : graph.Neighbors(candidates[c_prev])) {
        const int32_t c = cand_index[nb];
        if (c < 0) continue;
        const double cost =
            dp[c_prev] + problem.Multiplicity(i) *
                             node_error(i, static_cast<size_t>(c));
        if (cost < next[static_cast<size_t>(c)]) {
          next[static_cast<size_t>(c)] = cost;
          parent[i][static_cast<size_t>(c)] = static_cast<int32_t>(c_prev);
        }
      }
    }
    dp.swap(next);
  }

  size_t best = num_cand;
  double best_cost = kInf;
  for (size_t c = 0; c < num_cand; ++c) {
    if (dp[c] < best_cost) {
      best_cost = dp[c];
      best = c;
    }
  }
  if (best == num_cand) {
    return Status::FailedPrecondition(
        "no feasible region sequence exists over the candidate set");
  }
  region::RegionTrajectory out(len);
  size_t cur = best;
  for (size_t i = len; i-- > 0;) {
    out[i] = candidates[cur];
    if (i > 0) cur = static_cast<size_t>(parent[i][cur]);
  }
  return out;
}

// Replica of the seed PoiReconstructor (uniform rejection path): region
// lookups and timestep conversions inside every attempt, fresh candidate
// vectors per call — pre slot-hoisting and pre workspace.
class SeedPoiReconstructor {
 public:
  /// The paper's retry cap γ (§5.6).
  static constexpr int kGamma = 50000;

  SeedPoiReconstructor(const region::StcDecomposition* decomp,
                       const model::Reachability* reach)
      : decomp_(decomp),
        reach_(reach),
        smoother_(&decomp->db(), decomp->time(), reach->config()) {}

  StatusOr<model::Trajectory> Reconstruct(
      const region::RegionTrajectory& regions, Rng& rng) const {
    std::vector<model::PoiId> pois;
    std::vector<model::Timestep> times;
    for (int attempt = 0; attempt < kGamma; ++attempt) {
      SampleCandidate(regions, rng, &pois, &times);
      if (IsFeasible(pois, times)) {
        std::vector<model::TrajectoryPoint> pts(regions.size());
        for (size_t i = 0; i < pts.size(); ++i) {
          pts[i] = {pois[i], times[i]};
        }
        return model::Trajectory(std::move(pts));
      }
    }
    SampleCandidate(regions, rng, &pois, &times);
    std::sort(times.begin(), times.end());
    auto smoothed = smoother_.Smooth(pois, times);
    if (!smoothed.ok()) return smoothed.status();
    std::vector<model::TrajectoryPoint> pts(regions.size());
    for (size_t i = 0; i < pts.size(); ++i) {
      pts[i] = {pois[i], (*smoothed)[i]};
    }
    return model::Trajectory(std::move(pts));
  }

 private:
  void SampleCandidate(const region::RegionTrajectory& regions, Rng& rng,
                       std::vector<model::PoiId>* pois,
                       std::vector<model::Timestep>* times) const {
    const model::TimeDomain& time = decomp_->time();
    pois->resize(regions.size());
    times->resize(regions.size());
    for (size_t i = 0; i < regions.size(); ++i) {
      const region::StcRegion& r = decomp_->region(regions[i]);
      (*pois)[i] = r.pois[rng.UniformUint64(r.pois.size())];
      const model::Timestep first = time.MinuteToTimestep(r.time.begin);
      const model::Timestep last = time.MinuteToTimestep(r.time.end - 1);
      (*times)[i] = first + static_cast<model::Timestep>(
                                rng.UniformUint64(last - first + 1));
    }
  }

  bool IsFeasible(const std::vector<model::PoiId>& pois,
                  const std::vector<model::Timestep>& times) const {
    const model::TimeDomain& time = decomp_->time();
    for (size_t i = 0; i < pois.size(); ++i) {
      if (i > 0 && times[i] <= times[i - 1]) return false;
      const int minute = time.TimestepToMinute(times[i]);
      if (!decomp_->db().poi(pois[i]).hours.IsOpenAtMinute(minute)) {
        return false;
      }
      if (i > 0 && !reach_->IsReachableBetween(pois[i - 1], pois[i],
                                               times[i - 1], times[i])) {
        return false;
      }
    }
    return true;
  }

  const region::StcDecomposition* decomp_;
  const model::Reachability* reach_;
  core::TimeSmoother smoother_;
};

}  // namespace trajldp::bench

#endif  // TRAJLDP_BENCH_SEED_REPLICA_H_
