#include "core/global_mechanism.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_map>

#include "ldp/exponential_mechanism.h"
#include "ldp/permute_and_flip.h"
#include "ldp/subsampled_em.h"

namespace trajldp::core {

using model::PoiId;
using model::Timestep;

GlobalMechanism::GlobalMechanism(const model::PoiDatabase* db,
                                 const model::TimeDomain& time, Config config)
    : db_(db),
      time_(time),
      config_(config),
      reach_(db, time, config.reachability),
      distance_(db, time) {}

StatusOr<GlobalMechanism> GlobalMechanism::Create(
    const model::PoiDatabase* db, const model::TimeDomain& time,
    Config config) {
  TRAJLDP_RETURN_NOT_OK(
      ldp::ValidateBudget(config.epsilon, config.quality_sensitivity));
  if (config.max_candidates == 0) {
    return Status::InvalidArgument("max_candidates must be positive");
  }
  return GlobalMechanism(db, time, config);
}

StatusOr<std::vector<model::Trajectory>> GlobalMechanism::EnumerateCandidates(
    size_t length) const {
  if (length == 0) {
    return Status::InvalidArgument("trajectory length must be positive");
  }
  std::vector<model::Trajectory> out;
  std::vector<model::TrajectoryPoint> prefix;
  Status overflow = Status::Ok();

  // Depth-first enumeration over (timestep, POI) choices. Opening hours
  // and reachability prune branches; the cap aborts the whole walk.
  auto recurse = [&](auto&& self, size_t depth, Timestep min_t) -> bool {
    if (depth == length) {
      if (out.size() >= config_.max_candidates) {
        overflow = Status::ResourceExhausted(
            "|S| exceeds max_candidates; the global solution is infeasible "
            "for this domain (§5.1)");
        return false;
      }
      out.emplace_back(prefix);
      return true;
    }
    // The remaining points need at least (length - depth - 1) later steps.
    const Timestep last_t =
        time_.num_timesteps() - static_cast<Timestep>(length - depth);
    for (Timestep t = min_t; t <= last_t; ++t) {
      const int minute = time_.TimestepToMinute(t);
      for (PoiId p = 0; p < db_->size(); ++p) {
        if (!db_->poi(p).hours.IsOpenAtMinute(minute)) continue;
        if (depth > 0) {
          const model::TrajectoryPoint& prev = prefix.back();
          if (!reach_.IsReachableBetween(prev.poi, p, prev.t, t)) continue;
        }
        prefix.push_back({p, t});
        const bool keep_going = self(self, depth + 1, t + 1);
        prefix.pop_back();
        if (!keep_going) return false;
      }
    }
    return true;
  };
  recurse(recurse, 0, 0);
  if (!overflow.ok()) return overflow;
  return out;
}

double GlobalMechanism::CountCandidates(size_t length) const {
  if (length == 0) return 0.0;
  // count[k][(p, t)] = number of feasible suffixes of length k that start
  // at POI p, timestep t. Memoised bottom-up over k.
  //
  // The naive recurrence re-tests reachability P times per (p, t, t2)
  // triple — O(L·P²·T²) haversine evaluations. Three observations fix it:
  //  1. d_s(p, q) never changes: hoist all pair distances into one sorted
  //     adjacency per p (distance-ascending POI order), computed once.
  //  2. θ(gap) is non-decreasing in the gap, so for growing t2 the
  //     reachable set of p is a growing *prefix* of that sorted order —
  //     a two-pointer sweep replaces every per-pair test.
  //  3. Once θ(gap) ≥ max_q d_s(p, q) every POI is reachable and the
  //     inner sum collapses to a precomputed suffix column sum.
  // Counts are integers (exactly representable as doubles), so regrouping
  // the summation order leaves the result bit-identical.
  const size_t num_pois = db_->size();
  const size_t num_ts = static_cast<size_t>(time_.num_timesteps());
  std::vector<double> count(num_pois * num_ts, 0.0);
  std::vector<bool> open(num_pois * num_ts, false);
  for (PoiId p = 0; p < num_pois; ++p) {
    for (size_t t = 0; t < num_ts; ++t) {
      open[p * num_ts + t] = db_->poi(p).hours.IsOpenAtMinute(
          time_.TimestepToMinute(static_cast<Timestep>(t)));
      count[p * num_ts + t] = open[p * num_ts + t] ? 1.0 : 0.0;
    }
  }
  if (length == 1) {
    double total = 0.0;
    for (double c : count) total += c;
    return total;
  }

  const bool unconstrained = config_.reachability.unconstrained();
  // Each POI's distance-sorted neighbour row is invariant across the k
  // rounds. Keep all P rows when the P × P table stays modest (≤ ~64 MB);
  // past that, recompute one row per (k, p) so memory stays O(P) instead
  // of quadratic.
  constexpr size_t kMaxCachedPairs = size_t{1} << 22;
  const bool cache_rows =
      !unconstrained && num_pois * num_pois <= kMaxCachedPairs;
  std::vector<PoiId> order(num_pois);
  std::vector<double> dist(num_pois);
  std::vector<double> d(num_pois);
  const auto sort_row = [&](PoiId p, std::span<PoiId> order_out,
                            std::span<double> dist_out) {
    for (PoiId q = 0; q < num_pois; ++q) d[q] = db_->DistanceKm(p, q);
    for (PoiId q = 0; q < num_pois; ++q) order_out[q] = q;
    std::sort(order_out.begin(), order_out.end(), [&](PoiId a, PoiId b) {
      return d[a] != d[b] ? d[a] < d[b] : a < b;
    });
    for (size_t j = 0; j < num_pois; ++j) dist_out[j] = d[order_out[j]];
  };
  std::vector<PoiId> all_order;
  std::vector<double> all_dist;
  if (cache_rows) {
    all_order.resize(num_pois * num_pois);
    all_dist.resize(num_pois * num_pois);
    for (PoiId p = 0; p < num_pois; ++p) {
      sort_row(p, {all_order.data() + p * num_pois, num_pois},
               {all_dist.data() + p * num_pois, num_pois});
    }
  }

  std::vector<double> next(num_pois * num_ts, 0.0);
  std::vector<double> colsum(num_ts + 1, 0.0);    // Σ_q count[q][t2]
  std::vector<double> colsuffix(num_ts + 1, 0.0); // Σ_{t2' ≥ t2} colsum
  for (size_t k = 2; k <= length; ++k) {
    for (size_t t2 = 0; t2 < num_ts; ++t2) {
      double c = 0.0;
      for (PoiId q = 0; q < num_pois; ++q) c += count[q * num_ts + t2];
      colsum[t2] = c;
    }
    colsuffix[num_ts] = 0.0;
    for (size_t t2 = num_ts; t2-- > 0;) {
      colsuffix[t2] = colsuffix[t2 + 1] + colsum[t2];
    }

    std::fill(next.begin(), next.end(), 0.0);
    for (PoiId p = 0; p < num_pois; ++p) {
      std::span<const PoiId> p_order(order);
      std::span<const double> p_dist(dist);
      if (cache_rows) {
        p_order = {all_order.data() + p * num_pois, num_pois};
        p_dist = {all_dist.data() + p * num_pois, num_pois};
      } else if (!unconstrained) {
        sort_row(p, order, dist);
      }
      const double max_dist = unconstrained ? 0.0 : p_dist.back();
      for (size_t t = 0; t < num_ts; ++t) {
        if (!open[p * num_ts + t]) continue;
        if (unconstrained) {
          next[p * num_ts + t] = colsuffix[t + 1];
          continue;
        }
        double total = 0.0;
        size_t prefix = 0;  // |{j : dist[p][j] ≤ θ(gap)}|, grows with t2
        for (size_t t2 = t + 1; t2 < num_ts; ++t2) {
          const int gap = time_.GapMinutes(static_cast<Timestep>(t),
                                           static_cast<Timestep>(t2));
          if (gap <= 0) continue;
          const double theta = config_.reachability.ThetaKm(gap);
          if (theta >= max_dist) {
            // Everything is reachable from here on out (θ only grows):
            // finish with the precomputed suffix sums.
            total += colsuffix[t2];
            break;
          }
          while (prefix < num_pois && p_dist[prefix] <= theta) ++prefix;
          for (size_t j = 0; j < prefix; ++j) {
            total += count[p_order[j] * num_ts + t2];
          }
        }
        next[p * num_ts + t] = total;
      }
    }
    std::swap(count, next);
  }
  double total = 0.0;
  for (double c : count) total += c;
  return total;
}

StatusOr<model::Trajectory> GlobalMechanism::Perturb(
    const model::Trajectory& input, Rng& rng) const {
  TRAJLDP_RETURN_NOT_OK(input.Validate(time_));
  auto candidates = EnumerateCandidates(input.size());
  if (!candidates.ok()) return candidates.status();
  if (candidates->empty()) {
    return Status::FailedPrecondition("S is empty for this length");
  }

  // Quality = −d_τ; sensitivity = |τ| · (per-point diameter) unless
  // overridden (paper calibration).
  const double sensitivity =
      config_.quality_sensitivity > 0.0
          ? config_.quality_sensitivity
          : static_cast<double>(input.size()) * distance_.MaxDistance();
  std::vector<double> qualities(candidates->size());
  for (size_t i = 0; i < candidates->size(); ++i) {
    qualities[i] = -distance_.BetweenTrajectories(input, (*candidates)[i]);
  }

  size_t chosen = 0;
  switch (config_.sampler) {
    case Sampler::kExponential: {
      auto em = ldp::ExponentialMechanism::Create(config_.epsilon,
                                                  sensitivity);
      if (!em.ok()) return em.status();
      auto pick = em->Sample(qualities, rng);
      if (!pick.ok()) return pick.status();
      chosen = *pick;
      break;
    }
    case Sampler::kPermuteAndFlip: {
      auto pf = ldp::PermuteAndFlip::Create(config_.epsilon, sensitivity);
      if (!pf.ok()) return pf.status();
      auto pick = pf->Sample(qualities, rng);
      if (!pick.ok()) return pick.status();
      chosen = *pick;
      break;
    }
    case Sampler::kSubsampledEm: {
      auto sem = ldp::SubsampledEm::Create(config_.epsilon, sensitivity,
                                           config_.subsample_size);
      if (!sem.ok()) return sem.status();
      auto pick = sem->Sample(
          qualities.size(), [&](size_t i) { return qualities[i]; }, rng);
      if (!pick.ok()) return pick.status();
      chosen = *pick;
      break;
    }
  }
  return (*candidates)[chosen];
}

double GlobalMechanism::UtilityBound(size_t length, double zeta) const {
  const double size = CountCandidates(length);
  const double sensitivity =
      config_.quality_sensitivity > 0.0
          ? config_.quality_sensitivity
          : static_cast<double>(length) * distance_.MaxDistance();
  return 2.0 * sensitivity / config_.epsilon * (std::log(size) + zeta);
}

}  // namespace trajldp::core
