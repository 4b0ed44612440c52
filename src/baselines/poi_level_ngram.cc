#include "baselines/poi_level_ngram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/stopwatch.h"
#include "core/ngram_domain.h"
#include "ldp/exponential_mechanism.h"

namespace trajldp::baselines {

using model::PoiId;
using model::Timestep;

StatusOr<PoiLevelNgramMechanism> PoiLevelNgramMechanism::Build(
    const model::PoiDatabase* db, const model::TimeDomain& time,
    Config config) {
  if (config.n < 1) {
    return Status::InvalidArgument("n must be >= 1");
  }
  TRAJLDP_RETURN_NOT_OK(
      ldp::ValidateBudget(config.epsilon, config.quality_sensitivity));

  PoiLevelNgramMechanism mech;
  mech.config_ = config;
  mech.db_ = db;
  mech.time_ = time;
  mech.distance_ = std::make_unique<model::SemanticDistance>(
      db, time, config.poi_weights);
  mech.smoother_ = std::make_unique<core::TimeSmoother>(
      db, time, config.reachability);

  // POI reachability graph under θ = speed × reference gap. Self-edges are
  // excluded: repeated consecutive venues are removed from real data
  // (§6.1.1), so they should not be producible either.
  Stopwatch watch;
  const size_t num_pois = db->size();
  mech.offsets_.assign(num_pois + 1, 0);
  std::vector<std::vector<uint32_t>> adj(num_pois);
  if (config.reachability.unconstrained()) {
    for (PoiId p = 0; p < num_pois; ++p) {
      adj[p].reserve(num_pois - 1);
      for (PoiId q = 0; q < num_pois; ++q) {
        if (q != p) adj[p].push_back(q);
      }
    }
  } else {
    const double theta = config.reachability.ReferenceThetaKm();
    for (PoiId p = 0; p < num_pois; ++p) {
      for (PoiId q : db->WithinRadiusOf(p, theta)) {
        if (q != p) adj[p].push_back(q);
      }
    }
  }
  size_t edges = 0;
  for (const auto& list : adj) edges += list.size();
  mech.targets_.reserve(edges);
  for (PoiId p = 0; p < num_pois; ++p) {
    mech.offsets_[p] = mech.targets_.size();
    mech.targets_.insert(mech.targets_.end(), adj[p].begin(), adj[p].end());
  }
  mech.offsets_[num_pois] = mech.targets_.size();
  mech.preprocessing_seconds_ = watch.ElapsedSeconds();
  return mech;
}

double PoiLevelNgramMechanism::EpsilonPerPerturbation(size_t len) const {
  const size_t n = std::min<size_t>(static_cast<size_t>(config_.n), len);
  return config_.epsilon / static_cast<double>(2 * len + n - 1);
}

StatusOr<Timestep> PoiLevelNgramMechanism::PerturbTimestep(Timestep t,
                                                           double eps,
                                                           Rng& rng) const {
  // EM over all timesteps with quality −d_t (hours, capped at 12);
  // sensitivity is the 12 h cap.
  const double delta =
      config_.quality_sensitivity > 0.0 ? config_.quality_sensitivity : 12.0;
  auto em = ldp::ExponentialMechanism::Create(eps, delta);
  if (!em.ok()) return em.status();
  const Timestep num_ts = time_.num_timesteps();
  std::vector<double> qualities(num_ts);
  for (Timestep s = 0; s < num_ts; ++s) {
    qualities[s] = -time_.TimeDistanceHours(time_.TimestepToMinute(t),
                                            time_.TimestepToMinute(s));
  }
  auto pick = em->Sample(qualities, rng);
  if (!pick.ok()) return pick.status();
  return static_cast<Timestep>(*pick);
}

StatusOr<std::vector<PoiId>> PoiLevelNgramMechanism::ReconstructPois(
    const std::vector<PoiId>& candidates, const std::vector<double>& node_error,
    size_t len) const {
  const size_t num_cand = candidates.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto err = [&](size_t i, size_t c) { return node_error[i * num_cand + c]; };
  auto mult = [&](size_t i) {
    if (len == 1) return 1.0;
    return (i == 0 || i + 1 == len) ? 1.0 : 2.0;
  };

  if (len == 1) {
    size_t best = 0;
    for (size_t c = 1; c < num_cand; ++c) {
      if (err(0, c) < err(0, best)) best = c;
    }
    return std::vector<PoiId>{candidates[best]};
  }

  std::vector<int32_t> cand_index(db_->size(), -1);
  for (size_t c = 0; c < num_cand; ++c) {
    cand_index[candidates[c]] = static_cast<int32_t>(c);
  }

  std::vector<double> dp(num_cand), next(num_cand);
  std::vector<std::vector<int32_t>> parent(
      len, std::vector<int32_t>(num_cand, -1));
  for (size_t c = 0; c < num_cand; ++c) dp[c] = mult(0) * err(0, c);
  for (size_t i = 1; i < len; ++i) {
    next.assign(num_cand, kInf);
    for (size_t cp = 0; cp < num_cand; ++cp) {
      if (dp[cp] == kInf) continue;
      for (uint32_t nb : Neighbors(candidates[cp])) {
        const int32_t c = cand_index[nb];
        if (c < 0) continue;
        const double cost = dp[cp] + mult(i) * err(i, static_cast<size_t>(c));
        if (cost < next[static_cast<size_t>(c)]) {
          next[static_cast<size_t>(c)] = cost;
          parent[i][static_cast<size_t>(c)] = static_cast<int32_t>(cp);
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
        "no feasible POI sequence over the candidate set");
  }
  std::vector<PoiId> out(len);
  size_t cur = best;
  for (size_t i = len; i-- > 0;) {
    out[i] = candidates[cur];
    if (i > 0) cur = static_cast<size_t>(parent[i][cur]);
  }
  return out;
}

StatusOr<model::Trajectory> PoiLevelNgramMechanism::Perturb(
    const model::Trajectory& input, Rng& rng,
    core::StageBreakdown* stages) const {
  TRAJLDP_RETURN_NOT_OK(input.Validate(time_));
  const size_t len = input.size();
  const size_t n = std::min<size_t>(static_cast<size_t>(config_.n), len);
  const double eps = EpsilonPerPerturbation(len);
  const size_t num_pois = db_->size();
  Stopwatch watch;

  // ---- Perturbation stage: per-point times + overlapping POI n-grams.
  std::vector<Timestep> times(len);
  for (size_t i = 0; i < len; ++i) {
    auto t = PerturbTimestep(input.point(i).t, eps, rng);
    if (!t.ok()) return t.status();
    times[i] = *t;
  }

  auto sample_ngram =
      [&](size_t a, size_t b) -> StatusOr<std::vector<uint32_t>> {
    const size_t m = b - a + 1;
    // Δd_w for this fragment: strict m × diameter, or the override.
    const double delta = config_.quality_sensitivity > 0.0
                             ? config_.quality_sensitivity
                             : static_cast<double>(m) *
                                   distance_->MaxDistance();
    const double scale = eps / (2.0 * delta);
    std::vector<std::vector<double>> weights(m);
    for (size_t k = 0; k < m; ++k) {
      const PoiId anchor = input.point(a - 1 + k).poi;
      weights[k].resize(num_pois);
      for (PoiId q = 0; q < num_pois; ++q) {
        const double s =
            config_.poi_weights.spatial * db_->DistanceKm(anchor, q);
        const double c = config_.poi_weights.category *
                         db_->category_distance().Between(
                             db_->poi(anchor).category, db_->poi(q).category);
        weights[k][q] = -std::sqrt(s * s + c * c);
      }
      for (PoiId q = 0; q < num_pois; ++q) {
        weights[k][q] = std::exp(scale * weights[k][q]);
      }
    }
    return core::SamplePathEm(
        num_pois, [this](uint32_t v) { return Neighbors(v); }, weights, rng);
  };

  struct PoiNgram {
    size_t a, b;
    std::vector<uint32_t> pois;
  };
  std::vector<PoiNgram> z;
  for (size_t a = 1; a + n - 1 <= len; ++a) {
    auto gram = sample_ngram(a, a + n - 1);
    if (!gram.ok()) return gram.status();
    z.push_back({a, a + n - 1, std::move(*gram)});
  }
  for (size_t m = 1; m < n; ++m) {
    auto prefix = sample_ngram(1, m);
    if (!prefix.ok()) return prefix.status();
    z.push_back({1, m, std::move(*prefix)});
    auto suffix = sample_ngram(len - m + 1, len);
    if (!suffix.ok()) return suffix.status();
    z.push_back({len - m + 1, len, std::move(*suffix)});
  }
  if (stages != nullptr) stages->perturb_seconds += watch.ElapsedSeconds();

  // ---- Reconstruction prep: candidate POIs (observed MBR) and node
  // errors.
  watch.Restart();
  geo::BoundingBox mbr;
  for (const PoiNgram& gram : z) {
    for (uint32_t p : gram.pois) mbr.Extend(db_->poi(p).location);
  }
  if (config_.mbr_expand_km > 0.0) mbr.ExpandByKm(config_.mbr_expand_km);
  std::vector<PoiId> candidates;
  for (PoiId p = 0; p < num_pois; ++p) {
    if (mbr.Contains(db_->poi(p).location)) candidates.push_back(p);
  }
  auto poi_distance = [&](PoiId a, PoiId b) {
    const double s = config_.poi_weights.spatial * db_->DistanceKm(a, b);
    const double c = config_.poi_weights.category *
                     db_->category_distance().Between(db_->poi(a).category,
                                                      db_->poi(b).category);
    return std::sqrt(s * s + c * c);
  };
  std::vector<double> node_error(len * candidates.size(), 0.0);
  for (const PoiNgram& gram : z) {
    for (size_t pos = gram.a; pos <= gram.b; ++pos) {
      const PoiId observed = gram.pois[pos - gram.a];
      double* row = node_error.data() + (pos - 1) * candidates.size();
      for (size_t c = 0; c < candidates.size(); ++c) {
        row[c] += poi_distance(candidates[c], observed);
      }
    }
  }
  if (stages != nullptr) {
    stages->reconstruct_prep_seconds += watch.ElapsedSeconds();
  }

  // ---- Optimal reconstruction over the candidate POIs.
  watch.Restart();
  auto pois = ReconstructPois(candidates, node_error, len);
  if (!pois.ok() &&
      pois.status().code() == StatusCode::kFailedPrecondition) {
    // Retry over the full POI set (post-processing only).
    std::vector<PoiId> all(num_pois);
    for (PoiId p = 0; p < num_pois; ++p) all[p] = p;
    std::vector<double> full_error(len * num_pois, 0.0);
    for (const PoiNgram& gram : z) {
      for (size_t pos = gram.a; pos <= gram.b; ++pos) {
        const PoiId observed = gram.pois[pos - gram.a];
        double* row = full_error.data() + (pos - 1) * num_pois;
        for (PoiId p = 0; p < num_pois; ++p) {
          row[p] += poi_distance(p, observed);
        }
      }
    }
    pois = ReconstructPois(all, full_error, len);
  }
  if (!pois.ok()) return pois.status();
  if (stages != nullptr) {
    stages->optimal_reconstruct_seconds += watch.ElapsedSeconds();
  }

  // ---- Other: attach perturbed times, smoothed into feasibility for the
  // chosen POI sequence.
  watch.Restart();
  std::sort(times.begin(), times.end());
  auto smoothed = smoother_->Smooth(*pois, times);
  if (!smoothed.ok()) return smoothed.status();
  std::vector<model::TrajectoryPoint> points(len);
  for (size_t i = 0; i < len; ++i) {
    points[i] = {(*pois)[i], (*smoothed)[i]};
  }
  if (stages != nullptr) stages->other_seconds += watch.ElapsedSeconds();
  return model::Trajectory(std::move(points));
}

}  // namespace trajldp::baselines
