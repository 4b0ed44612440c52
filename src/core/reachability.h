#ifndef TRAJLDP_CORE_REACHABILITY_H_
#define TRAJLDP_CORE_REACHABILITY_H_

#include <cstdint>
#include <vector>

#include "common/status_or.h"
#include "model/poi_database.h"
#include "model/reachability.h"
#include "model/time_domain.h"

namespace trajldp::core {

/// \brief Precomputed POI-pair reachability for every time budget.
///
/// model::Reachability answers "can q be reached from p within a gap of
/// g timesteps?" with a haversine distance per query. This table folds
/// the whole predicate into public pre-processing, built once per world
/// and shared read-only across every collector thread. The guided POI
/// policy reads it; the rejection loop needs only the pairs of one
/// user's regions and memoises those per user instead (PoiReconstructor).
///
///  * **min-gap matrix** — for every ordered POI pair (p, q), the
///    smallest timestep budget g ≥ 1 such that q is reachable from p
///    within g timesteps (`kNever` when no same-day budget suffices).
///    Because θ(gap) = speed × gap is monotone in the gap, the single
///    `uint16_t` answers every time budget: reachable(p, q, g) ⇔
///    min_gap(p, q) ≤ g. One load + compare replaces the haversine.
///    Each entry is model::MinReachableGap, which makes the formula's
///    own ≤ comparison, so lookups are **exactly** equivalent to the
///    formula for every integer gap.
///
/// Memory (see docs/POI_SAMPLING.md): 2·P² bytes for the matrix. A
/// matrix over `max_bytes` fails the build with kResourceExhausted.
class ReachabilityTable {
 public:
  /// Sentinel min-gap: unreachable within any same-day time budget.
  static constexpr uint16_t kNever = model::kUnreachableGap;

  struct Options {
    /// Upper bound on the matrix's memory. Default 1 GiB (P ≈ 23k POIs).
    size_t max_bytes = size_t{1} << 30;
  };

  /// Builds the table for every POI pair in `db`. O(P²) haversines;
  /// pure public pre-processing.
  static StatusOr<ReachabilityTable> Build(const model::PoiDatabase& db,
                                           const model::TimeDomain& time,
                                           model::ReachabilityConfig config,
                                           Options options);
  static StatusOr<ReachabilityTable> Build(const model::PoiDatabase& db,
                                           const model::TimeDomain& time,
                                           model::ReachabilityConfig config) {
    return Build(db, time, config, Options());
  }

  /// θ = ∞: every pair reachable under every budget; no storage.
  bool unconstrained() const { return unconstrained_; }

  size_t num_pois() const { return num_pois_; }
  model::Timestep num_timesteps() const { return num_timesteps_; }
  const model::ReachabilityConfig& config() const { return config_; }

  /// Smallest timestep budget g ∈ [1, |T|] under which `to` is reachable
  /// from `from` (kNever when none up to |T| is — same-day gaps never
  /// exceed |T| − 1, so lookups are exact on the library's whole domain;
  /// budgets beyond |T| saturate to the |T| answer. 1 when
  /// unconstrained).
  uint16_t MinGapTimesteps(model::PoiId from, model::PoiId to) const {
    if (unconstrained_) return 1;
    return min_gap_[static_cast<size_t>(from) * num_pois_ + to];
  }

  /// Exactly model::Reachability::IsReachable(from, to, g·g_t) for every
  /// integer budget g (in timesteps).
  bool IsReachable(model::PoiId from, model::PoiId to,
                   model::Timestep gap_timesteps) const {
    if (unconstrained_) return true;
    if (gap_timesteps <= 0) return false;
    return MinGapTimesteps(from, to) <= gap_timesteps;
  }

  /// Exactly model::Reachability::IsReachableBetween(from, to, a, b).
  bool IsReachableBetween(model::PoiId from, model::PoiId to,
                          model::Timestep t_from,
                          model::Timestep t_to) const {
    return IsReachable(from, to, t_to - t_from);
  }

  /// Bytes held by the matrix (the docs' memory-cost formula,
  /// evaluated).
  size_t MemoryBytes() const { return min_gap_.size() * sizeof(uint16_t); }

 private:
  ReachabilityTable() = default;

  bool unconstrained_ = false;
  size_t num_pois_ = 0;
  model::Timestep num_timesteps_ = 0;
  model::ReachabilityConfig config_;
  /// min_gap_[from * P + to]; uint16 (|T| ≤ 1440 < kNever).
  std::vector<uint16_t> min_gap_;
};

}  // namespace trajldp::core

#endif  // TRAJLDP_CORE_REACHABILITY_H_
