#ifndef TRAJLDP_CORE_POI_RECONSTRUCTOR_H_
#define TRAJLDP_CORE_POI_RECONSTRUCTOR_H_

#include <cstdint>
#include <vector>

#include "common/aligned_arena.h"
#include "common/rng.h"
#include "common/status_or.h"
#include "core/time_smoother.h"
#include "model/reachability.h"
#include "model/trajectory.h"
#include "region/decomposition.h"

namespace trajldp::core {

/// \brief POI-level trajectory reconstruction (§5.6, Figure 1 step 4).
///
/// Converts an optimal STC region sequence back into a concrete
/// (POI, timestep) trajectory drawn uniformly from its feasible set F: the
/// assignments from the regions' POI × timestep boxes whose times strictly
/// increase, whose POIs are open, and whose consecutive points are
/// reachable. One path, every draw from the caller's collector stream:
///
///  1. up to kGuidedAttempts proposals, each uniform over the assignments
///     with increasing times (a counting DP over timesteps draws the time
///     tuple; POIs are uniform per position), accepted when feasible;
///  2. when all of them fail, a counting DP over (position, POI, timestep)
///     states either proves F empty or draws one member of F uniformly.
///
/// An accepted proposal and a DP draw are both uniform over F, so every
/// release whose F is not empty follows §5.6's target law, with no retry
/// cap. Only when F is empty is one sequence drawn from the boxes and its
/// timesteps smoothed (TimeSmoother), as the paper prescribes
/// (docs/POI_SAMPLING.md).
class PoiReconstructor {
 public:
  /// Proposals before the DP. On the lattice one or two are accepted, so
  /// its users never pay for the DP (about 50 µs each, 20× the stage).
  static constexpr int kGuidedAttempts = 64;

  /// Per-position sampling bounds, resolved once per trajectory: the
  /// region's POI list and timestep window.
  struct Slot {
    const model::PoiId* pois = nullptr;
    size_t num_pois = 0;
    model::Timestep first = 0;
    model::Timestep last = 0;
    /// Window width, last − first + 1.
    uint64_t num_times = 0;
    /// Start of the (previous slot's POI, this slot's POI) block in
    /// Workspace::min_gaps; unused for the first slot.
    size_t memo_offset = 0;
    /// Start of this slot's num_pois × num_times block in
    /// Workspace::prefix.
    size_t prefix_offset = 0;
  };

  /// \brief Per-thread sampling scratch: the candidate (POI, timestep)
  /// buffers, the hoisted slots, the per-user min-gap memo, and both
  /// counting DPs' tables. Reusing one workspace across users keeps the
  /// stage allocation-free once the buffers reach steady state (the
  /// output trajectory itself is still allocated — it is the product).
  struct Workspace {
    std::vector<model::PoiId> pois;
    std::vector<model::Timestep> times;
    std::vector<Slot> slots;
    /// Min-gap memo of the user's consecutive POI pairs: entry
    /// slots[i].memo_offset + j · slots[i].num_pois + k holds
    /// model::MinReachableGap between POI j of slot i − 1 and POI k of
    /// slot i, or 0 until first use. Σ_i |P(r_{i−1})| · |P(r_i)| entries,
    /// sized once per user and read by the proposals and the DP alike.
    std::vector<uint16_t> min_gaps;
    /// Exact DP: entry slots[i].prefix_offset + k · num_times + (t − first)
    /// holds S_i(k, t), the number of feasible prefixes of positions
    /// 0..i that end at POI k of slot i at some timestep ≤ t, scaled per
    /// position by a power of two (see CountDp). Grown, never shrunk.
    std::vector<double> prefix;
    /// Proposal DP scratch: one cache-line-aligned block pair per level,
    /// windowed to that level's [first, last] timestep interval.
    /// level_counts[i][j] = number of strictly increasing completions
    /// with t_i = slots[i].first + j (rescaled per level);
    /// level_suffix[i][j] = Σ_{j' ≥ j} level_counts[i][j'], one extra
    /// trailing 0 entry. See BuildGuidedDp.
    AlignedArena dp_arena;
    std::vector<double*> level_counts;
    std::vector<double*> level_suffix;
  };

  /// All pointees must outlive this object.
  PoiReconstructor(const region::StcDecomposition* decomp,
                   const model::Reachability* reach);

  struct Result {
    model::Trajectory trajectory;
    /// Proposals made, plus one when the DP drew the trajectory.
    size_t attempts = 0;
    /// True when F is empty and the smoothing fallback produced the
    /// output. Smoothed outputs guarantee time order and reachability but
    /// may leave a region's time interval (§5.6).
    bool smoothed = false;
  };

  /// Reconstructs a POI-level trajectory for `regions`.
  StatusOr<Result> Reconstruct(const region::RegionTrajectory& regions,
                               Rng& rng) const;

  /// Hot-path variant: all sampling scratch lives in `ws`. Draws are
  /// bit-identical to the workspace-free overload for the same Rng state.
  /// Thread-safe given one workspace and Rng per thread.
  StatusOr<Result> Reconstruct(const region::RegionTrajectory& regions,
                               Rng& rng, Workspace& ws) const;

  /// |F| by the exact DP: 0 exactly when F is empty, exact below 2^53,
  /// +∞ past the range of a double.
  StatusOr<double> CountFeasible(const region::RegionTrajectory& regions,
                                 Workspace& ws) const;

  /// The DP draw alone, as Reconstruct runs it once every proposal has
  /// failed: one member of F, uniformly. FailedPrecondition when F is
  /// empty.
  StatusOr<model::Trajectory> DrawFeasible(
      const region::RegionTrajectory& regions, Rng& rng,
      Workspace& ws) const;

 private:
  // Checks `regions` and hoists their slots into `ws`, sizing the memo.
  Status Prepare(const region::RegionTrajectory& regions,
                 Workspace& ws) const;

  // Draws one candidate (pois, timesteps) uniformly from the slots' boxes.
  void SampleCandidate(const std::vector<Slot>& slots, Rng& rng,
                       std::vector<model::PoiId>* pois,
                       std::vector<model::Timestep>* times) const;

  // Fills the proposal DP for `slots`. Returns false when no strictly
  // increasing time tuple exists (then no proposal can be made).
  bool BuildGuidedDp(const std::vector<Slot>& slots, Workspace& ws) const;

  // One proposal: exact-uniform increasing time tuple from the DP,
  // uniform POI per position, per-step openness/reachability checks.
  // Returns false when any step's check fails (the proposal is rejected).
  bool SampleGuided(const std::vector<Slot>& slots, Workspace& ws, Rng& rng,
                    std::vector<model::PoiId>* pois,
                    std::vector<model::Timestep>* times) const;

  // Fills ws.prefix for ws.slots and returns |F|, stopping at the first
  // position with no feasible prefix.
  double CountDp(Workspace& ws) const;

  // After a positive CountDp: draws one member of F uniformly, backwards,
  // into ws.pois / ws.times.
  void DrawDp(Workspace& ws, Rng& rng) const;

  // Memoised model::MinReachableGap from POI j of slot i − 1 to POI k of
  // slot i.
  uint16_t MinGap(const std::vector<Slot>& slots, size_t i, size_t j,
                  size_t k, Workspace& ws) const {
    const Slot& slot = slots[i];
    uint16_t& gap = ws.min_gaps[slot.memo_offset + j * slot.num_pois + k];
    if (gap == 0) gap = reach_->MinGapTimesteps(slots[i - 1].pois[j],
                                                slot.pois[k]);
    return gap;
  }

  const region::StcDecomposition* decomp_;
  const model::Reachability* reach_;
  TimeSmoother smoother_;
};

}  // namespace trajldp::core

#endif  // TRAJLDP_CORE_POI_RECONSTRUCTOR_H_
