#ifndef TRAJLDP_CORE_POI_RECONSTRUCTOR_H_
#define TRAJLDP_CORE_POI_RECONSTRUCTOR_H_

#include <cstdint>

#include "common/aligned_arena.h"
#include "common/rng.h"
#include "common/status_or.h"
#include "core/reachability.h"
#include "core/time_smoother.h"
#include "model/reachability.h"
#include "model/trajectory.h"
#include "region/decomposition.h"

namespace trajldp::core {

/// \brief Collector-side POI sampling policy (§5.6), chosen once per
/// mechanism by NGramConfig::poi.policy (PoiReconstructor::Config::policy)
/// and run by every pipeline, engine and collector built from it.
///
/// Both policies draw from the SAME distribution — uniform over the
/// feasible (POI, timestep) assignments of the region sequence — and
/// differ only in how many proposals that costs
/// (tests/sampling_fidelity_test.cc holds them statistically
/// indistinguishable; docs/POI_SAMPLING.md derives why):
///
///  * kRejection — the paper's γ-retry loop: propose uniformly from the
///    per-position boxes, accept when feasible. Bit-exact legacy
///    behaviour; every draw comes from the collector stream.
///  * kGuided — propose uniformly over the *increasing-time* superset of
///    the feasible set (a per-trajectory counting DP samples the time
///    tuple exactly uniformly; POIs stay uniform per position), check
///    openness/reachability per step via the ReachabilityTable, accept
///    when feasible. Same accept region, so the accepted distribution is
///    identical, but the dominant rejection cause — unordered times — is
///    gone by construction. Guided draws live on their own substream of
///    the collector stream; when every guided attempt fails, the policy
///    falls back to the full legacy rejection loop on the *untouched*
///    collector stream, making the fallback output bit-identical to what
///    kRejection would have produced.
enum class PoiPolicy : uint8_t {
  kRejection = 0,
  kGuided = 1,
};

/// \brief POI-level trajectory reconstruction (§5.6, Figure 1 step 4).
///
/// Converts an optimal STC region sequence back into a concrete
/// (POI, timestep) trajectory: sample a candidate uniformly within each
/// region, keep it if it is feasible (strictly increasing times, every
/// POI open, consecutive points reachable), and retry up to γ times.
/// When sampling fails — the perturbed region sequence corresponds to no
/// feasible trajectory — fix one sampled sequence and smooth its
/// timesteps (TimeSmoother), exactly as the paper prescribes.
class PoiReconstructor {
 public:
  /// Substream tag separating guided-policy draws from the collector
  /// stream, so the legacy rejection draw sequence is untouched by the
  /// policy choice (and the guided→rejection fallback replays exactly).
  static constexpr uint64_t kGuidedStream = 0x677569646564ULL;  // "guided"

  /// Whole-trajectory guided proposals before the guided policy falls
  /// back to the legacy rejection loop (it must never silently give up:
  /// a world the guided proposal handles badly still gets the full
  /// γ-retry + smoothing treatment, on the rejection stream).
  static constexpr int kGuidedAttempts = 64;

  /// Per-position sampling bounds, hoisted out of the γ-retry loop: the
  /// region a position draws from never changes across attempts, so its
  /// POI list and timestep interval are resolved once per trajectory.
  struct Slot {
    const model::PoiId* pois = nullptr;
    size_t num_pois = 0;
    model::Timestep first = 0;
    model::Timestep last = 0;
  };

  /// \brief Per-thread sampling scratch: the candidate (POI, timestep)
  /// buffers every rejection-sampling attempt writes into, the hoisted
  /// per-position slots, and the guided sampler's time-counting DP
  /// tables. Reusing one workspace across users makes the γ-retry loop
  /// allocation-free (the output trajectory itself is still allocated —
  /// it is the product).
  struct Workspace {
    std::vector<model::PoiId> pois;
    std::vector<model::Timestep> times;
    std::vector<Slot> slots;
    /// Guided DP scratch: one cache-line-aligned block pair per level,
    /// windowed to that level's [first, last] timestep interval instead
    /// of the full |T| grid (levels are sparse in practice — a region
    /// covers one time stripe). level_counts[i][j] = number of strictly-
    /// increasing completions with t_i = slots[i].first + j (per-level
    /// normalised); level_suffix[i][j] = Σ_{j' ≥ j} level_counts[i][j'],
    /// one extra trailing 0 entry. Values are bit-identical to the old
    /// dense [levels × |T|] tables (the trimmed cells only ever added
    /// +0.0); only the footprint and stride change — see BuildGuidedDp.
    AlignedArena dp_arena;
    std::vector<double*> level_counts;
    std::vector<double*> level_suffix;
  };

  struct Config {
    /// γ: the retry threshold; 50,000 per §5.6 ("rarely reached").
    int gamma = 50000;
    /// Which sampler runs first. kRejection reproduces the paper's
    /// mechanism draw-for-draw; kGuided is the accelerated policy with
    /// identical output distribution (see PoiPolicy).
    PoiPolicy policy = PoiPolicy::kRejection;
  };

  /// All pointees must outlive this object. `table` may be null — the
  /// guided policy then evaluates reachability through `reach` (correct,
  /// just unaccelerated); when present it must be built from the same
  /// database and ReachabilityConfig as `reach`.
  PoiReconstructor(const region::StcDecomposition* decomp,
                   const model::Reachability* reach, Config config);
  PoiReconstructor(const region::StcDecomposition* decomp,
                   const model::Reachability* reach,
                   const ReachabilityTable* table, Config config);

  struct Result {
    model::Trajectory trajectory;
    /// Number of whole-trajectory sampling attempts used (guided
    /// proposals and rejection attempts both count).
    size_t attempts = 0;
    /// True when the smoothing fallback produced the output. Smoothed
    /// outputs guarantee time order and reachability but may leave a
    /// region's time interval (§5.6).
    bool smoothed = false;
    /// True when the guided policy exhausted its proposals (or proved no
    /// increasing time tuple exists) and ran the legacy rejection loop.
    bool guided_fallback = false;
  };

  /// Reconstructs a POI-level trajectory for `regions` under the
  /// configured policy.
  StatusOr<Result> Reconstruct(const region::RegionTrajectory& regions,
                               Rng& rng) const;

  /// Hot-path variant: all sampling scratch lives in `ws`. Draws are
  /// bit-identical to the workspace-free overload for the same Rng state.
  /// Thread-safe given one workspace and Rng per thread.
  StatusOr<Result> Reconstruct(const region::RegionTrajectory& regions,
                               Rng& rng, Workspace& ws) const;

  const Config& config() const { return config_; }
  const ReachabilityTable* table() const { return table_; }

 private:
  // Draws one candidate (pois, timesteps) uniformly from the slots.
  void SampleCandidate(const std::vector<Slot>& slots, Rng& rng,
                       std::vector<model::PoiId>* pois,
                       std::vector<model::Timestep>* times) const;

  // Fills the guided time-counting DP for `slots`. Returns false when no
  // strictly increasing time tuple exists (then neither sampler can ever
  // accept and the smoothing fallback is inevitable).
  bool BuildGuidedDp(const std::vector<Slot>& slots, Workspace& ws) const;

  // One guided proposal: exact-uniform increasing time tuple from the
  // DP, uniform POI per position, per-step openness/reachability checks.
  // Returns false when any step's check fails (the attempt is rejected).
  bool SampleGuided(const std::vector<Slot>& slots, Workspace& ws, Rng& rng,
                    std::vector<model::PoiId>* pois,
                    std::vector<model::Timestep>* times) const;

  bool ReachableBetween(model::PoiId from, model::PoiId to,
                        model::Timestep t_from, model::Timestep t_to) const {
    return table_ != nullptr
               ? table_->IsReachableBetween(from, to, t_from, t_to)
               : reach_->IsReachableBetween(from, to, t_from, t_to);
  }

  bool IsFeasible(const std::vector<model::PoiId>& pois,
                  const std::vector<model::Timestep>& times) const;

  const region::StcDecomposition* decomp_;
  const model::Reachability* reach_;
  const ReachabilityTable* table_;
  Config config_;
  TimeSmoother smoother_;
};

}  // namespace trajldp::core

#endif  // TRAJLDP_CORE_POI_RECONSTRUCTOR_H_
