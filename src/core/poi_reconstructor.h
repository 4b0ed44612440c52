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
///    openness/reachability per step against the per-user min-gap memo
///    the rejection loop also reads, accept when feasible. Same accept
///    region, so the accepted distribution is identical, but the dominant
///    rejection cause — unordered times — is gone by construction. Guided
///    draws live on their own substream of the collector stream; when
///    every guided attempt fails, the policy falls back to the full legacy
///    rejection loop on the *untouched* collector stream, making the
///    fallback output bit-identical to what kRejection would have
///    produced.
enum class PoiPolicy : uint8_t {
  kRejection = 0,
  kGuided = 1,
};

/// \brief Why the §5.6 smoothing fallback produced a release.
enum class SmoothingCause : uint8_t {
  /// Not smoothed: a sampled candidate was accepted.
  kNone = 0,
  /// The feasible set F is empty: no (POI, timestep) assignment of the
  /// region sequence meets time order, opening hours and reachability,
  /// so no number of attempts could have succeeded.
  kEmptyFeasibleSet = 1,
  /// F is not empty, but γ attempts missed it.
  kRetryCap = 2,
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
///
/// The retry loop pays only for what its output depends on, with every
/// release, attempt count and generator end state equal to the paper
/// loop's (docs/POI_SAMPLING.md §What an attempt costs):
///
///  * an attempt draws its 2L words as SampleCandidate would, then
///    reduces them modulo their bounds only as far as the feasibility
///    checks go, reading reachability from a per-user min-gap memo;
///  * once the loop has spent as many attempts as a forward DP over the
///    user's (POI, earliest timestep) states costs, the DP decides
///    whether the feasible set is empty. When it is, the remaining
///    attempts can only be rejected, so they are replayed as bare
///    generator steps.
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
  /// POI list, timestep interval and draw thresholds are resolved once
  /// per trajectory.
  struct Slot {
    const model::PoiId* pois = nullptr;
    size_t num_pois = 0;
    model::Timestep first = 0;
    model::Timestep last = 0;
    /// Window width, last − first + 1: the bound of the timestep draw.
    uint64_t num_times = 0;
    /// Rng::RejectionThreshold of num_pois and of num_times.
    uint64_t poi_threshold = 0;
    uint64_t time_threshold = 0;
    /// Start of the (previous slot's POI, this slot's POI) block in
    /// Workspace::min_gaps; unused for the first slot.
    size_t memo_offset = 0;
  };

  /// \brief Per-thread sampling scratch: the candidate (POI, timestep)
  /// buffers every rejection-sampling attempt writes into, the hoisted
  /// per-position slots, the per-user min-gap memo both samplers read,
  /// the rejection loop's feasibility DP, and the guided sampler's
  /// time-counting DP tables.
  /// Reusing one workspace across users makes the γ-retry loop
  /// allocation-free (the output trajectory itself is still allocated —
  /// it is the product).
  struct Workspace {
    std::vector<model::PoiId> pois;
    std::vector<model::Timestep> times;
    std::vector<Slot> slots;
    /// One attempt's raw words, in draw order: POI then timestep, per
    /// position.
    std::vector<uint64_t> words;
    /// Min-gap memo of the user's consecutive POI pairs: entry
    /// slots[i].memo_offset + j · slots[i].num_pois + k holds
    /// model::MinReachableGap between POI j of slot i − 1 and POI k of
    /// slot i, or 0 until first use. Σ_i |P(r_{i−1})| · |P(r_i)| entries,
    /// sized once per user and shared by both samplers, so a guided →
    /// rejection fallback reuses the entries guided proposals filled.
    std::vector<uint16_t> min_gaps;
    /// Feasibility DP layers: the earliest timestep a feasible prefix can
    /// end at each POI of the previous and of the current slot.
    std::vector<model::Timestep> earliest;
    std::vector<model::Timestep> next_earliest;
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
    /// γ: the retry threshold; 50,000 per §5.6. The paper calls the cap
    /// rarely reached, but on the benchmark city 45% of users reach it:
    /// 37% because their feasible set is empty, 8% with a non-empty one
    /// (docs/POI_SAMPLING.md).
    int gamma = 50000;
    /// Which sampler runs first. kRejection reproduces the paper's
    /// mechanism draw-for-draw; kGuided is the accelerated policy with
    /// identical output distribution (see PoiPolicy).
    PoiPolicy policy = PoiPolicy::kRejection;
  };

  /// All pointees must outlive this object.
  PoiReconstructor(const region::StcDecomposition* decomp,
                   const model::Reachability* reach, Config config);

  struct Result {
    model::Trajectory trajectory;
    /// Number of whole-trajectory sampling attempts used (guided
    /// proposals and rejection attempts both count).
    size_t attempts = 0;
    /// True when the smoothing fallback produced the output. Smoothed
    /// outputs guarantee time order and reachability but may leave a
    /// region's time interval (§5.6).
    bool smoothed = false;
    /// Why the output was smoothed; kNone exactly when `smoothed` is
    /// false.
    SmoothingCause smoothing_cause = SmoothingCause::kNone;
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

  /// Advances `rng` exactly as `attempts` rejected attempts over `slots`
  /// would (each draws, per slot, UniformUint64(num_pois) then
  /// UniformUint64(num_times)), without reducing or checking anything.
  /// Only the slots' thresholds are read.
  static void ReplayAttempts(const std::vector<Slot>& slots, size_t attempts,
                             Rng& rng);

  const Config& config() const { return config_; }

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

  // The γ-retry loop. Returns the attempts made and sets `cause` to kNone
  // when the last one was accepted (its candidate is in ws.pois/ws.times),
  // else to why all γ failed.
  size_t RejectionLoop(const std::vector<Slot>& slots, Rng& rng,
                       Workspace& ws, SmoothingCause* cause) const;

  // One rejection attempt: draws the same words SampleCandidate would,
  // then runs the feasibility checks in order (time order, opening hours,
  // reachability), reducing each word only when a check needs it.
  bool TryAttempt(const std::vector<Slot>& slots, Rng& rng,
                  Workspace& ws) const;

  // The forward DP over earliest end times: true iff the feasible set of
  // `slots` is non-empty.
  bool HasFeasibleAssignment(const std::vector<Slot>& slots,
                             Workspace& ws) const;

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
  Config config_;
  TimeSmoother smoother_;
};

}  // namespace trajldp::core

#endif  // TRAJLDP_CORE_POI_RECONSTRUCTOR_H_
