#include "core/poi_reconstructor.h"

#include <algorithm>
#include <limits>

namespace trajldp::core {

using model::PoiId;
using model::Timestep;

namespace {

model::Trajectory MakeTrajectory(const std::vector<PoiId>& pois,
                                 const std::vector<Timestep>& times) {
  std::vector<model::TrajectoryPoint> pts(pois.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    pts[i] = {pois[i], times[i]};
  }
  return model::Trajectory(std::move(pts));
}

}  // namespace

PoiReconstructor::PoiReconstructor(const region::StcDecomposition* decomp,
                                   const model::Reachability* reach,
                                   Config config)
    : decomp_(decomp),
      reach_(reach),
      config_(config),
      smoother_(&decomp->db(), decomp->time(), reach->config()) {}

void PoiReconstructor::SampleCandidate(const std::vector<Slot>& slots,
                                       Rng& rng, std::vector<PoiId>* pois,
                                       std::vector<Timestep>* times) const {
  pois->resize(slots.size());
  times->resize(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    const Slot& slot = slots[i];
    (*pois)[i] = slot.pois[rng.UniformUint64(slot.num_pois)];
    (*times)[i] =
        slot.first + static_cast<Timestep>(rng.UniformUint64(slot.num_times));
  }
}

bool PoiReconstructor::TryAttempt(const std::vector<Slot>& slots, Rng& rng,
                                  Workspace& ws) const {
  // Every word is drawn before any is checked: the next attempt starts
  // after all of them, whatever this one's verdict. The draws run on a
  // local copy, whose state the compiler can keep in registers (stores
  // through `words` could alias the caller's).
  uint64_t* words = ws.words.data();
  Rng local = rng;
  for (const Slot& slot : slots) {
    *words++ = local.NextAccepted(slot.poi_threshold);
    *words++ = local.NextAccepted(slot.time_threshold);
  }
  rng = local;
  const model::TimeDomain& time = decomp_->time();
  const model::PoiDatabase& db = decomp_->db();
  words = ws.words.data();
  size_t prev_k = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    const Slot& slot = slots[i];
    const Timestep t =
        slot.first + static_cast<Timestep>(words[2 * i + 1] % slot.num_times);
    if (i > 0 && t <= ws.times[i - 1]) return false;
    const size_t k = words[2 * i] % slot.num_pois;
    const PoiId p = slot.pois[k];
    if (!db.poi(p).hours.IsOpenAtMinute(time.TimestepToMinute(t))) {
      return false;
    }
    // Same-day gaps are below |T|, so kUnreachableGap never passes.
    if (i > 0 && t - ws.times[i - 1] < MinGap(slots, i, prev_k, k, ws)) {
      return false;
    }
    ws.pois[i] = p;
    ws.times[i] = t;
    prev_k = k;
  }
  return true;
}

void PoiReconstructor::ReplayAttempts(const std::vector<Slot>& slots,
                                      size_t attempts, Rng& rng) {
  Rng local = rng;  // kept in registers, as in TryAttempt
  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    for (const Slot& slot : slots) {
      local.NextAccepted(slot.poi_threshold);
      local.NextAccepted(slot.time_threshold);
    }
  }
  rng = local;
}

bool PoiReconstructor::HasFeasibleAssignment(const std::vector<Slot>& slots,
                                             Workspace& ws) const {
  // E_i(k) = the earliest timestep at which a feasible prefix of slots
  // 0..i ends at POI k of slot i. θ is nondecreasing in the gap, so the
  // earliest end at a POI admits every extension a later end there
  // does, and F is non-empty iff the last layer has a finite entry.
  // E_i(k) is the first open timestep of slot i's window that is at or
  // after min_j (E_{i−1}(j) + min_gap(j, k)); min_gap ≥ 1 makes it
  // strictly later, exactly the loop's checks.
  constexpr Timestep kNoTime = std::numeric_limits<Timestep>::max();
  const model::TimeDomain& time = decomp_->time();
  const model::PoiDatabase& db = decomp_->db();
  std::vector<Timestep>& earliest = ws.earliest;
  std::vector<Timestep>& next = ws.next_earliest;
  for (size_t i = 0; i < slots.size(); ++i) {
    const Slot& slot = slots[i];
    next.assign(slot.num_pois, kNoTime);
    bool any = false;
    for (size_t k = 0; k < slot.num_pois; ++k) {
      Timestep lo = slot.first;
      if (i > 0) {
        Timestep reach_at = kNoTime;
        // Stop once no later POI can move lo below the window's start.
        for (size_t j = 0; j < slots[i - 1].num_pois && reach_at > lo; ++j) {
          if (earliest[j] == kNoTime) continue;
          reach_at = std::min<Timestep>(
              reach_at, earliest[j] + MinGap(slots, i, j, k, ws));
        }
        lo = std::max(lo, reach_at);
      }
      const model::OpeningHours& hours = db.poi(slot.pois[k]).hours;
      for (Timestep t = lo; t <= slot.last; ++t) {
        if (hours.IsOpenAtMinute(time.TimestepToMinute(t))) {
          next[k] = t;
          any = true;
          break;
        }
      }
      // The last slot only needs one finite entry.
      if (any && i + 1 == slots.size()) return true;
    }
    if (!any) return false;
    std::swap(earliest, next);
  }
  return true;
}

size_t PoiReconstructor::RejectionLoop(const std::vector<Slot>& slots,
                                       Rng& rng, Workspace& ws,
                                       SmoothingCause* cause) const {
  *cause = SmoothingCause::kNone;
  ws.pois.resize(slots.size());
  ws.times.resize(slots.size());
  ws.words.resize(2 * slots.size());
  // The feasibility DP's pair count: the memo's pairs plus the first
  // slot's POIs, each paired with one virtual start.
  const size_t pairs = slots.front().num_pois + ws.min_gaps.size();

  // The DP runs once the loop has made as many attempts as the DP has
  // pairs (each far cheaper than an attempt): a user accepted sooner
  // never pays for it, and none pays more than about double.
  const size_t gamma = static_cast<size_t>(std::max(config_.gamma, 0));
  const size_t certify_at = std::min(pairs, gamma);
  size_t attempt = 0;
  for (; attempt < certify_at; ++attempt) {
    if (TryAttempt(slots, rng, ws)) return attempt + 1;
  }
  if (!HasFeasibleAssignment(slots, ws)) {
    // Every remaining attempt would be rejected: only the generator
    // state they leave behind matters.
    ReplayAttempts(slots, gamma - attempt, rng);
    *cause = SmoothingCause::kEmptyFeasibleSet;
    return gamma;
  }
  for (; attempt < gamma; ++attempt) {
    if (TryAttempt(slots, rng, ws)) return attempt + 1;
  }
  *cause = SmoothingCause::kRetryCap;
  return gamma;
}

bool PoiReconstructor::BuildGuidedDp(const std::vector<Slot>& slots,
                                     Workspace& ws) const {
  const size_t num_slots = slots.size();

  // Windowed SoA layout: level i stores only its [first, last] interval
  // (width w_i), as a counts block plus a suffix block of w_i + 1, each
  // starting on its own cache line. The old dense [levels × |T|] tables
  // were ~97% structural zeros on real worlds (a region spans one time
  // stripe); trimming them shrinks the DP from O(levels·|T|) to
  // O(Σ w_i) touched memory. Values stay bit-identical: every trimmed
  // cell held +0.0, and x + 0.0 == x exactly for the non-negative
  // doubles these tables hold, so the windowed suffix sums equal the
  // dense ones bit for bit.
  size_t bytes = 0;
  for (const Slot& slot : slots) {
    // An empty time window admits no assignment at all (the dense DP
    // reached the same verdict through a zero level_max).
    if (slot.last < slot.first) return false;
    const size_t w = static_cast<size_t>(slot.last - slot.first) + 1;
    bytes += AlignedArena::BytesFor<double>(w) +
             AlignedArena::BytesFor<double>(w + 1);
  }
  ws.dp_arena.Reset(bytes);
  ws.level_counts.resize(num_slots);
  ws.level_suffix.resize(num_slots);
  for (size_t i = 0; i < num_slots; ++i) {
    const size_t w = static_cast<size_t>(slots[i].last - slots[i].first) + 1;
    ws.level_counts[i] = ws.dp_arena.Carve<double>(w);
    ws.level_suffix[i] = ws.dp_arena.Carve<double>(w + 1);
  }

  // Backward over positions: counts[i][j] = number of strictly
  // increasing completions (t_i = first_i + j, t_{i+1} > t_i, …) with
  // every t_j in its slot interval. Each level is normalised by its
  // maximum so the doubles never overflow for long trajectories;
  // scaling a whole level by a constant leaves the within-level
  // sampling ratios — the only thing the sampler reads — exact.
  for (size_t ri = 0; ri < num_slots; ++ri) {
    const size_t i = num_slots - 1 - ri;
    const Slot& slot = slots[i];
    const size_t w = static_cast<size_t>(slot.last - slot.first) + 1;
    double* counts = ws.level_counts[i];
    double* suffix = ws.level_suffix[i];
    double level_max = 0.0;
    if (i + 1 == num_slots) {
      // Last position: every in-window timestep completes trivially.
      for (size_t j = 0; j < w; ++j) counts[j] = 1.0;
      level_max = 1.0;
    } else {
      const Slot& next = slots[i + 1];
      const double* next_suffix = ws.level_suffix[i + 1];
      for (size_t j = 0; j < w; ++j) {
        // Completions for t = first + j are the next level's suffix at
        // u = t + 1, clamped to its window: below it the whole window
        // remains (its full suffix), above it nothing does.
        const Timestep u = slot.first + static_cast<Timestep>(j) + 1;
        const double completions =
            u <= next.first
                ? next_suffix[0]
                : (u > next.last
                       ? 0.0
                       : next_suffix[static_cast<size_t>(u - next.first)]);
        counts[j] = completions;
        level_max = std::max(level_max, completions);
      }
    }
    // No timestep at this position admits any completion: the region
    // sequence has no strictly increasing time assignment at all.
    if (level_max == 0.0) return false;
    if (level_max > 1e200) {
      for (size_t j = 0; j < w; ++j) counts[j] /= level_max;
    }
    suffix[w] = 0.0;
    for (size_t j = w; j-- > 0;) {
      suffix[j] = suffix[j + 1] + counts[j];
    }
  }
  return true;
}

bool PoiReconstructor::SampleGuided(const std::vector<Slot>& slots,
                                    Workspace& ws, Rng& rng,
                                    std::vector<PoiId>* pois,
                                    std::vector<Timestep>* times) const {
  const model::TimeDomain& time = decomp_->time();
  pois->resize(slots.size());
  times->resize(slots.size());
  Timestep prev_t = -1;
  size_t prev_k = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    const Slot& slot = slots[i];
    const double* counts = ws.level_counts[i];
    const double* suffix = ws.level_suffix[i];
    const Timestep lo =
        std::max<Timestep>(slot.first, prev_t + 1);
    // lo past the window means no in-window timestep is left (the dense
    // DP read a 0.0 suffix there and rejected the same way).
    if (lo > slot.last) return false;
    // The DP conditioned earlier picks on completions existing, so the
    // remaining mass is positive whenever the prefix was sampled from it.
    const double total = suffix[static_cast<size_t>(lo - slot.first)];
    if (total <= 0.0) return false;
    double r = rng.UniformDouble() * total;
    // Weighted pick of t ∝ counts[t] over [lo, slot.last]; the last
    // positive-count timestep absorbs floating-point remainder. One
    // contiguous streamed block — the window IS the iteration range.
    Timestep pick = -1;
    for (Timestep t = lo; t <= slot.last; ++t) {
      const double c = counts[static_cast<size_t>(t - slot.first)];
      if (c <= 0.0) continue;
      pick = t;
      if (r < c) break;
      r -= c;
    }
    if (pick < 0) return false;

    const size_t k = rng.UniformUint64(slot.num_pois);
    const PoiId p = slot.pois[k];
    // Per-step feasibility: reject the attempt as soon as a step fails
    // (equivalent to rejecting the fully drawn candidate — rejection is
    // rejection whenever detected — but never pays for the undrawn tail).
    if (!decomp_->db().poi(p).hours.IsOpenAtMinute(
            time.TimestepToMinute(pick))) {
      return false;
    }
    if (i > 0 && pick - prev_t < MinGap(slots, i, prev_k, k, ws)) {
      return false;
    }
    (*pois)[i] = p;
    (*times)[i] = pick;
    prev_t = pick;
    prev_k = k;
  }
  return true;
}

StatusOr<PoiReconstructor::Result> PoiReconstructor::Reconstruct(
    const region::RegionTrajectory& regions, Rng& rng) const {
  Workspace ws;
  return Reconstruct(regions, rng, ws);
}

StatusOr<PoiReconstructor::Result> PoiReconstructor::Reconstruct(
    const region::RegionTrajectory& regions, Rng& rng, Workspace& ws) const {
  if (regions.empty()) {
    return Status::InvalidArgument("region trajectory is empty");
  }
  for (region::RegionId id : regions) {
    if (id >= decomp_->num_regions()) {
      return Status::InvalidArgument("region id out of range");
    }
  }

  Result result;
  std::vector<PoiId>& pois = ws.pois;
  std::vector<Timestep>& times = ws.times;

  // Hoist the per-position sampling bounds: the regions are fixed for the
  // whole retry loop, so resolve POI lists, timestep intervals, draw
  // thresholds and the min-gap memo once.
  const model::TimeDomain& time = decomp_->time();
  ws.slots.resize(regions.size());
  size_t memo_offset = 0;
  for (size_t i = 0; i < regions.size(); ++i) {
    const region::StcRegion& r = decomp_->region(regions[i]);
    Slot& slot = ws.slots[i];
    slot.pois = r.pois.data();
    slot.num_pois = r.pois.size();
    slot.first = time.MinuteToTimestep(r.time.begin);
    slot.last = time.MinuteToTimestep(r.time.end - 1);
    slot.num_times = static_cast<uint64_t>(slot.last - slot.first + 1);
    slot.poi_threshold = Rng::RejectionThreshold(slot.num_pois);
    slot.time_threshold = Rng::RejectionThreshold(slot.num_times);
    if (i > 0) {
      slot.memo_offset = memo_offset;
      memo_offset += ws.slots[i - 1].num_pois * slot.num_pois;
    }
  }
  ws.min_gaps.assign(memo_offset, 0);
  const std::vector<Slot>& slots = ws.slots;

  if (config_.policy == PoiPolicy::kGuided) {
    // Guided draws use their own substream so the collector stream `rng`
    // stays untouched: a fallback below replays the rejection policy
    // bit-for-bit, and rejection-mode consumers never see guided draws.
    Rng guided_rng = rng.Substream(kGuidedStream);
    if (BuildGuidedDp(slots, ws)) {
      for (int attempt = 0; attempt < kGuidedAttempts; ++attempt) {
        ++result.attempts;
        if (SampleGuided(slots, ws, guided_rng, &pois, &times)) {
          result.trajectory = MakeTrajectory(pois, times);
          return result;
        }
      }
    }
    // Every guided proposal failed (or no increasing time tuple exists):
    // fall back to the full legacy rejection loop rather than silently
    // emitting anything the guided proposal could not certify. `rng` has
    // consumed nothing yet, so from here the outcome is bit-identical to
    // the kRejection policy.
    result.guided_fallback = true;
  }

  SmoothingCause cause = SmoothingCause::kNone;
  result.attempts += RejectionLoop(slots, rng, ws, &cause);
  if (cause == SmoothingCause::kNone) {
    result.trajectory = MakeTrajectory(pois, times);
    return result;
  }

  // Sampling failed: fix one sequence and smooth its times (§5.6). Sort
  // the sampled times first so the smoother shifts as little as possible.
  SampleCandidate(slots, rng, &pois, &times);
  std::sort(times.begin(), times.end());
  auto smoothed = smoother_.Smooth(pois, times);
  if (!smoothed.ok()) return smoothed.status();
  result.trajectory = MakeTrajectory(pois, *smoothed);
  result.smoothed = true;
  result.smoothing_cause = cause;
  return result;
}

}  // namespace trajldp::core
