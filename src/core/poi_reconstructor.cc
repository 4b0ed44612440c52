#include "core/poi_reconstructor.h"

#include <algorithm>
#include <cmath>

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

// Keeps a DP level's counts far from overflow: when its largest entry
// `max` passes 2^256, scales its `n` cells by 2^−ilogb(max). A power of
// two scales exactly, so counts stay exact below 2^53, a zero stays zero,
// and the ratios within the level, all a draw reads, are unchanged.
// Returns the exponent taken out (0 when none was).
int Rescale(double* cells, size_t n, double max) {
  if (max <= 0x1p256) return 0;
  const int shift = std::ilogb(max);
  const double scale = std::ldexp(1.0, -shift);
  for (size_t c = 0; c < n; ++c) cells[c] *= scale;
  return shift;
}

}  // namespace

PoiReconstructor::PoiReconstructor(const region::StcDecomposition* decomp,
                                   const model::Reachability* reach)
    : decomp_(decomp),
      reach_(reach),
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

bool PoiReconstructor::BuildGuidedDp(const std::vector<Slot>& slots,
                                     Workspace& ws) const {
  const size_t num_slots = slots.size();

  // Windowed SoA layout: level i stores only its [first, last] interval
  // (width w_i), as a counts block plus a suffix block of w_i + 1, each
  // starting on its own cache line (a region spans one time stripe, so a
  // dense [levels × |T|] table would be mostly zeros).
  size_t bytes = 0;
  for (const Slot& slot : slots) {
    // An empty time window admits no assignment at all.
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
  // every t_j in its slot interval, rescaled per level (Rescale) so the
  // doubles never overflow for long trajectories.
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
    Rescale(counts, w, level_max);
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
    // lo past the window means no in-window timestep is left.
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
    // Per-step feasibility: reject the proposal as soon as a step fails
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

double PoiReconstructor::CountDp(Workspace& ws) const {
  // C_0(k, t) = open(k, t), and for i > 0
  //   C_i(k, t) = open(k, t) · Σ_j S_{i−1}(j, min(t − g(j, k), b_{i−1})),
  // where S is the prefix sum of C over the window [a, b] (0 below a) and
  // g the pair's min gap: a prefix ending at (j, t′) extends to (k, t)
  // iff t′ ≤ t − g(j, k), and g ≥ 1 keeps times strictly increasing.
  // Only S is stored; C(k, t) = S(k, t) − S(k, t − 1) is exactly 0 where
  // the count is, since adding 0.0 is exact. Each position is rescaled
  // (Rescale), and `exponent` keeps what was taken out.
  const std::vector<Slot>& slots = ws.slots;
  const Slot& tail = slots.back();
  const size_t cells = tail.prefix_offset + tail.num_pois * tail.num_times;
  if (ws.prefix.size() < cells) ws.prefix.resize(cells);
  const model::TimeDomain& time = decomp_->time();
  const model::PoiDatabase& db = decomp_->db();
  int exponent = 0;  // |F| = Σ_k S_{L−1}(k, b) · 2^exponent
  for (size_t i = 0; i < slots.size(); ++i) {
    const Slot& slot = slots[i];
    const size_t w = slot.num_times;
    double* layer = ws.prefix.data() + slot.prefix_offset;
    double layer_max = 0.0;
    for (size_t k = 0; k < slot.num_pois; ++k) {
      double* row = layer + k * w;
      std::fill(row, row + w, i == 0 ? 1.0 : 0.0);
      if (i > 0) {
        const Slot& prev = slots[i - 1];
        const double* prev_layer = ws.prefix.data() + prev.prefix_offset;
        for (size_t j = 0; j < prev.num_pois; ++j) {
          const double* from = prev_layer + j * prev.num_times;
          const double whole = from[prev.num_times - 1];
          if (whole == 0.0) continue;  // no feasible prefix ends at j
          // t reads S(j, t − g) while t − g is in j's window, and the
          // window's whole sum after it. kUnreachableGap reads nothing.
          const Timestep g = MinGap(slots, i, j, k, ws);
          const Timestep lo = std::max(slot.first, prev.first + g);
          const Timestep inside = std::min(slot.last, prev.last + g);
          for (Timestep t = lo; t <= inside; ++t) {
            row[t - slot.first] += from[t - g - prev.first];
          }
          for (Timestep t = std::max(lo, inside + 1); t <= slot.last; ++t) {
            row[t - slot.first] += whole;
          }
        }
      }
      const model::OpeningHours& hours = db.poi(slot.pois[k]).hours;
      double sum = 0.0;
      for (size_t d = 0; d < w; ++d) {
        if (row[d] != 0.0 &&
            hours.IsOpenAtMinute(time.TimestepToMinute(
                slot.first + static_cast<Timestep>(d)))) {
          sum += row[d];
        }
        row[d] = sum;
      }
      layer_max = std::max(layer_max, sum);
    }
    // No feasible prefix ends at this position: F is empty.
    if (layer_max == 0.0) return 0.0;
    exponent += Rescale(layer, slot.num_pois * w, layer_max);
  }
  double total = 0.0;
  const double* last_layer = ws.prefix.data() + tail.prefix_offset;
  for (size_t k = 0; k < tail.num_pois; ++k) {
    total += last_layer[k * tail.num_times + tail.num_times - 1];
  }
  return std::ldexp(total, exponent);
}

void PoiReconstructor::DrawDp(Workspace& ws, Rng& rng) const {
  const std::vector<Slot>& slots = ws.slots;
  ws.pois.resize(slots.size());
  ws.times.resize(slots.size());
  // Draws (k, t) ∝ C_i(k, t) over t ≤ bound(k) at position i. The mass
  // of POI k is S_i(k, min(bound(k), b)); the last POI with mass absorbs
  // the floating-point remainder of the pick.
  const auto pick = [&](size_t i, const auto& bound) {
    const Slot& slot = slots[i];
    const double* layer = ws.prefix.data() + slot.prefix_offset;
    const auto last_index = [&](size_t k) -> ptrdiff_t {
      return std::min(bound(k), slot.last) - slot.first;
    };
    const auto mass = [&](size_t k) {
      const ptrdiff_t end = last_index(k);
      return end < 0 ? 0.0 : layer[k * slot.num_times + end];
    };
    double total = 0.0;
    for (size_t k = 0; k < slot.num_pois; ++k) total += mass(k);
    double r = rng.UniformDouble() * total;
    size_t k_pick = 0;
    for (size_t k = 0; k < slot.num_pois; ++k) {
      const double m = mass(k);
      if (m <= 0.0) continue;
      k_pick = k;
      if (r < m) break;
      r -= m;
    }
    // The first t whose prefix sum exceeds r has C(k, t) > 0; when
    // rounding left r at or past the mass, the t where the sum last rose.
    const double* row = layer + k_pick * slot.num_times;
    const double* end = row + last_index(k_pick) + 1;
    const double* at = std::upper_bound(row, end, r);
    if (at == end) at = std::lower_bound(row, end, end[-1]);
    ws.pois[i] = slot.pois[k_pick];
    ws.times[i] = slot.first + static_cast<Timestep>(at - row);
    return k_pick;
  };
  size_t i = slots.size() - 1;
  size_t k = pick(i, [&](size_t) { return slots[i].last; });
  while (i-- > 0) {
    // Position i's prefixes that reach (k, t_{i+1}).
    const Timestep next_t = ws.times[i + 1];
    const size_t next_k = k;
    k = pick(i, [&](size_t j) -> Timestep {
      return next_t - MinGap(slots, i + 1, j, next_k, ws);
    });
  }
}

Status PoiReconstructor::Prepare(const region::RegionTrajectory& regions,
                                 Workspace& ws) const {
  if (regions.empty()) {
    return Status::InvalidArgument("region trajectory is empty");
  }
  for (region::RegionId id : regions) {
    if (id >= decomp_->num_regions()) {
      return Status::InvalidArgument("region id out of range");
    }
  }
  const model::TimeDomain& time = decomp_->time();
  ws.slots.resize(regions.size());
  size_t memo_offset = 0;
  size_t prefix_offset = 0;
  for (size_t i = 0; i < regions.size(); ++i) {
    const region::StcRegion& r = decomp_->region(regions[i]);
    Slot& slot = ws.slots[i];
    slot.pois = r.pois.data();
    slot.num_pois = r.pois.size();
    slot.first = time.MinuteToTimestep(r.time.begin);
    slot.last = time.MinuteToTimestep(r.time.end - 1);
    slot.num_times = static_cast<uint64_t>(slot.last - slot.first + 1);
    if (i > 0) {
      slot.memo_offset = memo_offset;
      memo_offset += ws.slots[i - 1].num_pois * slot.num_pois;
    }
    slot.prefix_offset = prefix_offset;
    prefix_offset += slot.num_pois * slot.num_times;
  }
  ws.min_gaps.assign(memo_offset, 0);
  return Status::Ok();
}

StatusOr<PoiReconstructor::Result> PoiReconstructor::Reconstruct(
    const region::RegionTrajectory& regions, Rng& rng) const {
  Workspace ws;
  return Reconstruct(regions, rng, ws);
}

StatusOr<PoiReconstructor::Result> PoiReconstructor::Reconstruct(
    const region::RegionTrajectory& regions, Rng& rng, Workspace& ws) const {
  TRAJLDP_RETURN_NOT_OK(Prepare(regions, ws));
  const std::vector<Slot>& slots = ws.slots;
  Result result;
  if (BuildGuidedDp(slots, ws)) {
    for (int attempt = 0; attempt < kGuidedAttempts; ++attempt) {
      ++result.attempts;
      if (SampleGuided(slots, ws, rng, &ws.pois, &ws.times)) {
        result.trajectory = MakeTrajectory(ws.pois, ws.times);
        return result;
      }
    }
  }
  // Every proposal failed, or no increasing time tuple exists: the DP
  // draws exactly from F, or proves it empty.
  if (CountDp(ws) > 0.0) {
    ++result.attempts;
    DrawDp(ws, rng);
    result.trajectory = MakeTrajectory(ws.pois, ws.times);
    return result;
  }

  // F is empty: fix one sequence and smooth its times (§5.6). Sort the
  // sampled times first so the smoother shifts as little as possible.
  SampleCandidate(slots, rng, &ws.pois, &ws.times);
  std::sort(ws.times.begin(), ws.times.end());
  auto smoothed = smoother_.Smooth(ws.pois, ws.times);
  if (!smoothed.ok()) return smoothed.status();
  result.trajectory = MakeTrajectory(ws.pois, *smoothed);
  result.smoothed = true;
  return result;
}

StatusOr<double> PoiReconstructor::CountFeasible(
    const region::RegionTrajectory& regions, Workspace& ws) const {
  TRAJLDP_RETURN_NOT_OK(Prepare(regions, ws));
  return CountDp(ws);
}

StatusOr<model::Trajectory> PoiReconstructor::DrawFeasible(
    const region::RegionTrajectory& regions, Rng& rng, Workspace& ws) const {
  TRAJLDP_RETURN_NOT_OK(Prepare(regions, ws));
  if (CountDp(ws) == 0.0) {
    return Status::FailedPrecondition("the feasible set is empty");
  }
  DrawDp(ws, rng);
  return MakeTrajectory(ws.pois, ws.times);
}

}  // namespace trajldp::core
