#include "core/time_smoother.h"

#include <algorithm>

namespace trajldp::core {

TimeSmoother::TimeSmoother(const model::PoiDatabase* db,
                           const model::TimeDomain& time,
                           model::ReachabilityConfig reach)
    : reach_(db, time, reach) {}

int TimeSmoother::MinGapTimesteps(model::PoiId from, model::PoiId to) const {
  return reach_.MinGapTimesteps(from, to);
}

StatusOr<std::vector<model::Timestep>> TimeSmoother::Smooth(
    const std::vector<model::PoiId>& pois,
    std::vector<model::Timestep> initial) const {
  if (pois.empty() || pois.size() != initial.size()) {
    return Status::InvalidArgument(
        "poi and timestep sequences must be non-empty and equal-length");
  }
  const size_t len = pois.size();
  const model::Timestep num_ts = reach_.time().num_timesteps();

  std::vector<int> gaps(len, 0);
  int total_gap = 0;
  for (size_t i = 1; i < len; ++i) {
    gaps[i] = MinGapTimesteps(pois[i - 1], pois[i]);
    total_gap += gaps[i];
    // Checked per step: a kUnreachableGap summed over a long sequence
    // would overflow.
    if (total_gap > num_ts - 1) {
      return Status::FailedPrecondition(
          "POI sequence cannot be scheduled within one day even when "
          "packed as tightly as reachability allows");
    }
  }

  // Forward pass: respect lower bounds while staying close to `initial`.
  // Values may temporarily run past the end of the day; the sequence is
  // strictly increasing, so only the tail can overflow.
  std::vector<model::Timestep> out(len);
  out[0] = std::clamp<model::Timestep>(initial[0], 0, num_ts - 1);
  for (size_t i = 1; i < len; ++i) {
    out[i] = std::max(initial[i], out[i - 1] + gaps[i]);
  }
  // Backward pass: pull any overflow back as little as possible. The
  // total-gap check above guarantees out[0] stays non-negative.
  if (out[len - 1] > num_ts - 1) {
    out[len - 1] = num_ts - 1;
  }
  for (size_t i = len - 1; i-- > 0;) {
    if (out[i] > out[i + 1] - gaps[i + 1]) {
      out[i] = out[i + 1] - gaps[i + 1];
    }
  }
  return out;
}

}  // namespace trajldp::core
