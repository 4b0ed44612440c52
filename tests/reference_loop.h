#ifndef TRAJLDP_TESTS_REFERENCE_LOOP_H_
#define TRAJLDP_TESTS_REFERENCE_LOOP_H_

// The paper's §5.6 POI sampler, kept as the tests' reference: propose one
// whole candidate uniformly from the regions' POI × timestep boxes, accept
// it when feasible, retry up to γ times, and smooth one more candidate's
// times when all γ fail. It is uniform over the feasible set F whenever it
// accepts; PoiReconstructor must draw from the same law, with no cap.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/time_smoother.h"
#include "model/reachability.h"
#include "model/trajectory.h"
#include "region/decomposition.h"

namespace trajldp::testing {

class ReferenceLoop {
 public:
  /// The paper's γ.
  static constexpr int kPaperGamma = 50000;

  struct Outcome {
    model::Trajectory trajectory;
    size_t attempts = 0;
    bool smoothed = false;
  };

  ReferenceLoop(const region::StcDecomposition* decomp,
                const model::Reachability* reach, int gamma = kPaperGamma)
      : decomp_(decomp),
        reach_(reach),
        gamma_(gamma),
        smoother_(&decomp->db(), decomp->time(), reach->config()) {}

  Outcome Run(const region::RegionTrajectory& regions, Rng& rng) const {
    std::vector<model::PoiId> pois;
    std::vector<model::Timestep> times;
    Outcome out;
    for (int attempt = 0; attempt < gamma_; ++attempt) {
      ++out.attempts;
      SampleCandidate(regions, rng, &pois, &times);
      if (IsFeasible(pois, times)) {
        for (size_t i = 0; i < pois.size(); ++i) {
          out.trajectory.Append(pois[i], times[i]);
        }
        return out;
      }
    }
    SampleCandidate(regions, rng, &pois, &times);
    std::sort(times.begin(), times.end());
    auto smoothed = smoother_.Smooth(pois, times);
    EXPECT_TRUE(smoothed.ok()) << smoothed.status();
    if (!smoothed.ok()) return out;
    for (size_t i = 0; i < pois.size(); ++i) {
      out.trajectory.Append(pois[i], (*smoothed)[i]);
    }
    out.smoothed = true;
    return out;
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
      const model::Timestep first = time.MinuteToTimestep(r.time.begin);
      const model::Timestep last = time.MinuteToTimestep(r.time.end - 1);
      (*pois)[i] = r.pois[rng.UniformUint64(r.pois.size())];
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
  int gamma_;
  core::TimeSmoother smoother_;
};

}  // namespace trajldp::testing

#endif  // TRAJLDP_TESTS_REFERENCE_LOOP_H_
