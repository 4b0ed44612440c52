#include "core/mechanism.h"

#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "ldp/exponential_mechanism.h"

namespace trajldp::core {

StatusOr<NGramMechanism> NGramMechanism::Build(const model::PoiDatabase* db,
                                               const model::TimeDomain& time,
                                               NGramConfig config) {
  if (config.n < 1) {
    return Status::InvalidArgument("n must be >= 1");
  }
  TRAJLDP_RETURN_NOT_OK(
      ldp::ValidateBudget(config.epsilon, config.quality_sensitivity));

  NGramMechanism mech;
  mech.config_ = config;
  mech.db_ = db;
  mech.time_ = time;

  Stopwatch preprocessing;
  auto decomp =
      region::StcDecomposition::Build(db, time, config.decomposition);
  if (!decomp.ok()) return decomp.status();
  mech.decomp_ =
      std::make_unique<region::StcDecomposition>(std::move(*decomp));
  mech.distance_ =
      std::make_unique<region::RegionDistance>(mech.decomp_.get());
  mech.graph_ = std::make_unique<region::RegionGraph>(
      region::RegionGraph::Build(*mech.decomp_, config.reachability));
  mech.domain_ = std::make_unique<NgramDomain>(
      mech.graph_.get(), mech.distance_.get(), config.quality_sensitivity);
  mech.perturber_ = std::make_unique<NgramPerturber>(
      mech.domain_.get(),
      NgramPerturber::Config{config.n, config.epsilon});
  mech.reachability_ = std::make_unique<model::Reachability>(
      db, time, config.reachability);
  mech.poi_reconstructor_ = std::make_unique<PoiReconstructor>(
      mech.decomp_.get(), mech.reachability_.get());
  mech.preprocessing_seconds_ = preprocessing.ElapsedSeconds();
  return mech;
}

CollectorPipeline NGramMechanism::pipeline() const {
  return CollectorPipeline(decomp_.get(), distance_.get(), graph_.get(),
                           perturber_.get(), poi_reconstructor_.get(),
                           config_.mbr_expand_km);
}

StatusOr<FullRelease> NGramMechanism::ReleaseFromRegions(
    const region::RegionTrajectory& tau, Rng& rng, PipelineWorkspace* ws,
    StageBreakdown* stages) const {
  PipelineWorkspace local;
  PipelineWorkspace& w = ws != nullptr ? *ws : local;
  FullRelease release;
  TRAJLDP_RETURN_NOT_OK(pipeline().ReleaseInto(tau, rng, w, release, stages));
  return release;
}

StatusOr<model::Trajectory> NGramMechanism::Perturb(
    const model::Trajectory& input, Rng& rng, StageBreakdown* stages) const {
  Stopwatch watch;
  TRAJLDP_RETURN_NOT_OK(input.Validate(time_));
  auto tau = decomp_->ToRegionTrajectory(input);
  if (!tau.ok()) return tau.status();
  if (stages != nullptr) stages->other_seconds += watch.ElapsedSeconds();

  auto release = ReleaseFromRegions(*tau, rng, nullptr, stages);
  if (!release.ok()) return release.status();
  return std::move(release->trajectory);
}

}  // namespace trajldp::core
