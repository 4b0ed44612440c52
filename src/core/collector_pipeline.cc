#include "core/collector_pipeline.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "region/region_index.h"

namespace trajldp::core {

StageBreakdown& StageBreakdown::operator+=(const StageBreakdown& other) {
  perturb_seconds += other.perturb_seconds;
  reconstruct_prep_seconds += other.reconstruct_prep_seconds;
  optimal_reconstruct_seconds += other.optimal_reconstruct_seconds;
  other_seconds += other.other_seconds;
  poi_seconds += other.poi_seconds;
  return *this;
}

CollectorPipeline::CollectorPipeline(
    const region::StcDecomposition* decomp,
    const region::RegionDistance* distance, const region::RegionGraph* graph,
    const NgramPerturber* perturber,
    const PoiReconstructor* poi_reconstructor, double mbr_expand_km)
    : decomp_(decomp),
      distance_(distance),
      graph_(graph),
      perturber_(perturber),
      poi_reconstructor_(poi_reconstructor),
      mbr_expand_km_(mbr_expand_km) {}

Rng CollectorPipeline::UserRng(uint64_t seed, uint64_t user_id) {
  return Rng(seed).Substream(user_id);
}

Rng CollectorPipeline::CollectorRng(const Rng& user_rng) {
  return user_rng.Substream(kCollectorStream);
}

size_t CollectorPipeline::num_regions() const {
  return decomp_->num_regions();
}

Status CollectorPipeline::PerturbInto(const region::RegionTrajectory& tau,
                                      Rng& rng, SamplerWorkspace& ws,
                                      PerturbedNgramSet& out) const {
  auto z = perturber_->Perturb(tau, rng, ws);
  if (!z.ok()) return z.status();
  out = std::move(*z);
  return Status::Ok();
}

Status CollectorPipeline::ReconstructRegionsInto(
    size_t trajectory_len, const PerturbedNgramSet& z, PipelineWorkspace& ws,
    region::RegionTrajectory& out, StageBreakdown* stages) const {
  Stopwatch watch;

  // Stage: reconstruction prep — R_mbr candidates + error matrix.
  ws.observed.clear();
  for (const PerturbedNgram& gram : z) {
    ws.observed.insert(ws.observed.end(), gram.regions.begin(),
                       gram.regions.end());
  }
  std::sort(ws.observed.begin(), ws.observed.end());
  ws.observed.erase(std::unique(ws.observed.begin(), ws.observed.end()),
                    ws.observed.end());
  region::MbrCandidateRegionsInto(*decomp_, ws.observed, mbr_expand_km_,
                                  ws.candidates);
  TRAJLDP_RETURN_NOT_OK(ws.problem.Reset(distance_, graph_, trajectory_len, z,
                                         ws.candidates));
  if (stages != nullptr) {
    stages->reconstruct_prep_seconds += watch.ElapsedSeconds();
  }

  // Stage: optimal region-level reconstruction.
  watch.Restart();
  Status reconstructed =
      ViterbiReconstructor::ReconstructInto(ws.problem, ws.viterbi, out);
  if (reconstructed.code() == StatusCode::kFailedPrecondition) {
    // The MBR candidate set admitted no feasible path (possible when the
    // perturbed n-grams are spatially scattered). Retry over all regions;
    // this is pure post-processing, so privacy is unaffected.
    ws.candidates.resize(decomp_->num_regions());
    for (size_t i = 0; i < ws.candidates.size(); ++i) {
      ws.candidates[i] = static_cast<region::RegionId>(i);
    }
    TRAJLDP_RETURN_NOT_OK(ws.problem.Reset(distance_, graph_, trajectory_len,
                                           z, ws.candidates));
    reconstructed =
        ViterbiReconstructor::ReconstructInto(ws.problem, ws.viterbi, out);
  }
  TRAJLDP_RETURN_NOT_OK(reconstructed);
  if (stages != nullptr) {
    stages->optimal_reconstruct_seconds += watch.ElapsedSeconds();
  }
  return Status::Ok();
}

Status CollectorPipeline::ReconstructReportInto(size_t trajectory_len,
                                                const PerturbedNgramSet& z,
                                                Rng& collector_rng,
                                                PipelineWorkspace& ws,
                                                FullRelease& out,
                                                StageBreakdown* stages) const {
  TRAJLDP_RETURN_NOT_OK(
      ReconstructRegionsInto(trajectory_len, z, ws, out.regions, stages));

  // Stage: POI-level resampling with time-smoothing fallback (§5.6).
  Stopwatch watch;
  auto poi =
      poi_reconstructor_->Reconstruct(out.regions, collector_rng, ws.poi);
  if (!poi.ok()) return poi.status();
  out.trajectory = std::move(poi->trajectory);
  out.poi_attempts = poi->attempts;
  out.smoothed = poi->smoothed;
  if (stages != nullptr) {
    const double seconds = watch.ElapsedSeconds();
    stages->other_seconds += seconds;
    stages->poi_seconds += seconds;
  }
  return Status::Ok();
}

Status CollectorPipeline::ReleaseInto(const region::RegionTrajectory& tau,
                                      Rng& rng, PipelineWorkspace& ws,
                                      FullRelease& out,
                                      StageBreakdown* stages) const {
  // The collector stream is derived from the PRE-perturbation state so a
  // remote collector can re-derive it from (seed, user id) alone.
  Rng collector_rng = CollectorRng(rng);

  Stopwatch watch;
  PerturbedNgramSet z;
  TRAJLDP_RETURN_NOT_OK(PerturbInto(tau, rng, ws.sampler, z));
  if (stages != nullptr) stages->perturb_seconds += watch.ElapsedSeconds();

  return ReconstructReportInto(tau.size(), z, collector_rng, ws, out, stages);
}

Status CollectorPipeline::ValidateReport(size_t trajectory_len,
                                         const PerturbedNgramSet& z) const {
  if (trajectory_len == 0) {
    return Status::InvalidArgument("report has trajectory length 0");
  }
  // Trajectory::Validate requires strictly increasing timesteps within
  // the day, so no honest device sends more than |T| positions; this also
  // caps what a hostile report can make the collector reconstruct.
  const auto num_timesteps =
      static_cast<size_t>(decomp_->time().num_timesteps());
  if (trajectory_len > num_timesteps) {
    return Status::InvalidArgument(
        "report trajectory length " + std::to_string(trajectory_len) +
        " exceeds the day's " + std::to_string(num_timesteps) +
        " timesteps");
  }
  const size_t num_regions = decomp_->num_regions();
  size_t covered_total = 0;
  for (size_t g = 0; g < z.size(); ++g) {
    const PerturbedNgram& gram = z[g];
    if (gram.a < 1 || gram.b < gram.a || gram.b > trajectory_len) {
      return Status::InvalidArgument(
          "report n-gram " + std::to_string(g) +
          " violates 1 <= a <= b <= trajectory_len");
    }
    if (gram.regions.size() != gram.b - gram.a + 1) {
      return Status::InvalidArgument(
          "report n-gram " + std::to_string(g) +
          " has a region list inconsistent with its [a, b] range");
    }
    for (region::RegionId r : gram.regions) {
      if (r >= num_regions) {
        return Status::OutOfRange(
            "report n-gram " + std::to_string(g) + " names region " +
            std::to_string(r) + " outside the decomposition (R = " +
            std::to_string(num_regions) + ")");
      }
    }
    covered_total += gram.regions.size();
  }
  // Every position must be covered by some n-gram, as the §5.4 perturber
  // guarantees, which bounds trajectory_len by bytes the report actually
  // paid for. The cheap aggregate bound runs first.
  if (trajectory_len > covered_total) {
    return Status::InvalidArgument(
        "report trajectory length " + std::to_string(trajectory_len) +
        " exceeds the " + std::to_string(covered_total) +
        " position(s) its n-grams cover");
  }
  std::vector<uint8_t> covered(trajectory_len, 0);
  for (const PerturbedNgram& gram : z) {
    for (size_t i = gram.a; i <= gram.b; ++i) covered[i - 1] = 1;
  }
  for (size_t i = 0; i < trajectory_len; ++i) {
    if (!covered[i]) {
      return Status::InvalidArgument(
          "report leaves trajectory position " + std::to_string(i + 1) +
          " uncovered by every n-gram");
    }
  }
  return Status::Ok();
}

}  // namespace trajldp::core
