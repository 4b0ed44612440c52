#include "layer_pass.h"

#include <vector>

#include "analytics/stream_analytics.h"
#include "io/wire.h"
#include "region/region_index.h"

namespace trajldp::suite {

double LayerPass::UnattributedShare() const {
  double leaves = 0.0;
  for (const Span& span : log.spans()) {
    if (span.layer != Layer::kPassFrame) {
      leaves += static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    }
  }
  return wall_us > 0.0 ? 1.0 - leaves / wall_us : 0.0;
}

StatusOr<LayerPass> RunLayerPass(
    const World& world, const core::NGramMechanism& mechanism, uint64_t seed,
    std::span<const std::string> frames,
    const std::function<uint64_t(uint64_t)>& reference) {
  const core::CollectorPipeline pipeline = mechanism.pipeline();
  TRAJLDP_ASSIGN_OR_RETURN(
      auto bundle,
      analytics::StreamAnalytics::Create(&*world.db, world.time,
                                         world.analytics));
  core::PipelineWorkspace ws;
  // Per user: the observed region set and the candidate set the solve
  // ended with, for counting R_mbr and the retries after the pass.
  std::vector<std::vector<region::RegionId>> observed;
  std::vector<size_t> solved_over;
  std::vector<core::UserRelease> releases;

  LayerPass pass;
  SpanLog& log = pass.log;
  const int64_t start = NowNs();
  for (size_t f = 0; f < frames.size(); ++f) {
    const int32_t frame_span = log.Begin(Layer::kPassFrame, f);
    int32_t span = log.Begin(Layer::kCrc, f, frame_span);
    TRAJLDP_RETURN_NOT_OK(io::VerifyFrameChecksum(frames[f]));
    log.End(span);
    span = log.Begin(Layer::kDecode, f, frame_span);
    auto batch = io::DecodeReportBatch(frames[f]);
    log.End(span);
    if (!batch.ok()) return batch.status();

    for (const io::WireReport& report : *batch) {
      const uint64_t user = report.user_id;
      span = log.Begin(Layer::kValidate, user, frame_span);
      const Status valid =
          pipeline.ValidateReport(report.trajectory_len, report.ngrams);
      log.End(span);
      TRAJLDP_RETURN_NOT_OK(valid);

      core::UserRelease out;
      out.user_id = user;
      Rng collector_rng = core::CollectorPipeline::CollectorRng(
          core::CollectorPipeline::UserRng(seed, user));
      span = log.Begin(Layer::kReconstruct, user, frame_span);
      const Status status = pipeline.ReconstructReportInto(
          report.trajectory_len, report.ngrams, collector_rng, ws,
          out.release, &pass.stages);
      log.End(span);
      TRAJLDP_RETURN_NOT_OK(status);
      observed.push_back(ws.observed);
      solved_over.push_back(ws.candidates.size());

      span = log.Begin(Layer::kConsume, user, frame_span);
      bundle.Consume(out);
      log.End(span);
      releases.push_back(std::move(out));
    }
    log.End(frame_span);
  }
  pass.wall_us = static_cast<double>(NowNs() - start) / 1e3;
  pass.frames = frames.size();
  pass.users = releases.size();
  TRAJLDP_RETURN_NOT_OK(bundle.status());

  std::vector<region::RegionId> mbr;
  for (size_t i = 0; i < releases.size(); ++i) {
    region::MbrCandidateRegionsInto(mechanism.decomposition(), observed[i],
                                    mechanism.config().mbr_expand_km, mbr);
    pass.candidates += static_cast<double>(mbr.size());
    // The retry solves over every region; a first solve never does unless
    // R_mbr already was every region.
    pass.fallbacks += solved_over[i] != mbr.size() ? 1 : 0;
    const core::FullRelease& release = releases[i].release;
    pass.poi_attempts += release.poi_attempts;
    pass.smoothed += release.smoothed ? 1 : 0;
    if (reference(releases[i].user_id) != Fingerprint(release)) {
      pass.identical = false;
    }
  }
  return pass;
}

}  // namespace trajldp::suite
