#ifndef TRAJLDP_BENCH_SUITE_LAYER_PASS_H_
#define TRAJLDP_BENCH_SUITE_LAYER_PASS_H_

// The traced run's decomposed pass. Collector workers run decode,
// validate, reconstruction and the sink inside the library, where the
// benchmark cannot put spans around them; this pass replays a sample of
// the same frames on one thread through each layer's public function, in
// the collector's order, with a span around every call:
//
//   VerifyFrameChecksum → DecodeReportBatch → ValidateReport →
//   CollectorPipeline::ReconstructReportInto → StreamAnalytics::Consume
//
// ReconstructReportInto is the collector's own per-report call; its
// StageBreakdown splits it into candidates (R_mbr + problem reset),
// Viterbi (with the all-regions retry) and POI resampling. The pass's
// releases are checked against the collector's for the same users.

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "common/status_or.h"
#include "core/collector_pipeline.h"
#include "core/mechanism.h"
#include "suite.h"
#include "world.h"

namespace trajldp::suite {

struct LayerPass {
  size_t frames = 0;
  size_t users = 0;
  /// Wall time of the whole pass, microseconds.
  double wall_us = 0.0;
  /// ReconstructReportInto's own split, summed over users.
  core::StageBreakdown stages;
  /// Sum over users of |R_mbr| (the first, MBR-restricted candidate set).
  double candidates = 0.0;
  /// Users whose MBR candidate set admitted no path (all-regions retry).
  size_t fallbacks = 0;
  size_t poi_attempts = 0;
  size_t smoothed = 0;
  /// Every release matches the collector's release for that user.
  bool identical = true;
  SpanLog log{true};

  /// 1 − (time inside the layer spans) / wall time.
  double UnattributedShare() const;
};

/// Runs `frames` through the pass. `reference(user)` is the fingerprint
/// of the collector's release of that user.
StatusOr<LayerPass> RunLayerPass(
    const World& world, const core::NGramMechanism& mechanism, uint64_t seed,
    std::span<const std::string> frames,
    const std::function<uint64_t(uint64_t)>& reference);

}  // namespace trajldp::suite

#endif  // TRAJLDP_BENCH_SUITE_LAYER_PASS_H_
