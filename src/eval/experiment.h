#ifndef TRAJLDP_EVAL_EXPERIMENT_H_
#define TRAJLDP_EVAL_EXPERIMENT_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "core/mechanism.h"
#include "eval/dataset.h"

namespace trajldp::eval {

/// The five perturbation methods compared throughout §7.
enum class Method {
  kIndNoReach,
  kIndReach,
  kPhysDist,
  kNGramNoH,
  kNGram,
};

/// All methods in the paper's table order.
std::vector<Method> AllMethods();

/// Display name matching the paper ("IndNoReach", ..., "NGram").
std::string MethodName(Method method);

/// \brief Experiment-level knobs shared by all benches.
struct ExperimentConfig {
  double epsilon = 5.0;
  int n = 2;
  /// Overrides the dataset's travel speed when finite; infinity disables
  /// the reachability constraint (the θ = ∞ setting of §7.2.4).
  double speed_override_kmh = std::numeric_limits<double>::quiet_NaN();
  /// Perturb at most this many trajectories (deterministic prefix);
  /// SIZE_MAX means all.
  size_t max_trajectories = SIZE_MAX;
  /// Restrict to trajectories of exactly this length (0 = any); used by
  /// the trajectory-length sweeps.
  size_t exact_length = 0;
  /// STC decomposition settings for NGram (§6.2 defaults).
  region::DecompositionConfig decomposition;
  /// EM quality sensitivity passed to every mechanism. The experiment
  /// default of 1.0 is the "paper calibration" that reproduces the
  /// published error magnitudes; set 0 for the strict diameter value
  /// (provable ε-LDP, ~flatter outputs). See docs/CALIBRATION.md.
  double quality_sensitivity = 1.0;
  uint64_t seed = 99;
};

/// \brief Output of running one method over one dataset.
struct MethodResult {
  /// The perturbed trajectories, paired with `real`.
  model::TrajectorySet perturbed;
  /// The real trajectories actually perturbed (after subsampling/length
  /// filtering), pair-aligned with `perturbed`.
  model::TrajectorySet real;
  /// Accumulated per-stage runtime over all perturbed trajectories.
  core::StageBreakdown stages;
  /// One-time pre-processing cost (Figure 7); 0 for methods without one.
  double preprocessing_seconds = 0.0;
  /// Trajectories the mechanism failed on (skipped from the pairing).
  size_t failures = 0;

  double MeanSecondsPerTrajectory() const {
    return perturbed.empty()
               ? 0.0
               : stages.TotalSeconds() / static_cast<double>(perturbed.size());
  }
};

/// Runs `method` over `dataset` under `config`.
StatusOr<MethodResult> RunMethod(const Dataset& dataset, Method method,
                                 const ExperimentConfig& config);

/// Reads the TRAJLDP_BENCH_SCALE environment variable (default 1.0) and
/// scales `base` by it, clamping to at least `min_value`. All benches
/// size their workloads through this hook.
size_t ScaledCount(size_t base, size_t min_value = 20);

}  // namespace trajldp::eval

#endif  // TRAJLDP_EVAL_EXPERIMENT_H_
