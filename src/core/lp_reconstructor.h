#ifndef TRAJLDP_CORE_LP_RECONSTRUCTOR_H_
#define TRAJLDP_CORE_LP_RECONSTRUCTOR_H_

#include <utility>
#include <vector>

#include "core/reconstruction.h"
#include "lp/lp_problem.h"
#include "lp/simplex.h"

namespace trajldp::core {

/// \brief Per-thread scratch of LpReconstructor: the feasible-bigram
/// list, the assembled LP, its solution vector, and the simplex tableau.
/// Reused across users so repeated LP reconstructions avoid re-allocating
/// the dense tableau (the dominant set-up cost; the constraint rows are
/// still rebuilt per problem).
struct LpReconstructorWorkspace {
  std::vector<std::pair<size_t, size_t>> bigrams;
  lp::LpProblem lp;
  lp::LpSolution solution;
  lp::SimplexWorkspace simplex;
};

/// \brief Paper-faithful LP solver for the §5.5 reconstruction.
///
/// Builds the ILP (10)–(14) in its flow form: one variable x_{i,w} per
/// position i and feasible candidate bigram w, with unit supply at the
/// first layer and flow conservation per region between layers (which is
/// exactly the continuity constraints (11)–(12); (13)–(14) become the
/// supply/conservation right-hand sides). Shortest-path polytopes have
/// integral vertices, so the simplex optimum solves the ILP exactly.
///
/// O(L · E_cand) variables make this slower than ViterbiReconstructor —
/// the paper's Table 3 shows >85% of mechanism runtime in the LP — so
/// the collector never runs it. It is the reference solver: tests check
/// ViterbiReconstructor against it, and the reconstruction ablation
/// bench times the two side by side.
class LpReconstructor {
 public:
  LpReconstructor() = default;
  explicit LpReconstructor(lp::SimplexSolver::Options options)
      : solver_(options) {}

  /// Writes the optimal region sequence (length traj_len) into `out`, or
  /// fails with FailedPrecondition when no feasible sequence exists over
  /// the candidate set. Uses only `ws` as scratch; `out` is resized and
  /// its allocation reused.
  Status ReconstructInto(const ReconstructionProblem& problem,
                         LpReconstructorWorkspace& ws,
                         region::RegionTrajectory& out) const;

  /// Convenience wrapper: fresh workspace, result by value.
  StatusOr<region::RegionTrajectory> Reconstruct(
      const ReconstructionProblem& problem) const;

 private:
  lp::SimplexSolver solver_;
};

}  // namespace trajldp::core

#endif  // TRAJLDP_CORE_LP_RECONSTRUCTOR_H_
