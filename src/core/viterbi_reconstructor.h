#ifndef TRAJLDP_CORE_VITERBI_RECONSTRUCTOR_H_
#define TRAJLDP_CORE_VITERBI_RECONSTRUCTOR_H_

#include "common/aligned_arena.h"
#include "common/status_or.h"
#include "core/reconstruction.h"

namespace trajldp::core {

/// \brief Per-thread scratch of ViterbiReconstructor, laid out as
/// structure-of-arrays in one cache-line-aligned arena: the DP cost
/// rows, the flattened parent table, the region→candidate index map,
/// and the candidate-restricted in-adjacency (CSR, 32-bit offsets). One
/// arena Reset per solve replaces seven per-vector capacity checks, and
/// every array starts on its own cache line so dp/next streaming and
/// the CSR walk never false-share. The arena grows to the largest
/// (traj_len, candidates, regions, edges) seen and is then reused
/// allocation-free.
struct ViterbiWorkspace {
  AlignedArena arena;
};

/// \brief Exact dynamic-programming solver for the §5.5 reconstruction.
///
/// The ILP (10)–(14) selects one bigram per position with consecutive
/// bigrams sharing a region — i.e. a minimum-cost path through a layered
/// DAG whose layer-i nodes are candidate regions and whose edges are the
/// feasible bigrams. The objective decomposes into per-position node costs
/// with multiplicities {1, 2, ..., 2, 1} (see ReconstructionProblem), so a
/// Viterbi pass over the layers finds the global optimum in
/// O(L · E_cand) time, where E_cand is the number of feasible candidate
/// bigrams.
///
/// This is the collector's solver: CollectorPipeline calls it for every
/// user. LpReconstructor solves the same problem through the paper's LP
/// formulation and serves as the reference that tests and the
/// reconstruction ablation bench compare it against.
class ViterbiReconstructor {
 public:
  /// Writes the optimal region sequence (length traj_len) into `out`, or
  /// fails with FailedPrecondition when no feasible sequence exists over
  /// the candidate set. Uses only `ws` as scratch, so a batch pipeline
  /// keeps one workspace per worker thread and the per-user hot loop is
  /// allocation-free at steady state. `out` is resized; its allocation
  /// is reused.
  static Status ReconstructInto(const ReconstructionProblem& problem,
                                ViterbiWorkspace& ws,
                                region::RegionTrajectory& out);

  /// Convenience wrapper for tests and single-shot callers: fresh
  /// workspace, result by value.
  static StatusOr<region::RegionTrajectory> Reconstruct(
      const ReconstructionProblem& problem);
};

}  // namespace trajldp::core

#endif  // TRAJLDP_CORE_VITERBI_RECONSTRUCTOR_H_
