#ifndef TRAJLDP_CORE_VITERBI_RECONSTRUCTOR_H_
#define TRAJLDP_CORE_VITERBI_RECONSTRUCTOR_H_

#include <cstddef>

#include "common/aligned_arena.h"
#include "common/status_or.h"
#include "core/reconstruction.h"

namespace trajldp::core {

/// \brief Per-thread scratch of ViterbiReconstructor, laid out as
/// structure-of-arrays in one cache-line-aligned arena: the DP cost
/// rows, the flattened parent table, the region→candidate index map, and
/// the relaxation's own tables — the candidate-restricted in-adjacency
/// (CSR, 32-bit offsets) when the graph relaxes one edge at a time, or
/// the per-set member lists, prefix bounds, predecessor bitsets, the
/// (end, set) prefix-minimum table and each end's ranking when it
/// relaxes one POI set at a time. One arena Reset per solve, and every
/// array starts on its own cache line. The arena grows to the largest
/// problem seen and is then reused allocation-free.
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
/// Viterbi pass over the layers finds the global optimum.
///
/// A layer takes, for every candidate, the cheapest predecessor, with
/// the lowest candidate index among equal costs. The graph picks one of
/// two exact ways to find it (RegionGraph::relax_by_set()):
///  * per edge: an in-adjacency over the candidates, built per user, and
///    one compare per candidate bigram, O(L · E_cand);
///  * per POI set: u → c is an edge iff begin(u) + g_t < end(c) and
///    u's POI set is a spatial predecessor of c's, so c's best
///    predecessor is the (dp, index) minimum over one prefix minimum per
///    predecessor set. Each layer ranks the kRankedSets lowest prefix
///    minima of every distinct interval end, and a target walks its end's
///    ranking to the first set its own set accepts; it scans its
///    predecessor sets only when the full ranking holds none of them.
///    A layer costs O(candidates + sets × ends) when the walks hit.
/// Both return the same sequence on every problem.
///
/// This is the collector's solver: CollectorPipeline calls it for every
/// user. LpReconstructor solves the same problem through the paper's LP
/// formulation and serves as the reference that tests and the
/// reconstruction ablation bench compare it against.
class ViterbiReconstructor {
 public:
  /// Entries each distinct end's ranking keeps in the per-set relaxation.
  static constexpr size_t kRankedSets = 8;

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
