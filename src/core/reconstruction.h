#ifndef TRAJLDP_CORE_RECONSTRUCTION_H_
#define TRAJLDP_CORE_RECONSTRUCTION_H_

#include <span>
#include <vector>

#include "common/status_or.h"
#include "core/ngram.h"
#include "region/region_distance.h"
#include "region/region_graph.h"

namespace trajldp::core {

/// \brief The region-level reconstruction problem of §5.5: given the
/// perturbed n-gram set Z, choose one region per trajectory position
/// minimising the total bigram error, subject to the continuity and
/// feasibility (W²) constraints.
///
/// Error terms (eqs. 8–9):
///  * region error  e(r, i)  = Σ_{z ∈ Z covering i} d(r, z's region at i);
///  * bigram error  e(i, w)  = e(w(1), i) + e(w(2), i+1).
///
/// Region distances are read from the precomputed float table
/// (RegionDistance::ToAll), so node errors carry its float rounding —
/// identical for every solver and caller, which is what the equivalence
/// guarantees need.
///
/// Summing bigram errors over i = 1..L−1 counts interior positions twice
/// and the endpoints once, so the objective equals a node-weighted path
/// cost with multiplicities {1, 2, ..., 2, 1} — which both solvers use.
///
/// Candidates are restricted to R_mbr (the MBR optimisation of §5.5),
/// which never cuts off the optimum because every region of Z is inside
/// the MBR.
class ReconstructionProblem {
 public:
  /// An empty problem; fill it with Reset() before use. Default
  /// construction exists so batch pipelines can keep one problem per
  /// worker thread and re-initialise it per user, reusing the candidate
  /// and error-table allocations.
  ReconstructionProblem() = default;

  /// \param distance    region distance (same decomposition as `graph`).
  /// \param graph       feasibility graph providing the W² constraint.
  /// \param traj_len    L, the trajectory length (≥ 1).
  /// \param z           the perturbed n-grams.
  /// \param candidates  candidate regions (e.g. MbrCandidateRegions output);
  ///                    must be sorted ascending, without duplicates.
  static StatusOr<ReconstructionProblem> Create(
      const region::RegionDistance* distance,
      const region::RegionGraph* graph, size_t traj_len,
      const PerturbedNgramSet& z, std::vector<region::RegionId> candidates);

  /// Re-initialises this problem in place with the same semantics (and
  /// validation) as Create(). Internal buffers are reused, so the per-user
  /// hot loop performs no allocation once they reach steady state. On
  /// error the problem is left in an unspecified state and must be Reset
  /// again before use.
  Status Reset(const region::RegionDistance* distance,
               const region::RegionGraph* graph, size_t traj_len,
               const PerturbedNgramSet& z,
               std::span<const region::RegionId> candidates);

  size_t traj_len() const { return traj_len_; }
  const std::vector<region::RegionId>& candidates() const {
    return candidates_;
  }
  const region::RegionGraph& graph() const { return *graph_; }

  /// e(candidate[c], i) for position i (0-based here).
  double NodeError(size_t i, size_t c) const {
    return node_error_[i * candidates_.size() + c];
  }

  /// Row i of the node-error table: NodeErrorRow(i)[c] == NodeError(i, c),
  /// contiguous over all candidates. The blocked DP kernels stream this
  /// row instead of paying an index multiply per element.
  const double* NodeErrorRow(size_t i) const {
    return node_error_.data() + i * candidates_.size();
  }

  /// e(i, w) for the bigram w = (candidate[c1], candidate[c2]) at
  /// position i (0-based; covers positions i and i+1).
  double BigramError(size_t i, size_t c1, size_t c2) const {
    return NodeError(i, c1) + NodeError(i + 1, c2);
  }

  /// Objective multiplicity of position i in the bigram-sum objective:
  /// 1 at the endpoints, 2 in the interior (1 everywhere for L == 1).
  double Multiplicity(size_t i) const;

  /// Objective value of a full candidate-index assignment (for tests and
  /// brute-force comparison): Σ_i BigramError(i, c_i, c_{i+1}).
  double Objective(const std::vector<size_t>& assignment) const;

  /// True when the bigram (candidate[c1], candidate[c2]) is feasible.
  bool Feasible(size_t c1, size_t c2) const;

 private:
  const region::RegionGraph* graph_ = nullptr;
  size_t traj_len_ = 0;
  std::vector<region::RegionId> candidates_;
  /// Row-major [traj_len][candidates] region errors.
  std::vector<double> node_error_;
};

}  // namespace trajldp::core

#endif  // TRAJLDP_CORE_RECONSTRUCTION_H_
