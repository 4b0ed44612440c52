#include "core/reconstruction.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace trajldp::core {

StatusOr<ReconstructionProblem> ReconstructionProblem::Create(
    const region::RegionDistance* distance, const region::RegionGraph* graph,
    size_t traj_len, const PerturbedNgramSet& z,
    std::vector<region::RegionId> candidates) {
  ReconstructionProblem problem;
  TRAJLDP_RETURN_NOT_OK(
      problem.Reset(distance, graph, traj_len, z, candidates));
  return problem;
}

Status ReconstructionProblem::Reset(
    const region::RegionDistance* distance, const region::RegionGraph* graph,
    size_t traj_len, const PerturbedNgramSet& z,
    std::span<const region::RegionId> candidates) {
  if (traj_len == 0) {
    return Status::InvalidArgument("trajectory length must be positive");
  }
  if (candidates.empty()) {
    return Status::InvalidArgument("candidate region set is empty");
  }
  if (std::adjacent_find(candidates.begin(), candidates.end(),
                         std::greater_equal<>()) != candidates.end()) {
    return Status::InvalidArgument(
        "candidates must be sorted ascending without duplicates");
  }
  for (const PerturbedNgram& gram : z) {
    if (gram.a < 1 || gram.b > traj_len || gram.a > gram.b ||
        gram.regions.size() != gram.b - gram.a + 1) {
      return Status::InvalidArgument("malformed perturbed n-gram " +
                                     gram.DebugString());
    }
  }

  graph_ = graph;
  traj_len_ = traj_len;
  candidates_.assign(candidates.begin(), candidates.end());
  const size_t num_cand = candidates_.size();
  node_error_.assign(traj_len * num_cand, 0.0);
  // e(r, i) = Σ over perturbed n-grams covering position i of the distance
  // between r and the n-gram's region at i (eq. 8). Positions are 1-based
  // in the n-grams, 0-based in the matrix. Distances are gathered from
  // the precomputed R × R float table (RegionDistance::ToAll) instead of
  // recomputing haversine + category walks per pair — the error-table
  // fill is the reconstruction-prep hot loop (Table 3).
  for (const PerturbedNgram& gram : z) {
    for (size_t pos = gram.a; pos <= gram.b; ++pos) {
      const region::RegionId observed = gram.RegionAt(pos);
      const std::span<const float> dist_row = distance->ToAll(observed);
      double* row = node_error_.data() + (pos - 1) * num_cand;
      for (size_t c = 0; c < num_cand; ++c) {
        row[c] += static_cast<double>(dist_row[candidates_[c]]);
      }
    }
  }
  return Status::Ok();
}

double ReconstructionProblem::Multiplicity(size_t i) const {
  if (traj_len_ == 1) return 1.0;
  return (i == 0 || i + 1 == traj_len_) ? 1.0 : 2.0;
}

double ReconstructionProblem::Objective(
    const std::vector<size_t>& assignment) const {
  assert(assignment.size() == traj_len_);
  if (traj_len_ == 1) return NodeError(0, assignment[0]);
  double total = 0.0;
  for (size_t i = 0; i + 1 < traj_len_; ++i) {
    total += BigramError(i, assignment[i], assignment[i + 1]);
  }
  return total;
}

bool ReconstructionProblem::Feasible(size_t c1, size_t c2) const {
  return graph_->HasEdge(candidates_[c1], candidates_[c2]);
}

}  // namespace trajldp::core
