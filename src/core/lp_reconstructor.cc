#include "core/lp_reconstructor.h"

#include <utility>
#include <vector>

#include "lp/lp_problem.h"

namespace trajldp::core {

Status LpReconstructor::ReconstructInto(const ReconstructionProblem& problem,
                                        LpReconstructorWorkspace& ws,
                                        region::RegionTrajectory& out) const {
  const size_t len = problem.traj_len();
  const auto& candidates = problem.candidates();
  const size_t num_cand = candidates.size();

  if (len == 1) {
    size_t best = 0;
    for (size_t c = 1; c < num_cand; ++c) {
      if (problem.NodeError(0, c) < problem.NodeError(0, best)) best = c;
    }
    out.assign(1, candidates[best]);
    return Status::Ok();
  }

  // Enumerate feasible candidate bigrams (the W² restriction of x_i^w).
  std::vector<std::pair<size_t, size_t>>& bigrams = ws.bigrams;
  bigrams.clear();
  for (size_t c1 = 0; c1 < num_cand; ++c1) {
    for (size_t c2 = 0; c2 < num_cand; ++c2) {
      if (problem.Feasible(c1, c2)) bigrams.emplace_back(c1, c2);
    }
  }
  if (bigrams.empty()) {
    return Status::FailedPrecondition(
        "no feasible candidate bigram exists for the LP reconstruction");
  }
  const size_t num_bigrams = bigrams.size();
  const size_t layers = len - 1;

  lp::LpProblem& lp = ws.lp;
  lp.constraints.clear();
  lp.num_vars = layers * num_bigrams;
  lp.objective.resize(lp.num_vars);
  auto var = [&](size_t layer, size_t k) { return layer * num_bigrams + k; };
  for (size_t i = 0; i < layers; ++i) {
    for (size_t k = 0; k < num_bigrams; ++k) {
      lp.objective[var(i, k)] =
          problem.BigramError(i, bigrams[k].first, bigrams[k].second);
    }
  }

  // Capacity (13)/(14): exactly one bigram in the first layer. Combined
  // with conservation this forces one bigram per layer.
  {
    std::vector<lp::LpProblem::Term> terms;
    terms.reserve(num_bigrams);
    for (size_t k = 0; k < num_bigrams; ++k) {
      terms.push_back({var(0, k), 1.0});
    }
    lp.AddConstraint(std::move(terms), lp::LpProblem::Relation::kEq, 1.0);
  }
  // Continuity (11)/(12) as per-region flow conservation between layers:
  // flow into region c at layer i equals flow out at layer i+1.
  for (size_t i = 0; i + 1 < layers; ++i) {
    for (size_t c = 0; c < num_cand; ++c) {
      std::vector<lp::LpProblem::Term> terms;
      for (size_t k = 0; k < num_bigrams; ++k) {
        if (bigrams[k].second == c) terms.push_back({var(i, k), 1.0});
        if (bigrams[k].first == c) terms.push_back({var(i + 1, k), -1.0});
      }
      if (terms.empty()) continue;
      lp.AddConstraint(std::move(terms), lp::LpProblem::Relation::kEq, 0.0);
    }
  }

  const Status solved = solver_.Solve(lp, ws.simplex, ws.solution);
  if (!solved.ok()) {
    if (solved.code() == StatusCode::kFailedPrecondition) {
      return Status::FailedPrecondition(
          "no feasible region sequence exists over the candidate set (LP "
          "infeasible)");
    }
    return solved;
  }
  const lp::LpSolution& solution = ws.solution;

  // Extract the path. Shortest-path LPs have integral vertex optima, so
  // the per-layer maximiser traces the chosen path; following the region
  // chain keeps the result consistent even under degenerate ties.
  out.resize(len);
  size_t current = num_cand;  // unset
  for (size_t i = 0; i < layers; ++i) {
    size_t best_k = num_bigrams;
    double best_x = 0.25;  // anything clearly fractional-positive
    for (size_t k = 0; k < num_bigrams; ++k) {
      if (current != num_cand && bigrams[k].first != current) continue;
      const double x = solution.x[var(i, k)];
      if (x > best_x) {
        best_x = x;
        best_k = k;
      }
    }
    if (best_k == num_bigrams) {
      return Status::Internal("LP solution does not trace a path");
    }
    out[i] = candidates[bigrams[best_k].first];
    out[i + 1] = candidates[bigrams[best_k].second];
    current = bigrams[best_k].second;
  }
  return Status::Ok();
}

StatusOr<region::RegionTrajectory> LpReconstructor::Reconstruct(
    const ReconstructionProblem& problem) const {
  LpReconstructorWorkspace ws;
  region::RegionTrajectory out;
  TRAJLDP_RETURN_NOT_OK(ReconstructInto(problem, ws, out));
  return out;
}

}  // namespace trajldp::core
