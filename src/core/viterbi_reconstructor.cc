#include "core/viterbi_reconstructor.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace trajldp::core {

using region::RegionId;

Status ViterbiReconstructor::ReconstructInto(
    const ReconstructionProblem& problem, ViterbiWorkspace& ws,
    region::RegionTrajectory& out) {
  const size_t len = problem.traj_len();
  const auto& candidates = problem.candidates();
  const size_t num_cand = candidates.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  if (len == 1) {
    // Single point: pick the candidate with the smallest region error.
    const double* err = problem.NodeErrorRow(0);
    size_t best = 0;
    for (size_t c = 1; c < num_cand; ++c) {
      if (err[c] < err[best]) best = c;
    }
    out.assign(1, candidates[best]);
    return Status::Ok();
  }

  // SoA scratch, one line-aligned arena carve per array. in_adj is sized
  // by the candidates' total out-degree — a cheap upper bound on the
  // candidate-restricted edge count that avoids a third adjacency pass.
  const size_t num_regions = problem.graph().num_regions();
  size_t max_edges = 0;
  for (size_t u = 0; u < num_cand; ++u) {
    max_edges += problem.graph().Neighbors(candidates[u]).size();
  }
  ws.arena.Reset(AlignedArena::BytesFor<int32_t>(num_regions) +
                 2 * AlignedArena::BytesFor<double>(num_cand) +
                 AlignedArena::BytesFor<int32_t>(len * num_cand) +
                 AlignedArena::BytesFor<uint32_t>(num_cand + 1) +
                 AlignedArena::BytesFor<uint32_t>(num_cand) +
                 AlignedArena::BytesFor<int32_t>(max_edges));
  // cand_index[region] = candidate index, or −1 when not a candidate.
  int32_t* cand_index = ws.arena.Carve<int32_t>(num_regions);
  // dp[c] / next[c]: cheapest feasible prefix cost ending at candidate c.
  double* dp = ws.arena.Carve<double>(num_cand);
  double* next = ws.arena.Carve<double>(num_cand);
  // Flattened [traj_len][candidates] back-pointers. No fill: every entry
  // the backtrack can read (rows 1..len−1) is written unconditionally in
  // the layer loop below.
  int32_t* parent = ws.arena.Carve<int32_t>(len * num_cand);
  uint32_t* in_offsets = ws.arena.Carve<uint32_t>(num_cand + 1);
  uint32_t* in_cursor = ws.arena.Carve<uint32_t>(num_cand);
  int32_t* in_adj = ws.arena.Carve<int32_t>(max_edges);

  // Map region id → candidate index for adjacency-driven transitions.
  std::fill_n(cand_index, num_regions, int32_t{-1});
  for (size_t c = 0; c < num_cand; ++c) {
    cand_index[candidates[c]] = static_cast<int32_t>(c);
  }

  // Candidate-restricted in-adjacency in CSR form, built once and reused
  // by every layer: in_adj slice c lists the candidate indices u with a
  // feasible bigram candidates[u] → candidates[c], ascending — two
  // counting/fill passes over the candidates' out-edges. The u-ascending
  // fill order is what makes the pull relaxation below pick the same
  // (lowest-index) parent the push formulation would.
  std::fill_n(in_offsets, num_cand + 1, uint32_t{0});
  for (size_t u = 0; u < num_cand; ++u) {
    for (RegionId nb : problem.graph().Neighbors(candidates[u])) {
      const int32_t c = cand_index[nb];
      if (c >= 0) ++in_offsets[static_cast<size_t>(c) + 1];
    }
  }
  for (size_t c = 0; c < num_cand; ++c) {
    in_offsets[c + 1] += in_offsets[c];
  }
  std::copy_n(in_offsets, num_cand, in_cursor);
  for (size_t u = 0; u < num_cand; ++u) {
    for (RegionId nb : problem.graph().Neighbors(candidates[u])) {
      const int32_t c = cand_index[nb];
      if (c >= 0) {
        in_adj[in_cursor[static_cast<size_t>(c)]++] = static_cast<int32_t>(u);
      }
    }
  }

  // dp[c] = cheapest cost of a feasible prefix ending at candidate c,
  // where each position i contributes Multiplicity(i) · NodeError(i, c).
  {
    const double mult = problem.Multiplicity(0);
    const double* err = problem.NodeErrorRow(0);
    for (size_t c = 0; c < num_cand; ++c) {
      dp[c] = mult * err[c];
    }
  }

  for (size_t i = 1; i < len; ++i) {
    int32_t* parent_row = parent + i * num_cand;
    const double mult = problem.Multiplicity(i);
    const double* err = problem.NodeErrorRow(i);
    // Pull relaxation over exactly the feasible bigrams (the W²
    // constraint): the node cost is a per-target constant, so the best
    // predecessor is simply argmin dp over the in-neighbours — one
    // compare per edge instead of a multiply-add per edge. The CSR walk
    // streams in_adj contiguously; dp gathers are the only scattered
    // reads, and dp is one dense line-aligned row.
    for (size_t c = 0; c < num_cand; ++c) {
      double best = kInf;
      int32_t arg = -1;
      for (size_t k = in_offsets[c]; k < in_offsets[c + 1]; ++k) {
        const int32_t u = in_adj[k];
        if (dp[static_cast<size_t>(u)] < best) {
          best = dp[static_cast<size_t>(u)];
          arg = u;
        }
      }
      if (arg < 0) {
        next[c] = kInf;
        parent_row[c] = -1;
      } else {
        next[c] = best + mult * err[c];
        parent_row[c] = arg;
      }
    }
    std::swap(dp, next);
  }

  size_t best = num_cand;
  double best_cost = kInf;
  for (size_t c = 0; c < num_cand; ++c) {
    if (dp[c] < best_cost) {
      best_cost = dp[c];
      best = c;
    }
  }
  if (best == num_cand) {
    return Status::FailedPrecondition(
        "no feasible region sequence exists over the candidate set");
  }

  out.resize(len);
  size_t cur = best;
  for (size_t i = len; i-- > 0;) {
    out[i] = candidates[cur];
    if (i > 0) cur = static_cast<size_t>(parent[i * num_cand + cur]);
  }
  return Status::Ok();
}

StatusOr<region::RegionTrajectory> ViterbiReconstructor::Reconstruct(
    const ReconstructionProblem& problem) {
  ViterbiWorkspace ws;
  region::RegionTrajectory out;
  TRAJLDP_RETURN_NOT_OK(ReconstructInto(problem, ws, out));
  return out;
}

}  // namespace trajldp::core
