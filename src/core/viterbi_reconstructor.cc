#include "core/viterbi_reconstructor.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace trajldp::core {

using region::RegionId;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The DP rows both relaxations fill: dp[c] / next[c] hold the cheapest
// cost of a feasible prefix ending at candidate c, and parent is the
// flattened [traj_len][candidates] back-pointer table.
struct DpRows {
  double* dp;
  double* next;
  int32_t* parent;
};

size_t DpRowBytes(size_t len, size_t num_cand) {
  return 2 * AlignedArena::BytesFor<double>(num_cand) +
         AlignedArena::BytesFor<int32_t>(len * num_cand);
}

// Carves the DP rows and fills layer 0: each position i contributes
// Multiplicity(i) · NodeError(i, c). No parent fill: every entry the
// backtrack can read (rows 1..len−1) is written unconditionally by the
// layer loop.
DpRows CarveDpRows(const ReconstructionProblem& problem, AlignedArena& arena) {
  const size_t num_cand = problem.candidates().size();
  DpRows rows{arena.Carve<double>(num_cand), arena.Carve<double>(num_cand),
              arena.Carve<int32_t>(problem.traj_len() * num_cand)};
  const double mult = problem.Multiplicity(0);
  const double* err = problem.NodeErrorRow(0);
  for (size_t c = 0; c < num_cand; ++c) rows.dp[c] = mult * err[c];
  return rows;
}

// Target c's next-layer cost from its best predecessor `arg` (−1: none).
inline void Settle(double best, int32_t arg, double mult, double err,
                   double& next, int32_t& parent) {
  if (arg < 0) {
    next = kInf;
    parent = -1;
  } else {
    next = best + mult * err;
    parent = arg;
  }
}

// (dp, candidate index) order: the lower cost wins and the lower index
// breaks a tie, which is the parent the per-edge pull picks. The start
// value (+∞, −1) loses to every finite cost and beats every infinite
// one, so a target without a finite predecessor keeps index −1.
inline bool Precedes(double cost, int32_t index, double best_cost,
                     int32_t best_index) {
  return cost < best_cost || (cost == best_cost && index < best_index);
}

// One edge at a time: a candidate-restricted in-adjacency in CSR form,
// built once per user, then a pull over exactly the feasible bigrams in
// every layer.
DpRows RelaxByEdge(const ReconstructionProblem& problem, AlignedArena& arena) {
  const size_t len = problem.traj_len();
  const auto& candidates = problem.candidates();
  const size_t num_cand = candidates.size();
  const region::RegionGraph& graph = problem.graph();
  const size_t num_regions = graph.num_regions();

  // in_adj is sized by the candidates' total out-degree — a cheap upper
  // bound on the candidate-restricted edge count that avoids a third
  // adjacency pass.
  size_t max_edges = 0;
  for (size_t u = 0; u < num_cand; ++u) {
    max_edges += graph.Neighbors(candidates[u]).size();
  }
  arena.Reset(DpRowBytes(len, num_cand) +
              AlignedArena::BytesFor<int32_t>(num_regions) +
              AlignedArena::BytesFor<uint32_t>(num_cand + 1) +
              AlignedArena::BytesFor<uint32_t>(num_cand) +
              AlignedArena::BytesFor<int32_t>(max_edges));
  DpRows rows = CarveDpRows(problem, arena);
  // cand_index[region] = candidate index, or −1 when not a candidate.
  int32_t* cand_index = arena.Carve<int32_t>(num_regions);
  uint32_t* in_offsets = arena.Carve<uint32_t>(num_cand + 1);
  uint32_t* in_cursor = arena.Carve<uint32_t>(num_cand);
  int32_t* in_adj = arena.Carve<int32_t>(max_edges);

  std::fill_n(cand_index, num_regions, int32_t{-1});
  for (size_t c = 0; c < num_cand; ++c) {
    cand_index[candidates[c]] = static_cast<int32_t>(c);
  }

  // in_adj slice c lists the candidate indices u with a feasible bigram
  // candidates[u] → candidates[c], ascending — two counting/fill passes
  // over the candidates' out-edges. The u-ascending fill order is what
  // makes the pull below pick the lowest-index parent among equal costs.
  std::fill_n(in_offsets, num_cand + 1, uint32_t{0});
  for (size_t u = 0; u < num_cand; ++u) {
    for (RegionId nb : graph.Neighbors(candidates[u])) {
      const int32_t c = cand_index[nb];
      if (c >= 0) ++in_offsets[static_cast<size_t>(c) + 1];
    }
  }
  for (size_t c = 0; c < num_cand; ++c) {
    in_offsets[c + 1] += in_offsets[c];
  }
  std::copy_n(in_offsets, num_cand, in_cursor);
  for (size_t u = 0; u < num_cand; ++u) {
    for (RegionId nb : graph.Neighbors(candidates[u])) {
      const int32_t c = cand_index[nb];
      if (c >= 0) {
        in_adj[in_cursor[static_cast<size_t>(c)]++] = static_cast<int32_t>(u);
      }
    }
  }

  for (size_t i = 1; i < len; ++i) {
    int32_t* parent_row = rows.parent + i * num_cand;
    const double mult = problem.Multiplicity(i);
    const double* err = problem.NodeErrorRow(i);
    // The node cost is a per-target constant, so the best predecessor is
    // simply argmin dp over the in-neighbours — one compare per edge.
    for (size_t c = 0; c < num_cand; ++c) {
      double best = kInf;
      int32_t arg = -1;
      for (size_t k = in_offsets[c]; k < in_offsets[c + 1]; ++k) {
        const int32_t u = in_adj[k];
        if (rows.dp[static_cast<size_t>(u)] < best) {
          best = rows.dp[static_cast<size_t>(u)];
          arg = u;
        }
      }
      Settle(best, arg, mult, err[c], rows.next[c], parent_row[c]);
    }
    std::swap(rows.dp, rows.next);
  }
  return rows;
}

// One entry of an end's ranking: a (dp, index) prefix minimum and the
// present set it came from. Empty slots hold (+∞, −1).
struct RankedSet {
  double cost;
  int32_t index;
  uint32_t set;
};

// Inserts a finite entry into an end's ranking, which keeps that row's
// kRankedSets lowest entries in ascending (dp, index) order. Every
// finite entry precedes an empty slot.
inline void Rank(const RankedSet& entry, RankedSet* top) {
  size_t j = ViterbiReconstructor::kRankedSets - 1;
  if (!Precedes(entry.cost, entry.index, top[j].cost, top[j].index)) return;
  for (; j > 0 && Precedes(entry.cost, entry.index, top[j - 1].cost,
                           top[j - 1].index);
       --j) {
    top[j] = top[j - 1];
  }
  top[j] = entry;
}

// One POI set at a time, through the graph's factored edge test: u → c
// is an edge iff begin(u) + g_t < end(c) and poi_set(u) is a spatial
// predecessor of poi_set(c). Along one set ordered by interval begin,
// the candidates that precede c in time are a prefix, so c's best
// predecessor is the (dp, index) minimum over one prefix minimum per
// predecessor set. Sets here are the present ones, those with a
// candidate, numbered 0..P−1 in candidate order.
//
// Sets have disjoint members, so no two finite entries of one end's row
// share an index and (dp, index) orders them strictly. Each layer ranks
// every end's row once, and a target takes the first ranked set its own
// set accepts as a predecessor: that is the minimum over its
// predecessors. Only when the ranking is full and holds none of them
// does the target scan its predecessors; a ranking that is not full
// holds every finite entry of its row, so a miss there means no finite
// predecessor.
DpRows RelaxBySet(const ReconstructionProblem& problem, AlignedArena& arena) {
  constexpr size_t kRanked = ViterbiReconstructor::kRankedSets;
  const size_t len = problem.traj_len();
  const auto& candidates = problem.candidates();
  const size_t num_cand = candidates.size();
  const region::RegionGraph& graph = problem.graph();
  const size_t num_regions = graph.num_regions();
  const size_t num_sets = graph.num_poi_sets();
  const std::span<const int> ends = graph.interval_ends();
  const size_t num_ends = ends.size();
  const int g_t = graph.decomposition().time().granularity_minutes();

  const size_t max_present = std::min(num_sets, num_cand);
  const size_t max_words = (max_present + 63) / 64;
  arena.Reset(DpRowBytes(len, num_cand) +
              AlignedArena::BytesFor<int32_t>(num_regions) +
              AlignedArena::BytesFor<int32_t>(num_sets) +
              AlignedArena::BytesFor<uint32_t>(max_present) +
              AlignedArena::BytesFor<uint32_t>(max_present + 1) +
              AlignedArena::BytesFor<int32_t>(num_cand) +
              AlignedArena::BytesFor<uint32_t>(num_ends * max_present) +
              AlignedArena::BytesFor<uint64_t>(max_present * max_words) +
              AlignedArena::BytesFor<double>(num_ends * max_present) +
              AlignedArena::BytesFor<int32_t>(num_ends * max_present) +
              AlignedArena::BytesFor<RankedSet>(num_ends * kRanked));
  DpRows rows = CarveDpRows(problem, arena);
  // cand_index[region] = candidate index, or −1 when not a candidate.
  int32_t* cand_index = arena.Carve<int32_t>(num_regions);
  // present_id[set] = present-set number, or −1 when the set has no
  // candidate; present_set[p] is the graph's id of present set p.
  int32_t* present_id = arena.Carve<int32_t>(num_sets);
  uint32_t* present_set = arena.Carve<uint32_t>(max_present);
  // members[member_offsets[p] ..] = present set p's candidates in
  // (begin, index) order.
  uint32_t* member_offsets = arena.Carve<uint32_t>(max_present + 1);
  int32_t* members = arena.Carve<int32_t>(num_cand);
  // prefix_end[e · P + p]: end of the prefix of p's members that begin
  // more than g_t before distinct end e.
  uint32_t* prefix_end = arena.Carve<uint32_t>(num_ends * max_present);
  // Bit q of accepts[p · words ..] is set iff present set q is a
  // predecessor of p.
  uint64_t* accepts = arena.Carve<uint64_t>(max_present * max_words);
  // best_*[e · P + p]: the (dp, index) minimum over that prefix.
  double* best_cost = arena.Carve<double>(num_ends * max_present);
  int32_t* best_index = arena.Carve<int32_t>(num_ends * max_present);
  // ranked[e · kRanked ..]: end e's ranking.
  RankedSet* ranked = arena.Carve<RankedSet>(num_ends * kRanked);

  std::fill_n(cand_index, num_regions, int32_t{-1});
  std::fill_n(present_id, num_sets, int32_t{-1});
  size_t num_present = 0;
  for (size_t c = 0; c < num_cand; ++c) {
    cand_index[candidates[c]] = static_cast<int32_t>(c);
    const uint32_t s = graph.poi_set(candidates[c]);
    if (present_id[s] < 0) {
      present_id[s] = static_cast<int32_t>(num_present);
      present_set[num_present++] = s;
    }
  }
  const size_t words = (num_present + 63) / 64;
  std::fill_n(accepts, num_present * words, uint64_t{0});
  // Candidate indices ascend with region ids, so the graph's
  // (begin, id) member order filtered to candidates is (begin, index).
  member_offsets[0] = 0;
  size_t num_members = 0;
  for (size_t p = 0; p < num_present; ++p) {
    for (RegionId r : graph.SetMembers(present_set[p])) {
      if (cand_index[r] >= 0) members[num_members++] = cand_index[r];
    }
    member_offsets[p + 1] = static_cast<uint32_t>(num_members);
    size_t k = member_offsets[p];
    for (size_t e = 0; e < num_ends; ++e) {
      while (k < num_members &&
             graph.interval_begin(candidates[members[k]]) + g_t < ends[e]) {
        ++k;
      }
      prefix_end[e * num_present + p] = static_cast<uint32_t>(k);
    }
    for (uint32_t from : graph.SetPredecessors(present_set[p])) {
      const int32_t q = present_id[from];
      if (q >= 0) accepts[p * words + q / 64] |= uint64_t{1} << (q % 64);
    }
  }

  for (size_t i = 1; i < len; ++i) {
    int32_t* parent_row = rows.parent + i * num_cand;
    const double mult = problem.Multiplicity(i);
    const double* err = problem.NodeErrorRow(i);
    // Prefix minima along each present set, one table entry per
    // (distinct end, set), ranked into their end's row as they come.
    // An infinite dp never enters a minimum, so an entry is finite iff
    // its index is set.
    std::fill_n(ranked, num_ends * kRanked, RankedSet{kInf, -1, 0});
    for (size_t p = 0; p < num_present; ++p) {
      double cost = kInf;
      int32_t index = -1;
      size_t k = member_offsets[p];
      for (size_t e = 0; e < num_ends; ++e) {
        for (const size_t stop = prefix_end[e * num_present + p]; k < stop;
             ++k) {
          const int32_t u = members[k];
          if (Precedes(rows.dp[u], u, cost, index)) {
            cost = rows.dp[u];
            index = u;
          }
        }
        best_cost[e * num_present + p] = cost;
        best_index[e * num_present + p] = index;
        if (index >= 0) {
          Rank({cost, index, static_cast<uint32_t>(p)}, ranked + e * kRanked);
        }
      }
    }
    // Each target: the minimum over its set's predecessors at its end.
    for (size_t p = 0; p < num_present; ++p) {
      const uint64_t* accepted = accepts + p * words;
      for (size_t k = member_offsets[p]; k < member_offsets[p + 1]; ++k) {
        const auto c = static_cast<size_t>(members[k]);
        const size_t e = graph.end_index(candidates[c]);
        // The walk stops at the first accepted set or at an empty slot,
        // which settles (+∞, −1); past a full ranking it scans.
        const RankedSet* top = ranked + e * kRanked;
        size_t j = 0;
        while (j < kRanked && top[j].index >= 0 &&
               !((accepted[top[j].set / 64] >> (top[j].set % 64)) & 1)) {
          ++j;
        }
        double best = kInf;
        int32_t arg = -1;
        if (j < kRanked) {
          best = top[j].cost;
          arg = top[j].index;
        } else {
          const size_t row = e * num_present;
          for (size_t w = 0; w < words; ++w) {
            for (uint64_t bits = accepted[w]; bits != 0; bits &= bits - 1) {
              const size_t q = row + w * 64 + std::countr_zero(bits);
              if (Precedes(best_cost[q], best_index[q], best, arg)) {
                best = best_cost[q];
                arg = best_index[q];
              }
            }
          }
        }
        Settle(best, arg, mult, err[c], rows.next[c], parent_row[c]);
      }
    }
    std::swap(rows.dp, rows.next);
  }
  return rows;
}

}  // namespace

Status ViterbiReconstructor::ReconstructInto(
    const ReconstructionProblem& problem, ViterbiWorkspace& ws,
    region::RegionTrajectory& out) {
  const size_t len = problem.traj_len();
  const auto& candidates = problem.candidates();
  const size_t num_cand = candidates.size();

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

  const DpRows rows = problem.graph().relax_by_set()
                          ? RelaxBySet(problem, ws.arena)
                          : RelaxByEdge(problem, ws.arena);

  size_t best = num_cand;
  double best_cost = kInf;
  for (size_t c = 0; c < num_cand; ++c) {
    if (rows.dp[c] < best_cost) {
      best_cost = rows.dp[c];
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
    if (i > 0) cur = static_cast<size_t>(rows.parent[i * num_cand + cur]);
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
