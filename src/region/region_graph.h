#ifndef TRAJLDP_REGION_REGION_GRAPH_H_
#define TRAJLDP_REGION_REGION_GRAPH_H_

#include <span>
#include <vector>

#include "model/reachability.h"
#include "region/decomposition.h"

namespace trajldp::region {

/// \brief Directed region reachability graph underlying W_n (§5.3).
///
/// Edge (r_a → r_b) exists iff a region-level bigram {r_a, r_b} is
/// feasible:
///  1. time order — the intervals admit timesteps t_a < t_b; and
///  2. reachability — at least one POI pair (p ∈ r_a, q ∈ r_b) satisfies
///     d_s(p, q) ≤ θ, where θ = speed × reference gap (§4.1).
///
/// Feasible n-grams are exactly the length-(n−1) walks of this graph, so
/// the graph *is* W_n in factored form: |W_n| is obtained by path counting
/// and EM sampling over W_n by forward-backward DP (ngram_domain.h),
/// without materialising the n-gram set.
///
/// Construction costs R² time-order checks over the R regions plus at
/// most K² spatial tests over their K distinct POI sets: condition 2
/// reads only the two POI sets, so regions with equal sets (one POI open
/// for many hours recurs once per interval) share one test, memoised in
/// K² bytes. A spatial test accepts without POI checks when the bounding
/// boxes' max distance is within θ, rejects when their min distance
/// exceeds θ, and scans POI pairs exactly otherwise.
class RegionGraph {
 public:
  /// Builds the graph. `decomp` must outlive the result.
  static RegionGraph Build(const StcDecomposition& decomp,
                           const model::ReachabilityConfig& reach);

  size_t num_regions() const { return offsets_.size() - 1; }
  size_t num_edges() const { return targets_.size(); }

  /// Regions reachable as the next step after `from`, ascending order.
  std::span<const RegionId> Neighbors(RegionId from) const {
    return {targets_.data() + offsets_[from],
            targets_.data() + offsets_[from + 1]};
  }

  /// True when the bigram {a, b} is feasible.
  bool HasEdge(RegionId a, RegionId b) const;

  /// Number of feasible n-grams |W_n| = number of length-(n−1) walks,
  /// computed by DP in O(n·E). Returned as double (the count explodes
  /// combinatorially; the utility bound only needs ln|W_n|).
  double CountNgrams(int n) const;

  const StcDecomposition& decomposition() const { return *decomp_; }
  const model::ReachabilityConfig& reachability() const { return reach_; }

 private:
  RegionGraph(const StcDecomposition* decomp,
              const model::ReachabilityConfig& reach)
      : decomp_(decomp), reach_(reach) {}

  const StcDecomposition* decomp_;
  model::ReachabilityConfig reach_;
  // CSR adjacency.
  std::vector<size_t> offsets_;
  std::vector<RegionId> targets_;
};

}  // namespace trajldp::region

#endif  // TRAJLDP_REGION_REGION_GRAPH_H_
