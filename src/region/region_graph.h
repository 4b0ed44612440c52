#ifndef TRAJLDP_REGION_REGION_GRAPH_H_
#define TRAJLDP_REGION_REGION_GRAPH_H_

#include <cstdint>
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
///
/// The graph keeps that factoring next to the edge list:
///
///   HasEdge(a, b) == interval_begin(a) + g_t < interval_end(b) &&
///                    poi_set(a) ∈ SetPredecessors(poi_set(b))
///
/// ViterbiReconstructor relaxes one POI set at a time through it when
/// relax_by_set() says that is cheaper than one edge at a time.
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

  /// Id of region `r`'s POI set. Regions with equal POI sets share an
  /// id; ids are dense from 0 in order of each set's lowest region.
  uint32_t poi_set(RegionId r) const { return poi_set_[r]; }
  size_t num_poi_sets() const { return member_offsets_.size() - 1; }

  /// The regions whose POI set is `s`, ascending by (interval begin, id).
  std::span<const RegionId> SetMembers(uint32_t s) const {
    return {members_.data() + member_offsets_[s],
            members_.data() + member_offsets_[s + 1]};
  }

  /// The POI sets whose regions pass the spatial test toward the regions
  /// of `s`, ascending: `s` itself, every set the memo found reachable,
  /// or every set when reachability is unconstrained.
  std::span<const uint32_t> SetPredecessors(uint32_t s) const {
    return {predecessors_.data() + predecessor_offsets_[s],
            predecessors_.data() + predecessor_offsets_[s + 1]};
  }

  /// Region `r`'s interval [begin, end) in minutes of day.
  int interval_begin(RegionId r) const { return begin_[r]; }
  int interval_end(RegionId r) const { return ends_[end_index_[r]]; }
  /// The distinct interval ends, ascending, and `r`'s position among them.
  std::span<const int> interval_ends() const { return ends_; }
  uint32_t end_index(RegionId r) const { return end_index_[r]; }

  /// True when the per-set relaxation is expected to beat the per-edge
  /// one: 2 · (Σ_s |SetPredecessors(s)| + sets × distinct ends +
  /// 2 · regions) < num_edges(). docs/PERF.md §Ranked walk derives it.
  bool relax_by_set() const { return relax_by_set_; }

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
  // The factored edge test.
  std::vector<uint32_t> poi_set_;
  std::vector<uint32_t> member_offsets_;
  std::vector<RegionId> members_;
  std::vector<uint32_t> predecessor_offsets_;
  std::vector<uint32_t> predecessors_;
  std::vector<int> begin_;
  std::vector<int> ends_;
  std::vector<uint32_t> end_index_;
  bool relax_by_set_ = false;
};

}  // namespace trajldp::region

#endif  // TRAJLDP_REGION_REGION_GRAPH_H_
