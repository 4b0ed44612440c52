#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/lp_reconstructor.h"
#include "core/ngram_perturber.h"
#include "core/reconstruction.h"
#include "core/viterbi_reconstructor.h"
#include "geo/latlon.h"
#include "hierarchy/category_tree.h"
#include "model/opening_hours.h"
#include "region/region_index.h"
#include "test_world.h"

namespace trajldp::core {
namespace {

using trajldp::testing::MakeGridWorld;

class ReconstructionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = MakeGridWorld();
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<model::PoiDatabase>(std::move(*db));
    time_ = *model::TimeDomain::Create(10);

    region::DecompositionConfig config;
    config.grid_size = 2;
    config.coarse_grids = {1};
    config.base_interval_minutes = 360;
    config.merge.kappa = 1;
    auto decomp = region::StcDecomposition::Build(db_.get(), time_, config);
    ASSERT_TRUE(decomp.ok());
    decomp_ = std::make_unique<region::StcDecomposition>(std::move(*decomp));
    distance_ = std::make_unique<region::RegionDistance>(decomp_.get());
    model::ReachabilityConfig reach;
    reach.speed_kmh = 8.0;
    reach.reference_gap_minutes = 60;
    graph_ = std::make_unique<region::RegionGraph>(
        region::RegionGraph::Build(*decomp_, reach));
    domain_ = std::make_unique<NgramDomain>(graph_.get(), distance_.get());
  }

  // All regions as the candidate set.
  std::vector<region::RegionId> AllRegions() const {
    std::vector<region::RegionId> all(decomp_->num_regions());
    for (size_t i = 0; i < all.size(); ++i) {
      all[i] = static_cast<region::RegionId>(i);
    }
    return all;
  }

  // Generates a random perturbed-n-gram set for a trajectory of `len`.
  PerturbedNgramSet RandomZ(size_t len, uint64_t seed) {
    NgramPerturber perturber(domain_.get(), NgramPerturber::Config{2, 5.0});
    region::RegionTrajectory tau;
    for (size_t i = 0; i < len; ++i) {
      tau.push_back(*decomp_->Lookup(static_cast<model::PoiId>(i),
                                     static_cast<model::Timestep>(60 + 6 * i)));
    }
    Rng rng(seed);
    auto z = perturber.Perturb(tau, rng);
    EXPECT_TRUE(z.ok());
    return *z;
  }

  // Brute-force optimum over all feasible candidate assignments.
  double BruteForceOptimum(const ReconstructionProblem& problem) const {
    const size_t len = problem.traj_len();
    const size_t num_cand = problem.candidates().size();
    double best = std::numeric_limits<double>::infinity();
    std::vector<size_t> assignment(len, 0);
    // Odometer enumeration of num_cand^len assignments.
    while (true) {
      bool feasible = true;
      for (size_t i = 0; i + 1 < len && feasible; ++i) {
        feasible = problem.Feasible(assignment[i], assignment[i + 1]);
      }
      if (feasible) best = std::min(best, problem.Objective(assignment));
      size_t k = 0;
      while (k < len && ++assignment[k] == num_cand) {
        assignment[k] = 0;
        ++k;
      }
      if (k == len) break;
    }
    return best;
  }

  double ObjectiveOf(const ReconstructionProblem& problem,
                     const region::RegionTrajectory& result) const {
    std::vector<size_t> assignment(result.size());
    const auto& cands = problem.candidates();
    for (size_t i = 0; i < result.size(); ++i) {
      assignment[i] = static_cast<size_t>(
          std::lower_bound(cands.begin(), cands.end(), result[i]) -
          cands.begin());
    }
    return problem.Objective(assignment);
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
  std::unique_ptr<region::StcDecomposition> decomp_;
  std::unique_ptr<region::RegionDistance> distance_;
  std::unique_ptr<region::RegionGraph> graph_;
  std::unique_ptr<NgramDomain> domain_;
};

TEST_F(ReconstructionFixture, NodeErrorMatchesManualSum) {
  const auto z = RandomZ(3, 11);
  auto problem = ReconstructionProblem::Create(distance_.get(), graph_.get(),
                                               3, z, AllRegions());
  ASSERT_TRUE(problem.ok());
  // e(r, i) = Σ over n-grams covering i of d(r, observed at i) (eq. 8),
  // with distances read from the precomputed float table exactly as the
  // problem builds them.
  for (size_t i = 1; i <= 3; ++i) {
    for (size_t c = 0; c < 5; ++c) {
      double expected = 0.0;
      for (const PerturbedNgram& gram : z) {
        if (gram.Covers(i)) {
          expected += static_cast<double>(
              distance_->ToAll(gram.RegionAt(i))[problem->candidates()[c]]);
        }
      }
      EXPECT_NEAR(problem->NodeError(i - 1, c), expected, 1e-9);
      // The float table is the rounded Between(); the node error must
      // stay within float precision of the exact eq. 8 sum.
      double exact = 0.0;
      for (const PerturbedNgram& gram : z) {
        if (gram.Covers(i)) {
          exact += distance_->Between(problem->candidates()[c],
                                      gram.RegionAt(i));
        }
      }
      EXPECT_NEAR(problem->NodeError(i - 1, c), exact,
                  1e-5 * (1.0 + exact));
    }
  }
}

TEST_F(ReconstructionFixture, MultiplicitiesAreOneTwoTwoOne) {
  const auto z = RandomZ(4, 12);
  auto problem = ReconstructionProblem::Create(distance_.get(), graph_.get(),
                                               4, z, AllRegions());
  ASSERT_TRUE(problem.ok());
  EXPECT_DOUBLE_EQ(problem->Multiplicity(0), 1.0);
  EXPECT_DOUBLE_EQ(problem->Multiplicity(1), 2.0);
  EXPECT_DOUBLE_EQ(problem->Multiplicity(2), 2.0);
  EXPECT_DOUBLE_EQ(problem->Multiplicity(3), 1.0);
}

TEST_F(ReconstructionFixture, ObjectiveDecomposesIntoWeightedNodeErrors) {
  const auto z = RandomZ(4, 13);
  auto problem = ReconstructionProblem::Create(distance_.get(), graph_.get(),
                                               4, z, AllRegions());
  ASSERT_TRUE(problem.ok());
  const std::vector<size_t> assignment = {0, 1, 2, 3};
  double weighted = 0.0;
  for (size_t i = 0; i < 4; ++i) {
    weighted += problem->Multiplicity(i) * problem->NodeError(i, assignment[i]);
  }
  EXPECT_NEAR(problem->Objective(assignment), weighted, 1e-9);
}

TEST_F(ReconstructionFixture, ViterbiMatchesBruteForce) {
  for (uint64_t seed : {21, 22, 23, 24}) {
    const auto z = RandomZ(4, seed);
    // Restrict candidates to a small set so brute force stays tractable;
    // include the observed regions to guarantee feasibility.
    std::vector<region::RegionId> observed;
    for (const auto& gram : z) {
      observed.insert(observed.end(), gram.regions.begin(),
                      gram.regions.end());
    }
    std::sort(observed.begin(), observed.end());
    observed.erase(std::unique(observed.begin(), observed.end()),
                   observed.end());
    auto problem = ReconstructionProblem::Create(
        distance_.get(), graph_.get(), 4, z, observed);
    ASSERT_TRUE(problem.ok());

    ViterbiReconstructor viterbi;
    auto result = viterbi.Reconstruct(*problem);
    if (!result.ok()) {
      // No feasible path over this candidate set: brute force must agree.
      EXPECT_TRUE(std::isinf(BruteForceOptimum(*problem)));
      continue;
    }
    EXPECT_NEAR(ObjectiveOf(*problem, *result), BruteForceOptimum(*problem),
                1e-9)
        << "seed " << seed;
  }
}

TEST_F(ReconstructionFixture, LpMatchesViterbiObjective) {
  for (uint64_t seed : {31, 32, 33}) {
    const auto z = RandomZ(3, seed);
    std::vector<region::RegionId> observed;
    for (const auto& gram : z) {
      observed.insert(observed.end(), gram.regions.begin(),
                      gram.regions.end());
    }
    std::sort(observed.begin(), observed.end());
    observed.erase(std::unique(observed.begin(), observed.end()),
                   observed.end());
    auto problem = ReconstructionProblem::Create(
        distance_.get(), graph_.get(), 3, z, observed);
    ASSERT_TRUE(problem.ok());

    ViterbiReconstructor viterbi;
    LpReconstructor lp;
    auto dp_result = viterbi.Reconstruct(*problem);
    auto lp_result = lp.Reconstruct(*problem);
    ASSERT_EQ(dp_result.ok(), lp_result.ok()) << "seed " << seed;
    if (!dp_result.ok()) continue;
    EXPECT_NEAR(ObjectiveOf(*problem, *dp_result),
                ObjectiveOf(*problem, *lp_result), 1e-6)
        << "seed " << seed;
  }
}

// ---------- Solver equivalence on randomized small worlds ----------

// Property-style sweep: for each seed, build a randomized small world
// (lattice shape, spacing, and opening hours all drawn from the seed),
// perturb a random trajectory, restrict to a random candidate superset of
// the observed regions, and check that the DP and LP solvers agree on the
// optimal objective. An objective-multiplicity regression in
// ReconstructionProblem (the {1, 2, ..., 2, 1} position weights) skews
// the two solvers differently, so equal objectives are the guard.
class SolverEquivalenceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverEquivalenceSweep, ViterbiAndLpAgreeOnObjective) {
  const uint64_t seed = GetParam();
  Rng world_rng(seed * 7919 + 1);

  trajldp::testing::GridWorldOptions options;
  options.rows = 3 + static_cast<int>(world_rng.UniformUint64(3));
  options.cols = 3 + static_cast<int>(world_rng.UniformUint64(3));
  options.spacing_km = 0.5 + world_rng.UniformDouble() * 1.5;
  options.restrict_odd_hours = world_rng.Bernoulli(0.5);
  auto db = MakeGridWorld(options);
  ASSERT_TRUE(db.ok());
  const auto time = *model::TimeDomain::Create(10);

  region::DecompositionConfig dconfig;
  dconfig.grid_size = 2;
  dconfig.coarse_grids = {1};
  dconfig.base_interval_minutes = 360;
  dconfig.merge.kappa = 1;
  auto decomp = region::StcDecomposition::Build(&*db, time, dconfig);
  ASSERT_TRUE(decomp.ok());
  region::RegionDistance distance(&*decomp);
  model::ReachabilityConfig reach;
  reach.speed_kmh = 6.0 + world_rng.UniformDouble() * 24.0;
  reach.reference_gap_minutes = 60;
  const auto graph = region::RegionGraph::Build(*decomp, reach);
  NgramDomain domain(&graph, &distance);
  NgramPerturber perturber(&domain, NgramPerturber::Config{2, 5.0});

  const size_t num_regions = decomp->num_regions();
  const size_t len = 2 + static_cast<size_t>(world_rng.UniformUint64(3));
  region::RegionTrajectory tau;
  for (size_t i = 0; i < len; ++i) {
    tau.push_back(
        static_cast<region::RegionId>(world_rng.UniformUint64(num_regions)));
  }
  auto z = perturber.Perturb(tau, world_rng);
  ASSERT_TRUE(z.ok());

  // Candidates: the observed regions plus a random sprinkle of others.
  std::vector<region::RegionId> candidates;
  for (const auto& gram : *z) {
    candidates.insert(candidates.end(), gram.regions.begin(),
                      gram.regions.end());
  }
  for (region::RegionId r = 0; r < num_regions; ++r) {
    if (world_rng.Bernoulli(0.4)) candidates.push_back(r);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  auto problem = ReconstructionProblem::Create(&distance, &graph, len, *z,
                                               candidates);
  ASSERT_TRUE(problem.ok());

  ViterbiReconstructor viterbi;
  LpReconstructor lp;
  auto dp_result = viterbi.Reconstruct(*problem);
  auto lp_result = lp.Reconstruct(*problem);
  ASSERT_EQ(dp_result.ok(), lp_result.ok())
      << "seed " << seed << ": DP " << dp_result.status() << ", LP "
      << lp_result.status();
  if (!dp_result.ok()) return;  // both infeasible — agreement confirmed

  auto objective_of = [&](const region::RegionTrajectory& result) {
    std::vector<size_t> assignment(result.size());
    const auto& cands = problem->candidates();
    for (size_t i = 0; i < result.size(); ++i) {
      assignment[i] = static_cast<size_t>(
          std::lower_bound(cands.begin(), cands.end(), result[i]) -
          cands.begin());
    }
    return problem->Objective(assignment);
  };
  const double dp_obj = objective_of(*dp_result);
  const double lp_obj = objective_of(*lp_result);
  EXPECT_NEAR(dp_obj, lp_obj, 1e-6 * (1.0 + std::abs(dp_obj)))
      << "seed " << seed;

  // Both solutions must be feasible region sequences.
  for (size_t i = 0; i + 1 < dp_result->size(); ++i) {
    EXPECT_TRUE(graph.HasEdge((*dp_result)[i], (*dp_result)[i + 1]));
    EXPECT_TRUE(graph.HasEdge((*lp_result)[i], (*lp_result)[i + 1]));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomWorlds, SolverEquivalenceSweep,
                         ::testing::Range<uint64_t>(0, 12));

TEST_F(ReconstructionFixture, ResetReusesBuffersAcrossProblems) {
  // One problem object re-initialised per user must behave exactly like a
  // freshly created one — this is the invariant the per-thread pipeline
  // workspaces rely on. The same holds for each solver's workspace; the
  // LP's (bigram list, LP, simplex tableau) is the scratch most likely to
  // leak state between problems.
  ReconstructionProblem reused;
  ViterbiReconstructor viterbi;
  ViterbiWorkspace viterbi_ws;
  LpReconstructor lp;
  LpReconstructorWorkspace lp_ws;
  for (uint64_t seed : {81, 82, 83, 84}) {
    const size_t len = 2 + static_cast<size_t>(seed % 3);
    const auto z = RandomZ(len, seed);
    auto fresh = ReconstructionProblem::Create(distance_.get(), graph_.get(),
                                               len, z, AllRegions());
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(reused
                    .Reset(distance_.get(), graph_.get(), len, z,
                           AllRegions())
                    .ok());
    ASSERT_EQ(reused.candidates(), fresh->candidates());
    for (size_t i = 0; i < len; ++i) {
      for (size_t c = 0; c < reused.candidates().size(); ++c) {
        ASSERT_DOUBLE_EQ(reused.NodeError(i, c), fresh->NodeError(i, c));
      }
    }
    region::RegionTrajectory via_workspace;
    ASSERT_TRUE(
        viterbi.ReconstructInto(reused, viterbi_ws, via_workspace).ok());
    auto via_fresh = viterbi.Reconstruct(*fresh);
    ASSERT_TRUE(via_fresh.ok());
    EXPECT_EQ(via_workspace, *via_fresh) << "seed " << seed;

    ASSERT_TRUE(lp.ReconstructInto(reused, lp_ws, via_workspace).ok());
    auto lp_fresh = lp.Reconstruct(*fresh);
    ASSERT_TRUE(lp_fresh.ok());
    EXPECT_EQ(via_workspace, *lp_fresh) << "LP, seed " << seed;
  }
}

TEST_F(ReconstructionFixture, ReconstructedSequencesAreFeasible) {
  const auto z = RandomZ(5, 41);
  auto problem = ReconstructionProblem::Create(distance_.get(), graph_.get(),
                                               5, z, AllRegions());
  ASSERT_TRUE(problem.ok());
  ViterbiReconstructor viterbi;
  auto result = viterbi.Reconstruct(*problem);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 5u);
  for (size_t i = 0; i + 1 < result->size(); ++i) {
    EXPECT_TRUE(graph_->HasEdge((*result)[i], (*result)[i + 1]));
  }
}

TEST_F(ReconstructionFixture, SinglePointPicksArgminNodeError) {
  const auto z = RandomZ(1, 51);
  auto problem = ReconstructionProblem::Create(distance_.get(), graph_.get(),
                                               1, z, AllRegions());
  ASSERT_TRUE(problem.ok());
  ViterbiReconstructor viterbi;
  auto result = viterbi.Reconstruct(*problem);
  ASSERT_TRUE(result.ok());
  // Verify optimality directly.
  double best = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < problem->candidates().size(); ++c) {
    best = std::min(best, problem->NodeError(0, c));
  }
  const size_t chosen = static_cast<size_t>(
      std::lower_bound(problem->candidates().begin(),
                       problem->candidates().end(), (*result)[0]) -
      problem->candidates().begin());
  EXPECT_NEAR(problem->NodeError(0, chosen), best, 1e-12);
}

TEST_F(ReconstructionFixture, CreateValidatesInputs) {
  const auto z = RandomZ(3, 61);
  // Unsorted candidates.
  EXPECT_FALSE(ReconstructionProblem::Create(distance_.get(), graph_.get(),
                                             3, z, {3, 1, 2})
                   .ok());
  // Duplicate candidates.
  EXPECT_FALSE(ReconstructionProblem::Create(distance_.get(), graph_.get(),
                                             3, z, {1, 2, 2})
                   .ok());
  // Empty candidates.
  EXPECT_FALSE(ReconstructionProblem::Create(distance_.get(), graph_.get(),
                                             3, z, {})
                   .ok());
  // Zero-length trajectory.
  EXPECT_FALSE(ReconstructionProblem::Create(distance_.get(), graph_.get(),
                                             0, z, AllRegions())
                   .ok());
  // Malformed n-gram (wrong region count).
  PerturbedNgramSet bad = {{1, 2, {0}}};
  EXPECT_FALSE(ReconstructionProblem::Create(distance_.get(), graph_.get(),
                                             2, bad, AllRegions())
                   .ok());
}

TEST_F(ReconstructionFixture, InfeasibleCandidateSetReported) {
  // The fixture's 360-minute regions all have self-edges, so build the
  // case from the time constraint instead: at the time domain's own
  // granularity no region has a self-edge, and two regions of the same
  // interval have no edge either way.
  region::DecompositionConfig config;
  config.grid_size = 2;
  config.coarse_grids = {1};
  config.base_interval_minutes = 10;
  config.merge.kappa = 1;
  auto decomp = region::StcDecomposition::Build(db_.get(), time_, config);
  ASSERT_TRUE(decomp.ok());
  region::RegionDistance distance(&*decomp);
  model::ReachabilityConfig reach;
  reach.speed_kmh = 8.0;
  reach.reference_gap_minutes = 60;
  const auto graph = region::RegionGraph::Build(*decomp, reach);
  NgramDomain domain(&graph, &distance);
  NgramPerturber perturber(&domain, NgramPerturber::Config{2, 5.0});
  const region::RegionTrajectory tau = {*decomp->Lookup(0, 60),
                                        *decomp->Lookup(1, 66)};
  Rng rng(71);
  const auto z = perturber.Perturb(tau, rng);
  ASSERT_TRUE(z.ok()) << z.status();

  // Find two regions with no edge either way.
  region::RegionId a = region::kInvalidRegion, b = region::kInvalidRegion;
  for (region::RegionId x = 0;
       x < decomp->num_regions() && a == region::kInvalidRegion; ++x) {
    for (region::RegionId y = 0; y < decomp->num_regions(); ++y) {
      if (x != y && !graph.HasEdge(x, y) && !graph.HasEdge(y, x) &&
          !graph.HasEdge(x, x) && !graph.HasEdge(y, y)) {
        a = x;
        b = y;
        break;
      }
    }
  }
  ASSERT_NE(a, region::kInvalidRegion)
      << "no region pair without edges among " << decomp->num_regions();
  std::vector<region::RegionId> candidates = {std::min(a, b),
                                              std::max(a, b)};
  auto problem =
      ReconstructionProblem::Create(&distance, &graph, 2, *z, candidates);
  ASSERT_TRUE(problem.ok());
  ViterbiReconstructor viterbi;
  auto result = viterbi.Reconstruct(*problem);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  LpReconstructor lp;
  auto lp_result = lp.Reconstruct(*problem);
  EXPECT_FALSE(lp_result.ok());
}

// ---------- The set relaxation against the per-edge relaxation ----------

// The ranked walk's branch for a target of the per-set relaxation:
// the ranking holds a predecessor set; it is full and holds none, so the
// target scans; it is short and holds finite entries, none of them a
// predecessor; or its row has no finite entry at all.
enum class Walk { kHit, kScan, kSettle, kEmpty };

// The branch the ranked walk takes for every target of one layer, from
// the previous layer's dp: the row of the target's end holds, per POI
// set, the (dp, index) minimum over the set's candidates that begin more
// than g_t before that end; the walk looks at the row's kRankedSets
// lowest finite entries and hits on the first set the target's own set
// accepts. On a miss it scans when the row has kRankedSets finite entries
// or more, and settles (+∞, −1) without a scan when it has fewer.
std::vector<Walk> WalkBranches(const ReconstructionProblem& problem,
                               const std::vector<double>& dp) {
  using Entry = std::pair<std::pair<double, size_t>, uint32_t>;
  const region::RegionGraph& graph = problem.graph();
  const auto& candidates = problem.candidates();
  const int g_t = graph.decomposition().time().granularity_minutes();
  std::map<int, std::vector<Entry>> ranked_by_end;
  std::vector<Walk> walk(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    const int end = graph.interval_end(candidates[c]);
    auto [ranked, inserted] = ranked_by_end.try_emplace(end);
    if (inserted) {
      std::map<uint32_t, std::pair<double, size_t>> row;
      for (size_t u = 0; u < candidates.size(); ++u) {
        if (std::isinf(dp[u]) ||
            graph.interval_begin(candidates[u]) + g_t >= end) {
          continue;
        }
        const auto [it, fresh] =
            row.try_emplace(graph.poi_set(candidates[u]), dp[u], u);
        if (!fresh) it->second = std::min(it->second, std::pair(dp[u], u));
      }
      for (const auto& [set, entry] : row) {
        ranked->second.push_back({entry, set});
      }
      std::ranges::sort(ranked->second);
    }
    const std::vector<Entry>& row = ranked->second;
    const size_t depth =
        std::min(row.size(), ViterbiReconstructor::kRankedSets);
    const auto accepts =
        graph.SetPredecessors(graph.poi_set(candidates[c]));
    const bool hit = std::any_of(row.begin(), row.begin() + depth,
                                 [&](const Entry& entry) {
                                   return std::ranges::binary_search(
                                       accepts, entry.second);
                                 });
    if (hit) {
      walk[c] = Walk::kHit;
    } else if (row.size() >= ViterbiReconstructor::kRankedSets) {
      walk[c] = Walk::kScan;
    } else {
      walk[c] = row.empty() ? Walk::kEmpty : Walk::kSettle;
    }
  }
  return walk;
}

// What the reference saw on one problem. `ties` counts the returned
// path's parents that had an equal-cost rival, the ones the tie-break
// decided. When the graph relaxes by set, `scans_on_path` counts the
// returned path's targets whose walk fell back to the scan, and
// `settles` the targets whose walk met finite entries, none of them a
// predecessor, and settled without a scan.
struct Observed {
  size_t ties = 0;
  size_t scans_on_path = 0;
  size_t settles = 0;
};

// The per-edge relaxation, kept as the reference for the per-set one the
// way RegionGraphTest keeps the all-pairs loop: in-neighbours from the
// graph's CSR in ascending candidate order and a strict < pull, so the
// lowest index wins among equal costs.
StatusOr<region::RegionTrajectory> ReferencePull(
    const ReconstructionProblem& problem, Observed& observed) {
  const size_t len = problem.traj_len();
  const auto& candidates = problem.candidates();
  const size_t num_cand = candidates.size();
  std::vector<std::vector<size_t>> in(num_cand);
  for (size_t u = 0; u < num_cand; ++u) {
    for (region::RegionId nb : problem.graph().Neighbors(candidates[u])) {
      const auto it = std::ranges::lower_bound(candidates, nb);
      if (it != candidates.end() && *it == nb) {
        in[static_cast<size_t>(it - candidates.begin())].push_back(u);
      }
    }
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dp(num_cand);
  for (size_t c = 0; c < num_cand; ++c) {
    dp[c] = problem.Multiplicity(0) * problem.NodeError(0, c);
  }
  std::vector<std::vector<int64_t>> parent(len, std::vector<int64_t>(num_cand));
  std::vector<std::vector<bool>> tied(len, std::vector<bool>(num_cand));
  std::vector<std::vector<Walk>> walk(len);
  for (size_t i = 1; i < len; ++i) {
    if (problem.graph().relax_by_set()) {
      walk[i] = WalkBranches(problem, dp);
      observed.settles += std::ranges::count(walk[i], Walk::kSettle);
    }
    std::vector<double> next(num_cand, kInf);
    for (size_t c = 0; c < num_cand; ++c) {
      double best = kInf;
      int64_t arg = -1;
      for (size_t u : in[c]) {
        if (dp[u] < best) {
          best = dp[u];
          arg = static_cast<int64_t>(u);
          tied[i][c] = false;
        } else if (arg >= 0 && dp[u] == best) {
          tied[i][c] = true;
        }
      }
      parent[i][c] = arg;
      if (arg >= 0) {
        next[c] = best + problem.Multiplicity(i) * problem.NodeError(i, c);
      }
    }
    dp = std::move(next);
  }
  size_t cur = num_cand;
  double best = kInf;
  for (size_t c = 0; c < num_cand; ++c) {
    if (dp[c] < best) {
      best = dp[c];
      cur = c;
    }
  }
  if (cur == num_cand) {
    return Status::FailedPrecondition("no feasible region sequence");
  }
  region::RegionTrajectory out(len);
  for (size_t i = len; i-- > 0;) {
    out[i] = candidates[cur];
    if (i > 0) {
      observed.ties += tied[i][cur] ? 1 : 0;
      if (!walk[i].empty() && walk[i][cur] == Walk::kScan) {
        ++observed.scans_on_path;
      }
      cur = static_cast<size_t>(parent[i][cur]);
    }
  }
  return out;
}

// The grid world plus one POI 50 km away, open 9:00–10:00 only: one
// region that no other region reaches and that reaches no other region.
StatusOr<model::PoiDatabase> GridWorldWithIsolatedPoi() {
  auto grid = MakeGridWorld();
  if (!grid.ok()) return grid.status();
  std::vector<model::Poi> pois = grid->pois();
  model::Poi far = pois.back();
  far.name = "isolated";
  far.location = geo::OffsetKm(far.location, 50.0, 50.0);
  far.hours = model::OpeningHours::Daily(9 * 60, 10 * 60);
  pois.push_back(std::move(far));
  return model::PoiDatabase::Create(std::move(pois),
                                    trajldp::testing::MakeSmallTree());
}

TEST(ViterbiRelaxationTest, BothRelaxationsReturnTheSameSequence) {
  struct World {
    std::string name;
    StatusOr<model::PoiDatabase> db;
    int base_interval_minutes;
    model::ReachabilityConfig reach;
  };
  const model::ReachabilityConfig walk{8.0, 60};
  World worlds[] = {
      // The fixture grid: 360-minute intervals, all POIs open all day.
      {"fixture", MakeGridWorld(), 360, walk},
      // Sets recur, distinct sets share members.
      {"staggered", trajldp::testing::MakeStaggeredWorld(), 60, {8.0, 30}},
      // A regular lattice: equal distances give equal-cost ties. With
      // hourly intervals its sets recur; all day, every set is one region.
      {"hourly lattice", MakeGridWorld(), 60, walk},
      {"all-day lattice", MakeGridWorld(), 1440, walk},
      {"isolated region", GridWorldWithIsolatedPoi(), 60, walk},
      // Base interval = g_t: no region has a self-edge.
      {"ten-minute", MakeGridWorld(), 10, walk},
      {"unconstrained", MakeGridWorld(), 60,
       model::ReachabilityConfig::Unconstrained()},
  };
  const auto time = *model::TimeDomain::Create(10);
  // One workspace across every problem and both relaxations.
  ViterbiWorkspace ws;
  ReconstructionProblem problem;
  region::RegionTrajectory out;
  bool ran_by_set = false, ran_by_edge = false, infeasible = false,
       isolated = false;
  Observed seen;
  size_t solves = 0;
  for (World& world : worlds) {
    SCOPED_TRACE(world.name);
    ASSERT_TRUE(world.db.ok());
    region::DecompositionConfig config;
    config.grid_size = 2;
    config.coarse_grids = {1};
    config.base_interval_minutes = world.base_interval_minutes;
    config.merge.kappa = 1;
    auto decomp = region::StcDecomposition::Build(&*world.db, time, config);
    ASSERT_TRUE(decomp.ok());
    region::RegionDistance distance(&*decomp);
    const auto graph = region::RegionGraph::Build(*decomp, world.reach);
    (graph.relax_by_set() ? ran_by_set : ran_by_edge) = true;
    NgramDomain domain(&graph, &distance);
    NgramPerturber perturber(&domain, NgramPerturber::Config{2, 2.0});
    const size_t num_regions = decomp->num_regions();
    // A region with a self-edge that no other region reaches.
    std::vector<bool> reached(num_regions);
    for (region::RegionId u = 0; u < num_regions; ++u) {
      for (region::RegionId v : graph.Neighbors(u)) {
        if (v != u) reached[v] = true;
      }
    }
    for (region::RegionId r = 0; r < num_regions; ++r) {
      isolated |= !reached[r] && graph.HasEdge(r, r);
    }
    std::vector<region::RegionId> all(num_regions);
    for (size_t r = 0; r < num_regions; ++r) {
      all[r] = static_cast<region::RegionId>(r);
    }
    Rng rng(num_regions);
    for (size_t len = 1; len <= 8; ++len) {
      for (int draw = 0; draw < 2; ++draw) {
        region::RegionTrajectory tau;
        for (size_t i = 0; i < len; ++i) {
          tau.push_back(
              static_cast<region::RegionId>(rng.UniformUint64(num_regions)));
        }
        auto z = perturber.Perturb(tau, rng);
        ASSERT_TRUE(z.ok()) << z.status();
        std::vector<region::RegionId> observed;
        for (const auto& gram : *z) {
          observed.insert(observed.end(), gram.regions.begin(),
                          gram.regions.end());
        }
        std::ranges::sort(observed);
        observed.erase(std::unique(observed.begin(), observed.end()),
                       observed.end());
        // The regions sharing the first observed region's interval: with
        // base interval = g_t they admit no path longer than one.
        std::vector<region::RegionId> one_interval;
        for (region::RegionId r : all) {
          if (decomp->region(r).time == decomp->region(observed[0]).time) {
            one_interval.push_back(r);
          }
        }
        for (const auto& candidates :
             {region::MbrCandidateRegions(*decomp, observed), all,
              one_interval}) {
          ASSERT_TRUE(
              problem.Reset(&distance, &graph, len, *z, candidates).ok());
          const Status status =
              ViterbiReconstructor::ReconstructInto(problem, ws, out);
          const auto expected = ReferencePull(problem, seen);
          ASSERT_EQ(status.code(), expected.status().code())
              << "len " << len << ", " << candidates.size()
              << " candidates: " << status;
          if (status.ok()) {
            EXPECT_EQ(out, *expected)
                << "len " << len << ", " << candidates.size()
                << " candidates";
          }
          infeasible |= status.code() == StatusCode::kFailedPrecondition;
          ++solves;
        }
      }
    }
  }
  EXPECT_TRUE(ran_by_set);
  EXPECT_TRUE(ran_by_edge);
  EXPECT_TRUE(infeasible);
  EXPECT_TRUE(isolated);
  EXPECT_GT(seen.ties, 0u) << "over " << solves << " solves";

}

// Two 3 × 3 lattices of POIs 1 km apart and 50 km from each other, so
// no region of one reaches a region of the other. Each POI lands in its
// own cell, so each is its own POI set. The near lattice is open
// 11:00–13:00, the far one 12:00–13:00.
StatusOr<model::PoiDatabase> TwoLatticeWorld() {
  hierarchy::CategoryTree tree = trajldp::testing::MakeSmallTree();
  const std::vector<hierarchy::CategoryId> leaves = tree.Leaves();
  const geo::LatLon origin{40.7000, -74.0000};
  std::vector<model::Poi> pois;
  for (int lattice = 0; lattice < 2; ++lattice) {
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) {
        model::Poi poi;
        poi.name = "poi_" + std::to_string(pois.size());
        poi.location = geo::OffsetKm(origin, 50.0 * lattice + c, r);
        poi.category = leaves[pois.size() % leaves.size()];
        poi.hours = model::OpeningHours::Daily(lattice == 0 ? 660 : 720, 780);
        pois.push_back(std::move(poi));
      }
    }
  }
  return model::PoiDatabase::Create(std::move(pois), std::move(tree));
}

// The walk's two misses. A report observed first in the near lattice and
// then in the far one is reconstructed in the far one, but in the first
// layer every near set has a lower prefix minimum than any far set, so
// the path's target finds a full ranking of near sets, none of them its
// predecessor, and must scan. With the near candidates cut to fewer than
// kRankedSets sets, a far target in the far lattice's first interval
// meets only near entries in a short ranking: it settles without a scan.
TEST(ViterbiRelaxationTest, MissedRankingsScanOrSettle) {
  auto db = TwoLatticeWorld();
  ASSERT_TRUE(db.ok());
  region::DecompositionConfig config;
  config.grid_size = 64;
  config.coarse_grids = {1};
  config.base_interval_minutes = 10;
  config.merge.kappa = 1;
  const auto time = *model::TimeDomain::Create(10);
  auto decomp = region::StcDecomposition::Build(&*db, time, config);
  ASSERT_TRUE(decomp.ok());
  region::RegionDistance distance(&*decomp);
  const auto graph = region::RegionGraph::Build(*decomp, {8.0, 60});
  ASSERT_TRUE(graph.relax_by_set());
  ASSERT_EQ(graph.num_poi_sets(), db->size());
  ASSERT_GT(graph.num_poi_sets() / 2, ViterbiReconstructor::kRankedSets);

  // The regions of each lattice, and the near lattice's sets in region
  // order.
  const double midway =
      0.5 * (db->poi(0).location.lon + db->poi(9).location.lon);
  const auto near = [&](region::RegionId r) {
    return decomp->region(r).centroid.lon < midway;
  };
  std::vector<region::RegionId> all, near_regions, far_regions;
  std::vector<uint32_t> near_sets;
  for (region::RegionId r = 0; r < decomp->num_regions(); ++r) {
    all.push_back(r);
    (near(r) ? near_regions : far_regions).push_back(r);
    if (near(r) && std::ranges::find(near_sets, graph.poi_set(r)) ==
                       near_sets.end()) {
      near_sets.push_back(graph.poi_set(r));
    }
  }
  ASSERT_EQ(near_sets.size(), db->size() / 2);
  // All far regions and the near regions of kRankedSets − 1 sets.
  const std::vector<uint32_t> kept(
      near_sets.begin(),
      near_sets.begin() + ViterbiReconstructor::kRankedSets - 1);
  std::vector<region::RegionId> short_ranking = far_regions;
  for (region::RegionId r : near_regions) {
    if (std::ranges::find(kept, graph.poi_set(r)) != kept.end()) {
      short_ranking.push_back(r);
    }
  }
  std::ranges::sort(short_ranking);

  ViterbiWorkspace ws;
  ReconstructionProblem problem;
  region::RegionTrajectory out;
  Observed seen;
  for (size_t len = 2; len <= 6; ++len) {
    for (size_t start = 0; start < far_regions.size(); start += 5) {
      // Position 1 observed at a near region, the rest at far regions.
      PerturbedNgramSet z;
      for (size_t i = 1; i < len; ++i) {
        const region::RegionId from =
            i == 1 ? near_regions[start % near_regions.size()]
                   : far_regions[(start + i) % far_regions.size()];
        z.push_back({i, i + 1,
                     {from, far_regions[(start + i + 1) % far_regions.size()]}});
      }
      for (const auto& candidates : {all, short_ranking}) {
        ASSERT_TRUE(
            problem.Reset(&distance, &graph, len, z, candidates).ok());
        const Status status =
            ViterbiReconstructor::ReconstructInto(problem, ws, out);
        const auto expected = ReferencePull(problem, seen);
        ASSERT_EQ(status.code(), expected.status().code())
            << "len " << len << ", start " << start << ", "
            << candidates.size() << " candidates: " << status;
        if (status.ok()) {
          EXPECT_EQ(out, *expected) << "len " << len << ", start " << start
                                    << ", " << candidates.size()
                                    << " candidates";
        }
      }
    }
  }
  EXPECT_GT(seen.scans_on_path, 0u);
  EXPECT_GT(seen.settles, 0u);
}

}  // namespace
}  // namespace trajldp::core
