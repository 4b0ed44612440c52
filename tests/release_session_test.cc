#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/mechanism.h"
#include "core/streaming_collector.h"
#include "io/wire.h"
#include "obs/metrics.h"
#include "test_world.h"

namespace trajldp::core {
namespace {

using trajldp::testing::MakeGridWorld;
using trajldp::testing::MakeTrajectory;

// One device sharing again and again over its lifetime. Each release is
// perturbed on the device at ε and reconstructed by a collector, whose
// ledger trajldp_collector_epsilon_spent is §5.7's composition: k
// releases cost kε.
class ReleaseSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trajldp::testing::GridWorldOptions options;
    options.rows = 4;
    options.cols = 4;
    auto db = MakeGridWorld(options);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<model::PoiDatabase>(std::move(*db));
    time_ = *model::TimeDomain::Create(10);
  }

  void Build(double epsilon, int n) {
    NGramConfig config;
    config.epsilon = epsilon;
    config.n = n;
    config.decomposition.merge.kappa = 1;
    auto mech = NGramMechanism::Build(db_.get(), time_, config);
    ASSERT_TRUE(mech.ok()) << mech.status();
    mech_ = std::make_unique<NGramMechanism>(std::move(*mech));
  }

  // The device side of one release: user 0's trajectory in regions,
  // perturbed with `rng` and framed with the ε′ the perturber spends.
  io::WireReport Share(const model::Trajectory& traj, Rng& rng) const {
    region::RegionTrajectory tau;
    for (const model::TrajectoryPoint& p : traj.points()) {
      tau.push_back(*mech_->decomposition().Lookup(p.poi, p.t));
    }
    auto z = mech_->perturber().Perturb(tau, rng);
    EXPECT_TRUE(z.ok()) << z.status();
    std::vector<PerturbedNgramSet> perturbed;
    perturbed.push_back(std::move(*z));
    return MakeWireReports(std::span(&tau, 1), std::move(perturbed),
                           mech_->perturber())[0];
  }

  // Releases `reports` through one collector into `out` and returns its
  // ledger after Finish().
  double Collect(io::ReportBatch reports, std::vector<FullRelease>* out) {
    StreamingCollector::Config config;
    config.num_threads = 2;
    StreamingCollector collector(
        mech_.get(), /*seed=*/11,
        [out](UserRelease release) {
          out->push_back(std::move(release.release));
        },
        config);
    EXPECT_TRUE(collector.Push(std::move(reports)).ok());
    EXPECT_TRUE(collector.Finish().ok());
    EXPECT_EQ(collector.reports_released(), out->size());
    const obs::RegistrySnapshot snapshot = collector.metrics()->Snapshot();
    const obs::MetricSnapshot* spent =
        snapshot.Find("trajldp_collector_epsilon_spent");
    EXPECT_NE(spent, nullptr);
    return spent == nullptr ? -1.0 : spent->value;
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
  std::unique_ptr<NGramMechanism> mech_;
};

TEST_F(ReleaseSessionTest, ComposesKReleasesToLifetime) {
  // ε = 2 per release, shared on three days → 6 over the lifetime.
  Build(2.0, 2);
  const auto traj = MakeTrajectory({{0, 30}, {1, 40}});
  Rng rng(1);
  io::ReportBatch days;
  for (int day = 0; day < 3; ++day) days.push_back(Share(traj, rng));
  std::vector<FullRelease> out;
  EXPECT_EQ(Collect(std::move(days), &out), 6.0);
  ASSERT_EQ(out.size(), 3u);
  for (const FullRelease& release : out) {
    EXPECT_EQ(release.trajectory.size(), traj.size());
    EXPECT_TRUE(release.trajectory.Validate(time_).ok());
  }
}

TEST_F(ReleaseSessionTest, NoBudgetDriftOverTenThousandReleases) {
  // ε = 0.1 is not representable in binary floating point, so a running
  // `spent += ε` drifts away from k·ε over many releases. The ledger is
  // released × ε in one multiplication: after 10,000 releases it reads
  // exactly 10,000 × 0.1, which the running sum does not.
  constexpr size_t kReleases = 10000;
  constexpr double kEpsilon = 0.1;
  double running = 0.0;
  for (size_t k = 0; k < kReleases; ++k) running += kEpsilon;
  ASSERT_NE(running, kReleases * kEpsilon);

  Build(kEpsilon, 1);
  Rng rng(7);
  const auto traj = MakeTrajectory({{0, 30}});
  io::ReportBatch reports;
  for (size_t k = 0; k < kReleases; ++k) reports.push_back(Share(traj, rng));
  std::vector<FullRelease> out;
  EXPECT_EQ(Collect(std::move(reports), &out), kReleases * kEpsilon);
  EXPECT_EQ(out.size(), kReleases);
}

TEST_F(ReleaseSessionTest, ContinuousSinglePointSharing) {
  // §8's continuous setting: n = 1, one point per release. A one-point
  // report is one draw at the whole ε, and the collector releases it as
  // one valid point.
  Build(0.5, 1);
  Rng rng(3);
  io::ReportBatch reports;
  for (model::Timestep t = 30; t < 60; t += 6) {
    reports.push_back(
        Share(MakeTrajectory({{static_cast<model::PoiId>(t % 16), t}}), rng));
    EXPECT_EQ(reports.back().trajectory_len, 1u);
    EXPECT_EQ(reports.back().ngrams.size(), 1u);
    EXPECT_EQ(reports.back().epsilon_prime, 0.5);
  }
  std::vector<FullRelease> out;
  EXPECT_EQ(Collect(std::move(reports), &out), 5 * 0.5);
  ASSERT_EQ(out.size(), 5u);
  for (const FullRelease& release : out) {
    EXPECT_EQ(release.trajectory.size(), 1u);
    EXPECT_TRUE(release.trajectory.Validate(time_).ok());
  }
}

}  // namespace
}  // namespace trajldp::core
