#include <gtest/gtest.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/batch_release_engine.h"
#include "core/mechanism.h"
#include "core/shard_plan.h"
#include "core/streaming_collector.h"
#include "io/wire.h"
#include "obs/metrics.h"
#include "test_world.h"

namespace trajldp::core {
namespace {

using trajldp::testing::MakeGridWorld;

// The acceptance criterion of the streaming refactor: K independent
// collectors over any user partition, fed any batch sizes, with any
// worker counts, produce output bit-identical to
// BatchReleaseEngine::ReleaseAllFull (itself bit-identical to the
// sequential ReleaseFromRegions loop) under the same seed.
class StreamingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    trajldp::testing::GridWorldOptions options;
    options.rows = 15;
    options.cols = 15;
    auto db = MakeGridWorld(options);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<model::PoiDatabase>(std::move(*db));
    time_ = *model::TimeDomain::Create(10);
    UseEpsilon(5.0);
  }

  // (Re)builds mech_ with total budget `epsilon`.
  void UseEpsilon(double epsilon) {
    NGramConfig config;
    config.n = 2;
    config.epsilon = epsilon;
    config.decomposition.grid_size = 5;
    config.decomposition.coarse_grids = {1};
    config.decomposition.base_interval_minutes = 720;
    config.decomposition.merge.kappa = 1;
    config.reachability.speed_kmh = 30.0;
    config.reachability.reference_gap_minutes = 60;
    auto mech = NGramMechanism::Build(db_.get(), time_, config);
    ASSERT_TRUE(mech.ok()) << mech.status();
    mech_ = std::make_unique<NGramMechanism>(std::move(*mech));
  }

  std::vector<region::RegionTrajectory> MakeUsers(size_t count,
                                                  uint64_t seed) const {
    const auto num_regions =
        static_cast<uint64_t>(mech_->decomposition().num_regions());
    Rng rng(seed);
    std::vector<region::RegionTrajectory> users(count);
    for (auto& tau : users) {
      const size_t len = 2 + static_cast<size_t>(rng.UniformUint64(4));
      for (size_t i = 0; i < len; ++i) {
        tau.push_back(
            static_cast<region::RegionId>(rng.UniformUint64(num_regions)));
      }
    }
    return users;
  }

  // The device side of the streaming story: the perturbed reports exactly
  // as a perturb-only collection (ReleaseAll) would gather them — which,
  // by the pipeline's RNG seam, are the same n-gram sets ReleaseAllFull
  // consumes internally.
  io::ReportBatch MakeReports(
      const std::vector<region::RegionTrajectory>& users, uint64_t seed) {
    BatchReleaseEngine engine(&mech_->perturber(),
                              BatchReleaseEngine::Config{2});
    auto perturbed = engine.ReleaseAll(users, seed);
    EXPECT_TRUE(perturbed.ok()) << perturbed.status();
    return MakeWireReports(users, std::move(*perturbed), mech_->perturber());
  }

  std::vector<FullRelease> Reference(
      const std::vector<region::RegionTrajectory>& users, uint64_t seed) {
    BatchReleaseEngine engine(mech_.get(), BatchReleaseEngine::Config{2});
    auto reference = engine.ReleaseAllFull(users, seed);
    EXPECT_TRUE(reference.ok()) << reference.status();
    return std::move(*reference);
  }

  // Streams `reports` through `num_shards` independent collectors in
  // batches of `batch_size`, optionally over the wire encoding, and
  // merges the shard outputs.
  StatusOr<std::vector<FullRelease>> StreamAndMerge(
      const io::ReportBatch& reports, uint64_t seed, size_t num_shards,
      size_t batch_size, size_t num_threads, size_t queue_capacity,
      bool encoded) {
    const ShardPlan plan{num_shards};
    auto sharded = PartitionByShard(plan, io::ReportBatch(reports));
    std::vector<std::vector<UserRelease>> outputs(sharded.size());
    for (size_t s = 0; s < sharded.size(); ++s) {
      StreamingCollector::Config config;
      config.num_threads = num_threads;
      config.queue_capacity = queue_capacity;
      StreamingCollector collector(
          mech_.get(), seed,
          [&outputs, s](UserRelease release) {
            outputs[s].push_back(std::move(release));
          },
          config);
      for (size_t begin = 0; begin < sharded[s].size();
           begin += batch_size) {
        const size_t end = std::min(begin + batch_size, sharded[s].size());
        io::ReportBatch batch(sharded[s].begin() + begin,
                              sharded[s].begin() + end);
        Status pushed;
        if (encoded) {
          auto frame = io::EncodeReportBatch(batch);
          TRAJLDP_RETURN_NOT_OK(frame.status());
          pushed = collector.PushEncoded(std::move(*frame));
        } else {
          pushed = collector.Push(std::move(batch));
        }
        TRAJLDP_RETURN_NOT_OK(pushed);
      }
      TRAJLDP_RETURN_NOT_OK(collector.Finish());
    }
    return MergeShardReleases(std::move(outputs), reports.size());
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
  std::unique_ptr<NGramMechanism> mech_;
};

void ExpectIdenticalReleases(const std::vector<FullRelease>& a,
                             const std::vector<FullRelease>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].regions, b[i].regions) << "user " << i;
    EXPECT_EQ(a[i].trajectory, b[i].trajectory) << "user " << i;
    EXPECT_EQ(a[i].poi_attempts, b[i].poi_attempts) << "user " << i;
    EXPECT_EQ(a[i].smoothed, b[i].smoothed) << "user " << i;
  }
}

// The ASan/UBSan-suite determinism smoke: 1 shard vs 4 shards, both
// against the in-process batch engine.
TEST_F(StreamingFixture, OneVsFourShardsMatchBatchEngine) {
  const uint64_t seed = 20260729;
  const auto users = MakeUsers(24, 3);
  const auto reference = Reference(users, seed);
  const auto reports = MakeReports(users, seed);

  for (const size_t shards : {1u, 4u}) {
    auto merged = StreamAndMerge(reports, seed, shards, /*batch_size=*/4,
                                 /*num_threads=*/2, /*queue_capacity=*/2,
                                 /*encoded=*/false);
    ASSERT_TRUE(merged.ok()) << "shards " << shards << ": "
                             << merged.status();
    ExpectIdenticalReleases(*merged, reference);
  }
}

TEST_F(StreamingFixture, AnyShardCountBatchSizeAndThreadCountIsBitIdentical) {
  const uint64_t seed = 77;
  const auto users = MakeUsers(18, 5);
  const auto reference = Reference(users, seed);
  const auto reports = MakeReports(users, seed);

  for (const size_t shards : {1u, 2u, 3u}) {
    for (const size_t batch_size : {1u, 5u, 18u}) {
      for (const size_t threads : {1u, 4u}) {
        auto merged = StreamAndMerge(reports, seed, shards, batch_size,
                                     threads, /*queue_capacity=*/1,
                                     /*encoded=*/false);
        ASSERT_TRUE(merged.ok())
            << "shards " << shards << " batch " << batch_size << " threads "
            << threads << ": " << merged.status();
        ExpectIdenticalReleases(*merged, reference);
      }
    }
  }
}

TEST_F(StreamingFixture, WireEncodedIngestIsBitIdentical) {
  const uint64_t seed = 123;
  const auto users = MakeUsers(12, 9);
  const auto reference = Reference(users, seed);
  const auto reports = MakeReports(users, seed);

  auto merged = StreamAndMerge(reports, seed, /*num_shards=*/2,
                               /*batch_size=*/3, /*num_threads=*/2,
                               /*queue_capacity=*/2, /*encoded=*/true);
  ASSERT_TRUE(merged.ok()) << merged.status();
  ExpectIdenticalReleases(*merged, reference);
}

TEST_F(StreamingFixture, ReportsReleasedCountsEveryUser) {
  const uint64_t seed = 11;
  const auto users = MakeUsers(10, 13);
  const auto reports = MakeReports(users, seed);
  std::vector<UserRelease> out;
  StreamingCollector collector(
      mech_.get(), seed,
      [&out](UserRelease release) { out.push_back(std::move(release)); });
  ASSERT_TRUE(collector.Push(reports).ok());
  ASSERT_TRUE(collector.Finish().ok());
  EXPECT_EQ(collector.reports_released(), users.size());
  EXPECT_EQ(out.size(), users.size());
}

// ISSUE 5 satellite: a corrupt frame arriving AFTER N good batches have
// already been processed must surface a clean Status from Finish() while
// leaving every already-emitted release intact (and still bit-identical
// to the reference) — the error policy's "reports already emitted stay
// emitted" clause, previously only exercised for whole-stream failures.
TEST_F(StreamingFixture, MidStreamCorruptFrameKeepsEmittedReleases) {
  const uint64_t seed = 20260729;
  const auto users = MakeUsers(12, 17);
  const auto reference = Reference(users, seed);
  const auto reports = MakeReports(users, seed);

  std::mutex mu;
  std::vector<UserRelease> out;
  StreamingCollector collector(
      mech_.get(), seed,
      [&](UserRelease release) {
        std::lock_guard<std::mutex> lock(mu);
        out.push_back(std::move(release));
      });

  // N good single-report batches, drained to completion so none of them
  // can be discarded as in-flight when the error latches.
  for (const io::WireReport& report : reports) {
    auto frame = io::EncodeReportBatch(io::ReportBatch{report});
    ASSERT_TRUE(frame.ok()) << frame.status();
    ASSERT_TRUE(collector.PushEncoded(std::move(*frame)).ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (collector.reports_released() < users.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(collector.reports_released(), users.size());

  // Then one frame with a flipped payload byte: CRC catches it on a
  // worker, the error latches, Finish reports it.
  auto good = io::EncodeReportBatch(io::ReportBatch{reports[0]});
  ASSERT_TRUE(good.ok());
  std::string corrupt = *good;
  corrupt[io::kWireHeaderBytes + 2] =
      static_cast<char>(corrupt[io::kWireHeaderBytes + 2] ^ 0x20);
  ASSERT_TRUE(collector.PushEncoded(std::move(corrupt)).ok());

  auto status = collector.Finish();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("checksum"), std::string::npos);

  // Every release emitted before the corruption is untouched and exact.
  ASSERT_EQ(out.size(), users.size());
  std::vector<std::vector<UserRelease>> one_shard(1);
  one_shard[0] = std::move(out);
  auto merged = MergeShardReleases(std::move(one_shard), users.size());
  ASSERT_TRUE(merged.ok()) << merged.status();
  ExpectIdenticalReleases(*merged, reference);
}

TEST_F(StreamingFixture, TryPushEncodedBouncesThenAccepts) {
  const uint64_t seed = 3;
  const auto users = MakeUsers(4, 23);
  const auto reports = MakeReports(users, seed);

  // One worker blocked in the sink + capacity-1 queue → a third frame
  // must bounce, survive intact, and go through once the sink drains.
  std::mutex gate;
  gate.lock();
  std::atomic<size_t> released{0};
  StreamingCollector::Config config;
  config.num_threads = 1;
  config.queue_capacity = 1;
  StreamingCollector collector(
      mech_.get(), seed,
      [&](UserRelease) {
        if (released.fetch_add(1) == 0) {
          std::lock_guard<std::mutex> wait(gate);  // block the first emit
        }
      },
      config);

  auto frame_for = [&](size_t i) {
    return *io::EncodeReportBatch(io::ReportBatch{reports[i]});
  };
  ASSERT_TRUE(collector.PushEncoded(frame_for(0)).ok());  // into the worker
  std::string second = frame_for(1);
  std::string third = frame_for(2);
  // Fill the queue, then watch the non-blocking push bounce.
  bool accepted = false;
  for (int attempts = 0; attempts < 1000 && !accepted; ++attempts) {
    ASSERT_TRUE(collector.TryPushEncoded(second, &accepted).ok());
    if (!accepted) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(accepted);
  accepted = true;
  ASSERT_TRUE(collector.TryPushEncoded(third, &accepted).ok());
  EXPECT_FALSE(accepted);           // queue full, sink gated
  EXPECT_FALSE(third.empty());      // frame handed back intact
  gate.unlock();                    // drain
  while (!accepted) {
    ASSERT_TRUE(collector.TryPushEncoded(third, &accepted).ok());
    if (!accepted) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(collector.Finish().ok());
  EXPECT_EQ(collector.reports_released(), 3u);
}

TEST_F(StreamingFixture, MalformedFrameFailsFinishCleanly) {
  StreamingCollector collector(mech_.get(), 1,
                               [](UserRelease) { FAIL(); });
  ASSERT_TRUE(collector.PushEncoded("definitely not a frame").ok());
  auto status = collector.Finish();
  EXPECT_FALSE(status.ok());
}

TEST_F(StreamingFixture, OutOfRangeRegionIdRejectedNotIndexed) {
  io::WireReport report;
  report.user_id = 0;
  report.trajectory_len = 2;
  report.epsilon_prime = 1.0;
  report.ngrams.push_back(core::PerturbedNgram{
      1, 2, {0, static_cast<region::RegionId>(1u << 30)}});
  StreamingCollector collector(mech_.get(), 1,
                               [](UserRelease) { FAIL(); });
  ASSERT_TRUE(collector.Push(io::ReportBatch{report}).ok());
  auto status = collector.Finish();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
}

TEST_F(StreamingFixture, HugeTrajectoryLenRejectedBeforeAllocation) {
  // A well-formed frame whose report claims L = 2^32 − 1 over a single
  // covered position must be rejected at validation — never reaching the
  // L-sized reconstruction problem.
  io::WireReport report;
  report.user_id = 0;
  report.trajectory_len = ~uint32_t{0};
  report.epsilon_prime = 1.0;
  report.ngrams.push_back(core::PerturbedNgram{1, 1, {0}});
  StreamingCollector collector(mech_.get(), 1,
                               [](UserRelease) { FAIL(); });
  ASSERT_TRUE(collector.Push(io::ReportBatch{report}).ok());
  auto status = collector.Finish();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// One n-gram covering every position of a length-`len` report.
PerturbedNgramSet CoveringNgrams(size_t len) {
  return {PerturbedNgram{1, len, region::RegionTrajectory(len, 0)}};
}

TEST_F(StreamingFixture, TrajectoryLenBoundedByTheDay) {
  // An honest trajectory visits strictly increasing timesteps of one day,
  // so a report may claim |T| positions but not |T| + 1, however many
  // n-grams pay for them.
  const auto num_t = static_cast<size_t>(time_.num_timesteps());
  const CollectorPipeline pipeline = mech_->pipeline();
  EXPECT_TRUE(pipeline.ValidateReport(num_t, CoveringNgrams(num_t)).ok());
  const Status over =
      pipeline.ValidateReport(num_t + 1, CoveringNgrams(num_t + 1));
  EXPECT_EQ(over.code(), StatusCode::kInvalidArgument) << over;
}

TEST_F(StreamingFixture, OverLongReportRejectedNamingItsLength) {
  // A fully covered report one position longer than the day must fail
  // validation, not run reconstruction only to fail in the smoother.
  const auto len = static_cast<size_t>(time_.num_timesteps()) + 1;
  io::WireReport report;
  report.user_id = 0;
  report.trajectory_len = static_cast<uint32_t>(len);
  report.epsilon_prime = 1.0;
  report.ngrams = CoveringNgrams(len);
  StreamingCollector collector(mech_.get(), 1,
                               [](UserRelease) { FAIL(); });
  ASSERT_TRUE(collector.Push(io::ReportBatch{report}).ok());
  auto status = collector.Finish();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_NE(status.message().find(std::to_string(len)), std::string::npos)
      << status;
}

TEST_F(StreamingFixture, UncoveredPositionRejected) {
  io::WireReport report;
  report.user_id = 0;
  report.trajectory_len = 3;
  report.epsilon_prime = 1.0;
  // Positions 1 and 3 covered twice each; position 2 never.
  report.ngrams.push_back(core::PerturbedNgram{1, 1, {0}});
  report.ngrams.push_back(core::PerturbedNgram{1, 1, {1}});
  report.ngrams.push_back(core::PerturbedNgram{3, 3, {0}});
  report.ngrams.push_back(core::PerturbedNgram{3, 3, {1}});
  StreamingCollector collector(mech_.get(), 1,
                               [](UserRelease) { FAIL(); });
  ASSERT_TRUE(collector.Push(io::ReportBatch{report}).ok());
  auto status = collector.Finish();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("uncovered"), std::string::npos);
}

TEST_F(StreamingFixture, InconsistentNgramSpanRejected) {
  io::WireReport report;
  report.user_id = 0;
  report.trajectory_len = 3;
  report.epsilon_prime = 1.0;
  core::PerturbedNgram gram;
  gram.a = 1;
  gram.b = 2;
  gram.regions = {0};  // should be 2 regions
  report.ngrams.push_back(gram);
  StreamingCollector collector(mech_.get(), 1,
                               [](UserRelease) { FAIL(); });
  ASSERT_TRUE(collector.Push(io::ReportBatch{report}).ok());
  EXPECT_FALSE(collector.Finish().ok());
}

// The shortest text that parses back to `value`, as the collector's ε′
// message prints it.
std::string RoundTripText(double value) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// Device and collector both compute ε′ = ε / (L + min(n, L) − 1) with
// NgramPerturber::EpsilonPerPerturbation, so the collector compares it
// exactly. One ulp either way, NaN, 0, a flipped sign or +∞ means the
// report was perturbed under another mechanism and must not be released.
TEST_F(StreamingFixture, EpsilonPrimeMustMatchTheMechanismExactly) {
  const uint64_t seed = 41;
  const auto users = MakeUsers(4, 43);
  const io::WireReport report = MakeReports(users, seed)[3];
  const size_t len = users[3].size();
  const double exact = report.epsilon_prime;
  ASSERT_EQ(exact, mech_->perturber().EpsilonPerPerturbation(len));
  const double inf = std::numeric_limits<double>::infinity();
  for (const double wrong :
       {std::nextafter(exact, inf), std::nextafter(exact, 0.0),
        std::numeric_limits<double>::quiet_NaN(), 0.0, -exact, inf}) {
    io::WireReport bad = report;
    bad.epsilon_prime = wrong;
    StreamingCollector collector(mech_.get(), seed,
                                 [](UserRelease) { FAIL(); });
    ASSERT_TRUE(collector.Push(io::ReportBatch{bad}).ok());
    const Status status = collector.Finish();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << RoundTripText(wrong) << ": " << status;
    for (const std::string& part :
         {std::string("user 3: "), "ε′ " + RoundTripText(wrong) + " ",
          "length " + std::to_string(len),
          "expected " + RoundTripText(exact)}) {
      EXPECT_NE(status.message().find(part), std::string::npos)
          << "'" << part << "' missing from: " << status;
    }
  }

  std::vector<UserRelease> out;
  StreamingCollector collector(
      mech_.get(), seed,
      [&out](UserRelease release) { out.push_back(std::move(release)); });
  ASSERT_TRUE(collector.Push(io::ReportBatch{report}).ok());
  ASSERT_TRUE(collector.Finish().ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].user_id, 3u);
}

// §5.7: k releases cost kε. The ledger is one product, so it is exact
// where a running sum is not: ten additions of 0.1 give
// 0.9999999999999999, but 10 × 0.1 is 1. Duplicates dropped by dedup
// release nothing and cost nothing.
TEST_F(StreamingFixture, EpsilonLedgerIsReleasesTimesEpsilon) {
  constexpr double kEpsilon = 0.1;
  constexpr size_t kReleases = 10;
  double running = 0.0;
  for (size_t i = 0; i < kReleases; ++i) running += kEpsilon;
  ASSERT_NE(running, kReleases * kEpsilon);

  UseEpsilon(kEpsilon);
  const uint64_t seed = 47;
  const auto reports = MakeReports(MakeUsers(kReleases, 49), seed);
  StreamingCollector::Config config;
  config.dedup_user_ids = true;
  StreamingCollector collector(mech_.get(), seed, [](UserRelease) {},
                               config);
  ASSERT_TRUE(collector.Push(reports).ok());
  ASSERT_TRUE(collector.Push(reports).ok());  // full replay: all dupes
  ASSERT_TRUE(collector.Finish().ok());
  ASSERT_EQ(collector.reports_released(), kReleases);
  ASSERT_EQ(collector.duplicates_dropped(), kReleases);
  const obs::RegistrySnapshot snapshot = collector.metrics()->Snapshot();
  const obs::MetricSnapshot* spent =
      snapshot.Find("trajldp_collector_epsilon_spent");
  ASSERT_NE(spent, nullptr);
  EXPECT_EQ(spent->value, kReleases * kEpsilon)
      << RoundTripText(spent->value);
}

// Regression: dedup claimed a user id BEFORE validation, so a report
// that failed validation or reconstruction left its id poisoned in the
// dedup set — a corrected re-upload of that user would be silently
// dropped as a duplicate. The claim must be given back on failure.
TEST_F(StreamingFixture, DedupClaimRolledBackWhenReportFails) {
  io::WireReport bad;
  bad.user_id = 7;
  bad.trajectory_len = 2;
  bad.epsilon_prime = 1.0;
  bad.ngrams.push_back(core::PerturbedNgram{
      1, 2, {0, static_cast<region::RegionId>(1u << 30)}});

  StreamingCollector::Config config;
  config.dedup_user_ids = true;
  config.pre_released_user_ids = {100};  // survives the rollback
  StreamingCollector collector(mech_.get(), 1, [](UserRelease) { FAIL(); },
                               config);
  ASSERT_TRUE(collector.Push(io::ReportBatch{bad}).ok());
  auto status = collector.Finish();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  // Only the preseeded id remains claimed; user 7's claim was returned.
  EXPECT_EQ(collector.dedup_users_claimed(), 1u);
  EXPECT_EQ(collector.duplicates_dropped(), 0u);
}

// And the happy path still claims: released users stay in the set, and
// true duplicates are dropped against it.
TEST_F(StreamingFixture, DedupKeepsClaimsOfReleasedUsers) {
  const uint64_t seed = 29;
  const auto users = MakeUsers(6, 27);
  const auto reports = MakeReports(users, seed);
  StreamingCollector::Config config;
  config.dedup_user_ids = true;
  std::mutex mu;
  std::vector<UserRelease> out;
  StreamingCollector collector(
      mech_.get(), seed,
      [&](UserRelease release) {
        std::lock_guard<std::mutex> lock(mu);
        out.push_back(std::move(release));
      },
      config);
  ASSERT_TRUE(collector.Push(reports).ok());
  ASSERT_TRUE(collector.Push(reports).ok());  // full replay: all dupes
  ASSERT_TRUE(collector.Finish().ok());
  EXPECT_EQ(out.size(), users.size());
  EXPECT_EQ(collector.dedup_users_claimed(), users.size());
  EXPECT_EQ(collector.duplicates_dropped(), users.size());
}

// FanOutSink: every target sees every release, in registration order,
// under the collector's sink serialisation.
TEST_F(StreamingFixture, FanOutSinkForwardsToEveryTarget) {
  const uint64_t seed = 31;
  const auto users = MakeUsers(8, 33);
  const auto reports = MakeReports(users, seed);
  std::vector<UserRelease> first, second;
  size_t order_violations = 0;
  StreamingCollector collector(
      mech_.get(), seed,
      StreamingCollector::FanOutSink(
          {[&](UserRelease release) { first.push_back(std::move(release)); },
           StreamingCollector::Sink(),  // null sinks are skipped
           [&](UserRelease release) {
             // The copy target already ran for this release.
             if (first.size() != second.size() + 1) ++order_violations;
             second.push_back(std::move(release));
           }}));
  ASSERT_TRUE(collector.Push(reports).ok());
  ASSERT_TRUE(collector.Finish().ok());
  ASSERT_EQ(first.size(), users.size());
  ASSERT_EQ(second.size(), users.size());
  EXPECT_EQ(order_violations, 0u);
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].user_id, second[i].user_id);
    EXPECT_EQ(first[i].release.trajectory, second[i].release.trajectory);
  }
}

TEST_F(StreamingFixture, PushAfterFinishFails) {
  StreamingCollector collector(mech_.get(), 1, [](UserRelease) {});
  ASSERT_TRUE(collector.Finish().ok());
  EXPECT_FALSE(collector.Push(io::ReportBatch{}).ok());
  EXPECT_FALSE(collector.PushEncoded("x").ok());
}

TEST_F(StreamingFixture, FinishIsIdempotent) {
  const auto users = MakeUsers(4, 21);
  const auto reports = MakeReports(users, 2);
  std::vector<UserRelease> out;
  StreamingCollector collector(
      mech_.get(), 2,
      [&out](UserRelease release) { out.push_back(std::move(release)); });
  ASSERT_TRUE(collector.Push(reports).ok());
  ASSERT_TRUE(collector.Finish().ok());
  ASSERT_TRUE(collector.Finish().ok());
  EXPECT_EQ(out.size(), users.size());
}

// ---------- ShardPlan / MergeShardReleases ----------

TEST(ShardPlanTest, ModuloRoutingCoversAllShards) {
  const ShardPlan plan{3};
  std::vector<size_t> counts(3, 0);
  for (uint64_t id = 0; id < 30; ++id) {
    const size_t shard = plan.ShardOf(id);
    ASSERT_LT(shard, 3u);
    ++counts[shard];
  }
  for (size_t s = 0; s < 3; ++s) EXPECT_EQ(counts[s], 10u);
  EXPECT_EQ(ShardPlan{1}.ShardOf(999), 0u);
  EXPECT_EQ(ShardPlan{0}.ShardOf(999), 0u);  // degenerate plan: one shard
}

TEST(ShardPlanTest, RangeStrategyAssignsContiguousBlocks) {
  ShardPlan plan;
  plan.num_shards = 4;
  plan.strategy = ShardPlan::Strategy::kRange;
  plan.num_users = 10;  // blocks of ceil(10/4) = 3: [0,3) [3,6) [6,9) [9,10)
  EXPECT_EQ(plan.RangeOf(0), (std::pair<uint64_t, uint64_t>{0, 3}));
  EXPECT_EQ(plan.RangeOf(1), (std::pair<uint64_t, uint64_t>{3, 6}));
  EXPECT_EQ(plan.RangeOf(2), (std::pair<uint64_t, uint64_t>{6, 9}));
  EXPECT_EQ(plan.RangeOf(3), (std::pair<uint64_t, uint64_t>{9, 10}));
  for (uint64_t id = 0; id < plan.num_users; ++id) {
    const size_t shard = plan.ShardOf(id);
    const auto [lo, hi] = plan.RangeOf(shard);
    EXPECT_GE(id, lo) << "id " << id;
    EXPECT_LT(id, hi) << "id " << id;
  }
  // Ids past the population still route to a valid shard (merge rejects
  // them); far-past ids clamp to the last one.
  EXPECT_EQ(plan.ShardOf(99), 3u);
}

TEST(ShardPlanTest, RangeStrategySupportsMoreShardsThanUsers) {
  ShardPlan plan;
  plan.num_shards = 4;
  plan.strategy = ShardPlan::Strategy::kRange;
  plan.num_users = 2;
  EXPECT_EQ(plan.ShardOf(0), 0u);
  EXPECT_EQ(plan.ShardOf(1), 1u);
  EXPECT_EQ(plan.RangeOf(2), (std::pair<uint64_t, uint64_t>{2, 2}));
  EXPECT_EQ(plan.RangeOf(3), (std::pair<uint64_t, uint64_t>{2, 2}));
}

TEST(ShardPlanTest, ModuloRangeOfIsTheWholePopulation) {
  ShardPlan plan;
  plan.num_shards = 3;
  plan.num_users = 30;
  EXPECT_EQ(plan.RangeOf(1), (std::pair<uint64_t, uint64_t>{0, 30}));
  // num_users unset (valid for modulo routing): the validator interval
  // must be "everything", never the empty [0, 0) that rejects all input.
  ShardPlan unset;
  unset.num_shards = 3;
  EXPECT_EQ(unset.RangeOf(0),
            (std::pair<uint64_t, uint64_t>{0, ~uint64_t{0}}));
}

TEST(ShardPlanTest, PartitionByShardRoutesByUserId) {
  io::ReportBatch reports(7);
  for (size_t i = 0; i < reports.size(); ++i) reports[i].user_id = i;
  auto sharded = PartitionByShard(ShardPlan{2}, std::move(reports));
  ASSERT_EQ(sharded.size(), 2u);
  EXPECT_EQ(sharded[0].size(), 4u);  // users 0, 2, 4, 6
  EXPECT_EQ(sharded[1].size(), 3u);  // users 1, 3, 5
  for (const auto& report : sharded[0]) EXPECT_EQ(report.user_id % 2, 0u);
  for (const auto& report : sharded[1]) EXPECT_EQ(report.user_id % 2, 1u);
}

std::vector<std::vector<UserRelease>> TwoShardReleases() {
  std::vector<std::vector<UserRelease>> shards(2);
  for (uint64_t id : {0u, 2u}) {
    UserRelease r;
    r.user_id = id;
    shards[0].push_back(std::move(r));
  }
  UserRelease r;
  r.user_id = 1;
  shards[1].push_back(std::move(r));
  return shards;
}

TEST(MergeShardReleasesTest, MergesDenseUsers) {
  auto merged = MergeShardReleases(TwoShardReleases(), 3);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->size(), 3u);
}

TEST(MergeShardReleasesTest, MissingUserReported) {
  auto merged = MergeShardReleases(TwoShardReleases(), 4);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kNotFound);
  EXPECT_NE(merged.status().message().find("user 3"), std::string::npos);
}

TEST(MergeShardReleasesTest, DuplicateUserReported) {
  auto shards = TwoShardReleases();
  UserRelease dup;
  dup.user_id = 2;
  shards[1].push_back(std::move(dup));
  auto merged = MergeShardReleases(std::move(shards), 3);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
}

TEST(MergeShardReleasesTest, OutOfRangeUserReported) {
  auto shards = TwoShardReleases();
  UserRelease big;
  big.user_id = 99;
  shards[0].push_back(std::move(big));
  auto merged = MergeShardReleases(std::move(shards), 3);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kOutOfRange);
}

TEST(StreamingTelemetryTest, CountsPoiAttemptsAndSmoothedReleases) {
  // A 1 km lattice with one-hour regions of six 10-minute timesteps.
  // Region r holds POIs 0 and 4; a report asking for seven visits to it
  // has an empty feasible set (time order), one asking for two does not.
  auto db = MakeGridWorld();
  ASSERT_TRUE(db.ok());
  const auto time = *model::TimeDomain::Create(10);
  NGramConfig config;
  config.decomposition.grid_size = 2;
  config.decomposition.coarse_grids = {1};
  config.decomposition.base_interval_minutes = 60;
  config.decomposition.merge.kappa = 1;
  auto mech = NGramMechanism::Build(&*db, time, config);
  ASSERT_TRUE(mech.ok()) << mech.status();
  const region::RegionId r = *mech->decomposition().Lookup(0, 60);
  const auto report = [&](uint64_t user, uint32_t len) {
    io::WireReport out;
    out.user_id = user;
    out.epsilon_prime = config.epsilon / (len + config.n - 1);
    out.trajectory_len = len;
    for (size_t a = 1; a < len; ++a) out.ngrams.push_back({a, a + 1, {r, r}});
    return out;
  };

  obs::Registry registry;
  std::vector<UserRelease> releases;
  {
    StreamingCollector::Config collector_config;
    collector_config.num_threads = 1;
    collector_config.metrics = &registry;
    StreamingCollector collector(
        &*mech, 7,
        [&releases](UserRelease release) {
          releases.push_back(std::move(release));
        },
        collector_config);
    ASSERT_TRUE(collector.Push({report(0, 7), report(1, 2)}).ok());
    ASSERT_TRUE(collector.Finish().ok());
  }
  ASSERT_EQ(releases.size(), 2u);
  size_t attempts = 0;
  for (const UserRelease& user : releases) {
    attempts += user.release.poi_attempts;
    const bool futile = user.user_id == 0;
    EXPECT_EQ(user.release.regions,
              region::RegionTrajectory(futile ? 7 : 2, r));
    EXPECT_EQ(user.release.smoothed, futile);
  }

  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  const obs::MetricSnapshot* attempts_total =
      snapshot.Find("trajldp_collector_poi_attempts_total");
  ASSERT_NE(attempts_total, nullptr);
  EXPECT_EQ(attempts_total->value, static_cast<double>(attempts));
  const obs::MetricSnapshot* smoothed =
      snapshot.Find("trajldp_collector_poi_smoothed_total");
  ASSERT_NE(smoothed, nullptr);
  EXPECT_TRUE(smoothed->labels.empty());
  EXPECT_EQ(smoothed->value, 1.0);
}

}  // namespace
}  // namespace trajldp::core
