// The exactly-once ingest suite: a real ReportClient in sequenced mode,
// a real journaling IngestServer, and a FaultProxy injecting byte-level
// network faults between them. The oracle in every test is the same one
// the rest of the repo uses — core::MergeShardReleases hard-fails on a
// missing OR duplicated user, then the merged output is compared
// bit-for-bit against BatchReleaseEngine::ReleaseAllFull — so "zero
// lost, zero double-ingested" is checked by construction, not by
// counters alone.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
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
#include "net/fault_proxy.h"
#include "net/ingest_server.h"
#include "net/report_client.h"
#include "obs/metrics.h"
#include "test_world.h"

namespace trajldp::net {
namespace {

using core::FullRelease;
using core::StreamingCollector;
using core::UserRelease;
using trajldp::testing::MakeGridWorld;

bool WaitFor(const std::function<bool()>& condition,
             std::chrono::seconds timeout = std::chrono::seconds(60)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!condition()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class ExactlyOnceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    trajldp::testing::GridWorldOptions options;
    options.rows = 15;
    options.cols = 15;
    auto db = MakeGridWorld(options);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<model::PoiDatabase>(std::move(*db));
    time_ = *model::TimeDomain::Create(10);

    core::NGramConfig config;
    config.n = 2;
    config.epsilon = 5.0;
    config.decomposition.grid_size = 5;
    config.decomposition.coarse_grids = {1};
    config.decomposition.base_interval_minutes = 720;
    config.decomposition.merge.kappa = 1;
    config.reachability.speed_kmh = 30.0;
    config.reachability.reference_gap_minutes = 60;
    auto mech = core::NGramMechanism::Build(db_.get(), time_, config);
    ASSERT_TRUE(mech.ok()) << mech.status();
    mech_ = std::make_unique<core::NGramMechanism>(std::move(*mech));
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

  io::ReportBatch MakeReports(
      const std::vector<region::RegionTrajectory>& users, uint64_t seed) {
    core::BatchReleaseEngine engine(&mech_->perturber(),
                                    core::BatchReleaseEngine::Config{2});
    auto perturbed = engine.ReleaseAll(users, seed);
    EXPECT_TRUE(perturbed.ok()) << perturbed.status();
    return MakeWireReports(users, std::move(*perturbed), mech_->perturber());
  }

  std::vector<FullRelease> Reference(
      const std::vector<region::RegionTrajectory>& users, uint64_t seed) {
    core::BatchReleaseEngine engine(mech_.get(),
                                    core::BatchReleaseEngine::Config{2});
    auto reference = engine.ReleaseAllFull(users, seed);
    EXPECT_TRUE(reference.ok()) << reference.status();
    return std::move(*reference);
  }

  struct Shard {
    std::vector<UserRelease> out;
    std::unique_ptr<StreamingCollector> collector;
    std::unique_ptr<IngestServer> server;
  };

  /// A shard in full exactly-once trim: journaling server + a collector
  /// with the per-user-id dedup backstop on.
  std::unique_ptr<Shard> StartJournaledShard(uint64_t seed,
                                             const std::string& journal_path) {
    IngestServer::Options options;
    options.journal_path = journal_path;
    StreamingCollector::Config config;
    config.dedup_user_ids = true;
    return StartShard(seed, options, config);
  }

  std::unique_ptr<Shard> StartShard(uint64_t seed,
                                    IngestServer::Options options = {},
                                    StreamingCollector::Config config = {}) {
    auto shard = std::make_unique<Shard>();
    Shard* raw = shard.get();
    shard->collector = std::make_unique<StreamingCollector>(
        mech_.get(), seed,
        [raw](UserRelease release) {
          raw->out.push_back(std::move(release));
        },
        config);
    auto server = IngestServer::Start(shard->collector.get(), options);
    EXPECT_TRUE(server.ok()) << server.status();
    if (!server.ok()) return nullptr;
    shard->server = std::move(*server);
    return shard;
  }

  static ReportClient::Options SequencedOptions(uint64_t stream_id,
                                                size_t window = 4) {
    ReportClient::Options options;
    options.enable_sequencing = true;
    options.stream_id = stream_id;
    options.window = window;
    // Fault tests deliberately kill connections; give the client room to
    // redial without waiting out production backoffs.
    options.max_attempts = 25;
    options.initial_backoff = std::chrono::milliseconds(1);
    options.max_backoff = std::chrono::milliseconds(50);
    return options;
  }

  static void SendInBatches(ReportClient& client,
                            const io::ReportBatch& reports,
                            size_t batch_size) {
    for (size_t begin = 0; begin < reports.size(); begin += batch_size) {
      const size_t end = std::min(begin + batch_size, reports.size());
      ASSERT_TRUE(client
                      .SendBatch(std::span<const io::WireReport>(
                          reports.data() + begin, end - begin))
                      .ok());
    }
  }

  /// Fresh journal path under the test temp dir (any stale file removed).
  static std::string JournalPath(const std::string& name) {
    const auto path =
        std::filesystem::path(::testing::TempDir()) / (name + ".journal");
    std::filesystem::remove(path);
    return path.string();
  }

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

  /// The zero-loss / zero-double-ingest oracle: drain, merge (hard-fails
  /// on missing or duplicated users), compare bit-for-bit.
  void FinishAndVerify(Shard* shard,
                       const std::vector<FullRelease>& reference) {
    ASSERT_TRUE(WaitFor([&] {
      return shard->collector->reports_released() == reference.size();
    }));
    shard->server->Shutdown();
    ASSERT_TRUE(shard->collector->Finish().ok());
    std::vector<std::vector<UserRelease>> outputs;
    outputs.push_back(std::move(shard->out));
    auto merged =
        core::MergeShardReleases(std::move(outputs), reference.size());
    ASSERT_TRUE(merged.ok()) << merged.status();
    ExpectIdenticalReleases(*merged, reference);
  }

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
  std::unique_ptr<core::NGramMechanism> mech_;
};

// ---------- the happy path, fully instrumented ----------

TEST_F(ExactlyOnceFixture, SequencedJournaledPathIsBitIdentical) {
  const uint64_t seed = 20260808;
  const auto users = MakeUsers(24, 3);
  const auto reference = Reference(users, seed);
  const auto reports = MakeReports(users, seed);
  auto shard = StartJournaledShard(seed, JournalPath("happy"));
  ASSERT_NE(shard, nullptr);

  ReportClient client("127.0.0.1", shard->server->port(),
                      SequencedOptions(1));
  SendInBatches(client, reports, 3);
  ASSERT_TRUE(client.Flush().ok());
  // Flush is the delivery barrier: every one of the 8 frames is acked
  // durable, none needed a second transmission.
  EXPECT_EQ(client.last_ack(), 8u);
  EXPECT_GE(client.acks_received(), 8u);
  EXPECT_EQ(client.frames_resent(), 0u);
  client.Close();

  ASSERT_TRUE(WaitFor([&] {
    return shard->collector->reports_released() == users.size();
  }));
  const auto stats = shard->server->stats();
  EXPECT_EQ(stats.frames_journaled, 8u);
  EXPECT_EQ(stats.frames_replayed, 0u);
  EXPECT_EQ(stats.duplicate_frames_dropped, 0u);
  EXPECT_EQ(stats.duplicate_reports_dropped, 0u);
  // The ingest queue was exercised and its high-water mark surfaced.
  EXPECT_GE(stats.queue_high_water, 1u);
  EXPECT_TRUE(shard->server->first_connection_error().ok())
      << shard->server->first_connection_error();
  FinishAndVerify(shard.get(), reference);
}

// ---------- injected faults, one per test ----------

TEST_F(ExactlyOnceFixture, DuplicatedFrameAbsorbedBySequenceDedup) {
  const uint64_t seed = 41;
  const auto users = MakeUsers(24, 5);
  const auto reference = Reference(users, seed);
  const auto reports = MakeReports(users, seed);
  auto shard = StartJournaledShard(seed, JournalPath("dup"));
  ASSERT_NE(shard, nullptr);

  FaultPlan plan;
  plan.duplicate_frame = 1;  // frame seq 2 arrives twice, back to back
  auto proxy =
      FaultProxy::Start("127.0.0.1", shard->server->port(), {plan});
  ASSERT_TRUE(proxy.ok()) << proxy.status();

  ReportClient client("127.0.0.1", (*proxy)->port(), SequencedOptions(1));
  SendInBatches(client, reports, 3);
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(client.last_ack(), 8u);
  client.Close();

  ASSERT_TRUE(WaitFor([&] {
    return shard->server->stats().duplicate_frames_dropped >= 1;
  }));
  // A wire duplicate is absorbed, not an error: the connection lives.
  EXPECT_TRUE(shard->server->first_connection_error().ok())
      << shard->server->first_connection_error();
  EXPECT_EQ((*proxy)->faults_injected(), 1u);
  EXPECT_EQ(shard->server->stats().frames_ingested, 8u);
  FinishAndVerify(shard.get(), reference);
  (*proxy)->Shutdown();
}

TEST_F(ExactlyOnceFixture, CorruptedFrameFailsConnectionAndIsResent) {
  const uint64_t seed = 43;
  const auto users = MakeUsers(24, 7);
  const auto reference = Reference(users, seed);
  const auto reports = MakeReports(users, seed);
  auto shard = StartJournaledShard(seed, JournalPath("corrupt"));
  ASSERT_NE(shard, nullptr);

  FaultPlan plan;
  plan.corrupt_frame = 1;  // one flipped payload byte in frame seq 2
  auto proxy =
      FaultProxy::Start("127.0.0.1", shard->server->port(), {plan});
  ASSERT_TRUE(proxy.ok()) << proxy.status();

  ReportClient client("127.0.0.1", (*proxy)->port(), SequencedOptions(1));
  SendInBatches(client, reports, 3);
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(client.last_ack(), 8u);
  // The CRC gate killed the first connection; the window resent its
  // unacked suffix on the reconnect.
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_GE(client.frames_resent(), 1u);
  client.Close();

  auto error = shard->server->first_connection_error();
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.message().find("checksum"), std::string::npos) << error;
  EXPECT_EQ(shard->server->stats().connections_failed, 1u);
  FinishAndVerify(shard.get(), reference);
  (*proxy)->Shutdown();
}

TEST_F(ExactlyOnceFixture, DroppedFrameDetectedAsSequenceGapAndResent) {
  const uint64_t seed = 47;
  const auto users = MakeUsers(24, 9);
  const auto reference = Reference(users, seed);
  const auto reports = MakeReports(users, seed);
  auto shard = StartJournaledShard(seed, JournalPath("drop"));
  ASSERT_NE(shard, nullptr);

  FaultPlan plan;
  plan.drop_frame = 1;  // frame seq 2 silently vanishes in the network
  auto proxy =
      FaultProxy::Start("127.0.0.1", shard->server->port(), {plan});
  ASSERT_TRUE(proxy.ok()) << proxy.status();

  ReportClient client("127.0.0.1", (*proxy)->port(), SequencedOptions(1));
  SendInBatches(client, reports, 3);
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(client.last_ack(), 8u);
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_GE(client.frames_resent(), 1u);
  client.Close();

  // The hole surfaced when seq 3 arrived after high-water 1: acking past
  // it would have declared a never-received frame durable.
  auto error = shard->server->first_connection_error();
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.message().find("sequence gap"), std::string::npos)
      << error;
  FinishAndVerify(shard.get(), reference);
  (*proxy)->Shutdown();
}

TEST_F(ExactlyOnceFixture, MidFrameCutIsResent) {
  const uint64_t seed = 53;
  const auto users = MakeUsers(24, 11);
  const auto reference = Reference(users, seed);
  const auto reports = MakeReports(users, seed);
  auto shard = StartJournaledShard(seed, JournalPath("cut_mid"));
  ASSERT_NE(shard, nullptr);

  FaultPlan plan;
  plan.cut_after_frames = 1;  // one full frame, then...
  plan.cut_extra_bytes = 10;  // ...10 bytes of seq 2, then RST
  auto proxy =
      FaultProxy::Start("127.0.0.1", shard->server->port(), {plan});
  ASSERT_TRUE(proxy.ok()) << proxy.status();

  ReportClient client("127.0.0.1", (*proxy)->port(), SequencedOptions(1));
  SendInBatches(client, reports, 3);
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(client.last_ack(), 8u);
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_GE(client.frames_resent(), 1u);
  client.Close();

  auto error = shard->server->first_connection_error();
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.message().find("truncated"), std::string::npos) << error;
  FinishAndVerify(shard.get(), reference);
  (*proxy)->Shutdown();
}

TEST_F(ExactlyOnceFixture, CleanBoundaryCutLooksLikeEofAndStillDelivers) {
  const uint64_t seed = 59;
  const auto users = MakeUsers(24, 13);
  const auto reference = Reference(users, seed);
  const auto reports = MakeReports(users, seed);
  auto shard = StartJournaledShard(seed, JournalPath("cut_clean"));
  ASSERT_NE(shard, nullptr);

  FaultPlan plan;
  plan.cut_after_frames = 2;  // cut exactly on a frame boundary
  plan.cut_extra_bytes = 0;
  auto proxy =
      FaultProxy::Start("127.0.0.1", shard->server->port(), {plan});
  ASSERT_TRUE(proxy.ok()) << proxy.status();

  ReportClient client("127.0.0.1", (*proxy)->port(), SequencedOptions(1));
  SendInBatches(client, reports, 3);
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(client.last_ack(), 8u);
  EXPECT_GE(client.reconnects(), 1u);
  client.Close();

  // From the server's side the boundary cut is either a well-formed
  // stream end (clean FIN) or a failed ack write into the dead socket —
  // a timing race the protocol must tolerate. Whichever way it lands,
  // nothing is lost: the window resent the unacked suffix.
  const auto error = shard->server->first_connection_error();
  if (!error.ok()) {
    EXPECT_NE(error.message().find("send"), std::string::npos) << error;
  }
  FinishAndVerify(shard.get(), reference);
  (*proxy)->Shutdown();
}

TEST_F(ExactlyOnceFixture, StallDelaysButLosesNothing) {
  const uint64_t seed = 61;
  const auto users = MakeUsers(24, 15);
  const auto reference = Reference(users, seed);
  const auto reports = MakeReports(users, seed);
  auto shard = StartJournaledShard(seed, JournalPath("stall"));
  ASSERT_NE(shard, nullptr);

  FaultPlan plan;
  plan.stall_before_frame = 1;
  plan.stall_for = std::chrono::milliseconds(300);
  auto proxy =
      FaultProxy::Start("127.0.0.1", shard->server->port(), {plan});
  ASSERT_TRUE(proxy.ok()) << proxy.status();

  ReportClient client("127.0.0.1", (*proxy)->port(), SequencedOptions(1));
  SendInBatches(client, reports, 3);
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(client.last_ack(), 8u);
  // A stall is latency, not loss: no reconnect, no resend, no error.
  EXPECT_EQ(client.reconnects(), 0u);
  EXPECT_EQ(client.frames_resent(), 0u);
  client.Close();

  EXPECT_TRUE(shard->server->first_connection_error().ok());
  EXPECT_EQ((*proxy)->faults_injected(), 1u);
  FinishAndVerify(shard.get(), reference);
  (*proxy)->Shutdown();
}

// ---------- restart, replay, and the dedup backstop ----------

TEST_F(ExactlyOnceFixture, RestartReplaysJournalAndResumesBitIdentical) {
  const uint64_t seed = 67;
  const auto users = MakeUsers(24, 17);
  const auto reference = Reference(users, seed);
  const auto reports = MakeReports(users, seed);
  const std::string journal = JournalPath("restart");

  // Generation 1: ingest the first half (frames seq 1..4), then die.
  // Its in-memory output is deliberately discarded — after a crash, the
  // journal is all that survives.
  {
    auto shard = StartJournaledShard(seed, journal);
    ASSERT_NE(shard, nullptr);
    ReportClient client("127.0.0.1", shard->server->port(),
                        SequencedOptions(1, /*window=*/2));
    SendInBatches(client,
                  io::ReportBatch(reports.begin(), reports.begin() + 12), 3);
    ASSERT_TRUE(client.Flush().ok());
    EXPECT_EQ(client.last_ack(), 4u);
    client.Close();
    shard->server->Shutdown();
    ASSERT_TRUE(shard->collector->Finish().ok());
  }

  // Generation 2: same journal, fresh collector. Start() replays the 4
  // durable frames through the normal ingest path and rebuilds the
  // stream's high-water mark before accepting a single connection.
  auto shard = StartJournaledShard(seed, journal);
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->server->stats().frames_replayed, 4u);

  // The device also restarted from scratch: a fresh client on the SAME
  // stream resends everything from seq 1. The recovered high-water mark
  // absorbs 1..4 (re-acked instantly, never re-ingested); 5..8 are new.
  ReportClient client("127.0.0.1", shard->server->port(),
                      SequencedOptions(1, /*window=*/2));
  SendInBatches(client, reports, 3);
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(client.last_ack(), 8u);
  client.Close();

  ASSERT_TRUE(WaitFor([&] {
    return shard->collector->reports_released() == users.size();
  }));
  const auto stats = shard->server->stats();
  EXPECT_EQ(stats.duplicate_frames_dropped, 4u);
  EXPECT_EQ(stats.frames_journaled, 4u);  // this generation's appends
  EXPECT_TRUE(shard->server->first_connection_error().ok())
      << shard->server->first_connection_error();
  // The restarted run is bit-identical to one that never crashed.
  FinishAndVerify(shard.get(), reference);
}

TEST_F(ExactlyOnceFixture, FreshStreamReuploadCaughtByUserIdDedup) {
  // The second exactly-once layer: sequence dedup cannot recognise a
  // re-upload on a NEW stream id (new device generation, empty window),
  // so the collector's per-user-id dedup is the backstop.
  const uint64_t seed = 71;
  const auto users = MakeUsers(24, 19);
  const auto reference = Reference(users, seed);
  const auto reports = MakeReports(users, seed);
  auto shard = StartJournaledShard(seed, JournalPath("reupload"));
  ASSERT_NE(shard, nullptr);

  ReportClient first("127.0.0.1", shard->server->port(),
                     SequencedOptions(1));
  SendInBatches(first, reports, 3);
  ASSERT_TRUE(first.Flush().ok());
  first.Close();
  ASSERT_TRUE(WaitFor([&] {
    return shard->collector->reports_released() == users.size();
  }));

  ReportClient second("127.0.0.1", shard->server->port(),
                      SequencedOptions(2));
  SendInBatches(second, reports, 3);
  ASSERT_TRUE(second.Flush().ok());
  second.Close();

  ASSERT_TRUE(WaitFor([&] {
    return shard->server->stats().duplicate_reports_dropped == users.size();
  }));
  EXPECT_EQ(shard->collector->reports_released(), users.size());
  EXPECT_EQ(shard->server->stats().frames_ingested, 16u);
  FinishAndVerify(shard.get(), reference);
}

// ---------- durability maintenance: fsync timing, compaction ----------

TEST_F(ExactlyOnceFixture, SyncSpanObservesEveryFsyncTheAppendsCaused) {
  // Every journal fsync happens inside an append, as the policy decides,
  // so the sync span must hold exactly one observation per fsync — here
  // under kEveryBytes, the batched policy the benches run.
  const uint64_t seed = 73;
  const auto users = MakeUsers(24, 21);
  const auto reference = Reference(users, seed);
  const auto reports = MakeReports(users, seed);

  IngestServer::Options options;
  options.journal_path = JournalPath("sync_span");
  options.journal_options.sync = io::FrameJournal::SyncPolicy::kEveryBytes;
  options.journal_options.sync_every_bytes = 512;  // every other frame
  StreamingCollector::Config config;
  config.dedup_user_ids = true;
  auto shard = StartShard(seed, options, config);
  ASSERT_NE(shard, nullptr);

  ReportClient client("127.0.0.1", shard->server->port(),
                      SequencedOptions(1));
  SendInBatches(client, reports, 3);
  ASSERT_TRUE(client.Flush().ok());
  client.Close();
  ASSERT_TRUE(WaitFor(
      [&] { return shard->server->stats().frames_journaled == 8u; }));

  // The stream is idle and nothing else syncs the journal before
  // Shutdown, so the fsync gauge counts exactly the appends' fsyncs.
  const obs::RegistrySnapshot snapshot = shard->server->metrics()->Snapshot();
  const obs::MetricSnapshot* fsyncs = snapshot.Find("trajldp_journal_fsyncs");
  const obs::MetricSnapshot* span =
      snapshot.Find("trajldp_journal_sync_seconds");
  ASSERT_NE(fsyncs, nullptr);
  ASSERT_NE(span, nullptr);
  EXPECT_GT(fsyncs->value, 0.0);
  EXPECT_LT(fsyncs->value, 8.0);  // batched: fewer fsyncs than frames
  EXPECT_EQ(static_cast<double>(span->count), fsyncs->value);
  FinishAndVerify(shard.get(), reference);
}

TEST_F(ExactlyOnceFixture, CompactionShrinksJournalAndRestartStaysBitIdentical) {
  // End-to-end over the compaction feedback loop: releases flow through
  // on_frame_processed into ReleaseWatermarks, the server compacts on a
  // tiny size threshold mid-stream, and a restart over the compacted
  // journal (replay + hwm markers + the pre-released dedup preseed
  // standing in for persisted downstream releases) is bit-identical.
  const uint64_t seed = 79;
  const auto users = MakeUsers(24, 23);
  const auto reference = Reference(users, seed);
  const auto reports = MakeReports(users, seed);
  const std::string journal = JournalPath("compact_restart");

  ReleaseWatermarks watermarks;
  IngestServer::Options options;
  options.journal_path = journal;
  options.journal_compact_threshold_bytes = 1024;  // several runs mid-stream
  options.compact_watermarks = [&watermarks] { return watermarks.Snapshot(); };
  StreamingCollector::Config config;
  config.dedup_user_ids = true;
  config.on_frame_processed = [&watermarks](uint64_t stream, uint64_t seq) {
    watermarks.Note(stream, seq);
  };

  std::vector<UserRelease> generation1;
  {
    auto shard = StartShard(seed, options, config);
    ASSERT_NE(shard, nullptr);
    ReportClient client("127.0.0.1", shard->server->port(),
                        SequencedOptions(1, /*window=*/2));
    SendInBatches(client, reports, 3);
    ASSERT_TRUE(client.Flush().ok());
    EXPECT_EQ(client.last_ack(), 8u);
    client.Close();
    // Wait until stream 1 is fully durable downstream: every report
    // released AND the watermark floor at the last frame.
    ASSERT_TRUE(WaitFor([&] {
      return shard->collector->reports_released() == users.size();
    }));
    ASSERT_TRUE(WaitFor([&] {
      auto snapshot = watermarks.Snapshot();
      return snapshot.count(1) != 0 && snapshot[1] == 8u;
    }));
    // A second stream re-uploads everything (fresh device generation).
    // Its appends grow the journal past the threshold AGAIN — so at
    // least one compaction now runs with stream 1's watermark at 8 and
    // must drop every one of its data records. The re-uploaded reports
    // themselves fall to the user-id dedup backstop.
    ReportClient second("127.0.0.1", shard->server->port(),
                        SequencedOptions(2, /*window=*/2));
    SendInBatches(second, reports, 3);
    ASSERT_TRUE(second.Flush().ok());
    second.Close();
    ASSERT_TRUE(WaitFor([&] {
      return shard->server->stats().duplicate_reports_dropped == users.size();
    }));
    EXPECT_GE(shard->server->stats().journal_compactions, 2u);
    shard->server->Shutdown();
    ASSERT_TRUE(shard->collector->Finish().ok());
    generation1 = std::move(shard->out);
  }
  // The compacted journal: stream 1 is down to its high-water marker —
  // no data record survives — while the file as a whole still recovers
  // cleanly (the rewrite-and-rename left no torn state).
  {
    auto recovered = io::FrameJournal::Open(journal, {});
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovered->recovery_info().truncated_bytes, 0u);
    bool stream1_marker = false;
    size_t stream1_data_records = 0;
    ASSERT_TRUE(recovered
                    ->Replay([&](uint64_t stream_id, uint64_t seq,
                                 std::string_view frame) {
                      if (stream_id == 1 && frame.empty() && seq == 8) {
                        stream1_marker = true;
                      } else if (stream_id == 1 && !frame.empty()) {
                        ++stream1_data_records;
                      }
                      return Status::Ok();
                    })
                    .ok());
    EXPECT_TRUE(stream1_marker);
    EXPECT_EQ(stream1_data_records, 0u);
  }

  // Generation 2: the releases of generation 1 are "durable downstream"
  // (the harness persists them via its partial log; here the vector
  // plays that role), so they preseed the dedup set. The same device
  // stream resends EVERYTHING from seq 1: the marker-rebuilt high-water
  // mark absorbs acked frames, replayed suffix frames dedup by user id,
  // and the merged two-generation output is bit-identical.
  StreamingCollector::Config config2;
  config2.dedup_user_ids = true;
  for (const auto& release : generation1) {
    config2.pre_released_user_ids.push_back(release.user_id);
  }
  IngestServer::Options options2;
  options2.journal_path = journal;
  auto shard = StartShard(seed, options2, config2);
  ASSERT_NE(shard, nullptr);

  ReportClient client("127.0.0.1", shard->server->port(),
                      SequencedOptions(1, /*window=*/2));
  SendInBatches(client, reports, 3);
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(client.last_ack(), 8u);

  // Every resent frame bounced off the marker-recovered high-water mark;
  // NONE misread as a sequence gap (the failure compaction markers
  // exist to prevent). Wait with the connection still open: the first
  // cumulative ack (= 8) already satisfied Flush, so closing now could
  // reset the connection while later resends sit unread in the
  // server's receive buffer.
  ASSERT_TRUE(WaitFor([&] {
    return shard->server->stats().duplicate_frames_dropped >= 8u;
  }));
  client.Close();
  const auto error = shard->server->first_connection_error();
  if (!error.ok()) {
    EXPECT_EQ(error.message().find("sequence gap"), std::string::npos)
        << error;
  }
  shard->server->Shutdown();
  ASSERT_TRUE(shard->collector->Finish().ok());

  std::vector<std::vector<UserRelease>> outputs;
  outputs.push_back(std::move(generation1));
  outputs.push_back(std::move(shard->out));
  auto merged = core::MergeShardReleases(std::move(outputs), users.size());
  ASSERT_TRUE(merged.ok()) << merged.status();
  ExpectIdenticalReleases(*merged, reference);
}

// ---------- the backoff schedule ----------

TEST(DecorrelatedBackoffTest, EveryDrawStaysWithinBounds) {
  const auto base = std::chrono::milliseconds(25);
  const auto cap = std::chrono::milliseconds(400);
  Rng rng(99);
  auto previous = base;
  size_t at_base = 0;
  size_t distinct_above_base = 0;
  auto last = std::chrono::milliseconds(-1);
  for (int i = 0; i < 2000; ++i) {
    const auto sleep =
        ReportClient::DecorrelatedBackoff(previous, base, cap, rng);
    EXPECT_GE(sleep, base) << "draw " << i;
    EXPECT_LE(sleep, cap) << "draw " << i;
    EXPECT_LE(sleep, std::min(cap, std::max(base, 3 * previous)))
        << "draw " << i;
    if (sleep == base) ++at_base;
    if (sleep > base && sleep != last) ++distinct_above_base;
    last = sleep;
    previous = sleep;
  }
  // It actually jitters: the schedule is not pinned to either bound.
  EXPECT_LT(at_base, 2000u);
  EXPECT_GT(distinct_above_base, 10u);
}

TEST(DecorrelatedBackoffTest, DegenerateRangesCollapseCleanly) {
  Rng rng(7);
  // cap below base: the cap wins.
  EXPECT_EQ(ReportClient::DecorrelatedBackoff(
                std::chrono::milliseconds(100), std::chrono::milliseconds(50),
                std::chrono::milliseconds(10), rng),
            std::chrono::milliseconds(10));
  // previous below base/3: the window collapses to [base, base].
  EXPECT_EQ(ReportClient::DecorrelatedBackoff(
                std::chrono::milliseconds(0), std::chrono::milliseconds(20),
                std::chrono::milliseconds(1000), rng),
            std::chrono::milliseconds(20));
}

}  // namespace
}  // namespace trajldp::net
