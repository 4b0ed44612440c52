#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
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
#include "net/ingest_server.h"
#include "net/report_client.h"
#include "net/socket.h"
#include "test_world.h"

namespace trajldp::net {
namespace {

using core::FullRelease;
using core::ShardPlan;
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

/// The acceptance surface of the networked ingest path: everything a
/// remote device can throw at a collector shard over a real loopback
/// TCP connection, from the happy bit-identical path to hostile bytes.
class NetFixture : public ::testing::Test {
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

  /// One collector shard behind one socket front-end.
  struct Shard {
    std::vector<UserRelease> out;
    std::unique_ptr<StreamingCollector> collector;
    std::unique_ptr<IngestServer> server;
  };

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

  std::unique_ptr<model::PoiDatabase> db_;
  model::TimeDomain time_;
  std::unique_ptr<core::NGramMechanism> mech_;
};

// The tentpole criterion: K collector shards fed over real TCP
// connections produce releases bit-identical to the in-process batch
// engine, for K ∈ {1, 2, 4} (the multi-process variant of this exact
// setup is examples/run_net_shards.sh, registered as ctest entries).
TEST_F(NetFixture, LoopbackShardsAreBitIdenticalToBatchEngine) {
  const uint64_t seed = 20260729;
  const auto users = MakeUsers(24, 3);
  const auto reference = Reference(users, seed);
  const auto reports = MakeReports(users, seed);

  for (const size_t num_shards : {1u, 2u, 4u}) {
    ShardPlan plan;
    plan.num_shards = num_shards;
    plan.strategy = ShardPlan::Strategy::kRange;
    plan.num_users = users.size();
    auto sharded = core::PartitionByShard(plan, io::ReportBatch(reports));

    std::vector<std::unique_ptr<Shard>> shards;
    for (size_t s = 0; s < num_shards; ++s) {
      IngestServer::Options options;
      options.expected_range = plan.RangeOf(s);
      shards.push_back(StartShard(seed, options));
      ASSERT_NE(shards.back(), nullptr);
    }

    for (size_t s = 0; s < num_shards; ++s) {
      ReportClient client("127.0.0.1", shards[s]->server->port());
      for (size_t begin = 0; begin < sharded[s].size(); begin += 3) {
        const size_t end = std::min(begin + 3, sharded[s].size());
        ASSERT_TRUE(client
                        .SendBatch(std::span<const io::WireReport>(
                            sharded[s].data() + begin, end - begin))
                        .ok());
      }
      client.Close();
    }

    ASSERT_TRUE(WaitFor([&] {
      size_t released = 0;
      for (const auto& shard : shards) {
        released += shard->collector->reports_released();
      }
      return released == users.size();
    })) << num_shards << " shards";

    std::vector<std::vector<UserRelease>> outputs;
    for (auto& shard : shards) {
      shard->server->Shutdown();
      EXPECT_TRUE(shard->server->first_connection_error().ok())
          << shard->server->first_connection_error();
      ASSERT_TRUE(shard->collector->Finish().ok());
      outputs.push_back(std::move(shard->out));
    }
    auto merged = core::MergeShardReleases(std::move(outputs), users.size());
    ASSERT_TRUE(merged.ok()) << num_shards << " shards: " << merged.status();
    ExpectIdenticalReleases(*merged, reference);
  }
}

// ---------- malformed input over the socket ----------

TEST_F(NetFixture, GarbageBytesFailTheConnectionNotTheServer) {
  const uint64_t seed = 7;
  auto shard = StartShard(seed);
  ASSERT_NE(shard, nullptr);

  {
    auto conn = TcpConnect("127.0.0.1", shard->server->port());
    ASSERT_TRUE(conn.ok()) << conn.status();
    ASSERT_TRUE(SendAll(*conn, "this is definitely not a TLWB frame").ok());
  }  // close

  ASSERT_TRUE(WaitFor(
      [&] { return shard->server->stats().connections_failed == 1; }));
  auto error = shard->server->first_connection_error();
  EXPECT_FALSE(error.ok());
  EXPECT_NE(error.message().find("magic"), std::string::npos) << error;

  // The server is still alive and serving: a well-formed connection
  // after the hostile one ingests normally.
  const auto users = MakeUsers(3, 5);
  const auto reports = MakeReports(users, seed);
  ReportClient client("127.0.0.1", shard->server->port());
  ASSERT_TRUE(client.SendBatch(reports).ok());
  client.Close();
  ASSERT_TRUE(WaitFor(
      [&] { return shard->collector->reports_released() == users.size(); }));
  shard->server->Shutdown();
  EXPECT_TRUE(shard->collector->Finish().ok());
}

TEST_F(NetFixture, OversizedLengthPrefixRejectedBeforeAllocation) {
  auto shard = StartShard(11);
  ASSERT_NE(shard, nullptr);

  // A syntactically valid header whose declared payload is ~4 GiB: the
  // server must reject from the 16 header bytes, never sizing a buffer.
  std::string header = *io::EncodeReportBatch(io::ReportBatch{});
  header.resize(io::kWireHeaderBytes);
  for (size_t i = 12; i < 16; ++i) header[i] = static_cast<char>(0xFF);
  {
    auto conn = TcpConnect("127.0.0.1", shard->server->port());
    ASSERT_TRUE(conn.ok()) << conn.status();
    ASSERT_TRUE(SendAll(*conn, header).ok());
    ASSERT_TRUE(WaitFor(
        [&] { return shard->server->stats().connections_failed == 1; }));
  }
  auto error = shard->server->first_connection_error();
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.message().find("frame limit"), std::string::npos) << error;
  shard->server->Shutdown();
  EXPECT_TRUE(shard->collector->Finish().ok());
}

TEST_F(NetFixture, TruncatedConnectionIsCorruptionNotCleanEof) {
  const uint64_t seed = 13;
  auto shard = StartShard(seed);
  ASSERT_NE(shard, nullptr);

  const auto users = MakeUsers(2, 9);
  const auto reports = MakeReports(users, seed);
  const std::string frame = *io::EncodeReportBatch(reports);
  {
    auto conn = TcpConnect("127.0.0.1", shard->server->port());
    ASSERT_TRUE(conn.ok()) << conn.status();
    // Half a frame, then FIN: a device dying mid-upload.
    ASSERT_TRUE(
        SendAll(*conn, std::string_view(frame).substr(0, frame.size() / 2))
            .ok());
  }
  ASSERT_TRUE(WaitFor(
      [&] { return shard->server->stats().connections_failed == 1; }));
  auto error = shard->server->first_connection_error();
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.message().find("truncated"), std::string::npos) << error;
  // Nothing reached the collector; the stream is still clean.
  shard->server->Shutdown();
  EXPECT_TRUE(shard->collector->Finish().ok());
  EXPECT_EQ(shard->collector->reports_released(), 0u);
}

TEST_F(NetFixture, MidStreamCorruptionFailsOnlyItsConnectionUnderCrcVerify) {
  const uint64_t seed = 20260729;
  const auto users = MakeUsers(6, 11);
  const auto reference = Reference(users, seed);
  const auto reports = MakeReports(users, seed);
  auto shard = StartShard(seed);
  ASSERT_NE(shard, nullptr);

  // N good frames, then one with a flipped payload byte, on ONE
  // connection.
  auto conn = TcpConnect("127.0.0.1", shard->server->port());
  ASSERT_TRUE(conn.ok()) << conn.status();
  for (size_t i = 0; i + 1 < reports.size(); ++i) {
    ASSERT_TRUE(
        SendAll(*conn, *io::EncodeReportBatch(io::ReportBatch{reports[i]}))
            .ok());
  }
  ASSERT_TRUE(WaitFor([&] {
    return shard->collector->reports_released() == reports.size() - 1;
  }));
  std::string corrupt =
      *io::EncodeReportBatch(io::ReportBatch{reports.back()});
  corrupt[io::kWireHeaderBytes + 1] =
      static_cast<char>(corrupt[io::kWireHeaderBytes + 1] ^ 0x10);
  ASSERT_TRUE(SendAll(*conn, corrupt).ok());
  ASSERT_TRUE(WaitFor(
      [&] { return shard->server->stats().connections_failed == 1; }));
  auto error = shard->server->first_connection_error();
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.message().find("checksum"), std::string::npos) << error;
  conn->Close();

  // The CRC gate kept the corruption out of the collector: its stream
  // is clean, and every release emitted before the bad frame is exact.
  shard->server->Shutdown();
  ASSERT_TRUE(shard->collector->Finish().ok());
  ASSERT_EQ(shard->out.size(), reports.size() - 1);
  for (const UserRelease& release : shard->out) {
    const auto& expected = reference[release.user_id];
    EXPECT_EQ(release.release.regions, expected.regions);
    EXPECT_EQ(release.release.trajectory, expected.trajectory);
  }
}

TEST_F(NetFixture, ShardRangeValidationRejectsForeignBatch) {
  const uint64_t seed = 19;
  const auto users = MakeUsers(8, 21);
  const auto reports = MakeReports(users, seed);
  IngestServer::Options options;
  options.expected_range = std::pair<uint64_t, uint64_t>(0, 4);
  auto shard = StartShard(seed, options);
  ASSERT_NE(shard, nullptr);

  // Users [4, 8) belong to some other shard; the range-carrying frame
  // is bounced from its first 32 bytes, no reports decoded.
  ReportClient client("127.0.0.1", shard->server->port());
  ASSERT_TRUE(client
                  .SendBatch(std::span<const io::WireReport>(
                      reports.data() + 4, 4))
                  .ok());
  ASSERT_TRUE(WaitFor(
      [&] { return shard->server->stats().connections_failed == 1; }));
  auto error = shard->server->first_connection_error();
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.message().find("outside this shard"), std::string::npos)
      << error;
  EXPECT_EQ(shard->collector->reports_released(), 0u);

  // The right half is accepted — over a fresh connection.
  ReportClient client2("127.0.0.1", shard->server->port());
  ASSERT_TRUE(client2
                  .SendBatch(std::span<const io::WireReport>(
                      reports.data(), 4))
                  .ok());
  ASSERT_TRUE(WaitFor(
      [&] { return shard->collector->reports_released() == 4u; }));
  shard->server->Shutdown();
  EXPECT_TRUE(shard->collector->Finish().ok());
}

// ---------- flow control and shutdown ----------

TEST_F(NetFixture, BackpressurePropagatesWithoutLosingFrames) {
  const uint64_t seed = 23;
  const auto users = MakeUsers(40, 25);
  const auto reports = MakeReports(users, seed);

  // A deliberately slow single worker over a capacity-1 queue: the
  // connection thread must spend most of the run holding one frame in
  // its timed-push retry loop (collector backpressure → no socket
  // reads → TCP flow control), and still deliver everything.
  StreamingCollector::Config config;
  config.num_threads = 1;
  config.queue_capacity = 1;
  IngestServer::Options options;
  options.push_retry = std::chrono::milliseconds(2);
  auto shard = StartShard(seed, options, config);
  ASSERT_NE(shard, nullptr);

  ReportClient client("127.0.0.1", shard->server->port());
  for (const io::WireReport& report : reports) {
    ASSERT_TRUE(
        client.SendBatch(std::span<const io::WireReport>(&report, 1)).ok());
  }
  client.Close();
  ASSERT_TRUE(WaitFor(
      [&] { return shard->collector->reports_released() == users.size(); }));
  EXPECT_EQ(shard->server->stats().frames_ingested, users.size());
  EXPECT_TRUE(shard->server->first_connection_error().ok());
  shard->server->Shutdown();
  ASSERT_TRUE(shard->collector->Finish().ok());
  EXPECT_EQ(shard->out.size(), users.size());
}

TEST_F(NetFixture, ShutdownUnblocksABackpressuredConnection) {
  const uint64_t seed = 29;
  const auto users = MakeUsers(6, 27);
  const auto reports = MakeReports(users, seed);

  // Gate the sink so the pipeline jams: worker blocked in the sink,
  // queue full, connection thread stuck in its timed-push loop.
  std::mutex gate;
  gate.lock();
  auto collector_config = StreamingCollector::Config();
  collector_config.num_threads = 1;
  collector_config.queue_capacity = 1;
  std::vector<UserRelease> out;
  StreamingCollector collector(
      mech_.get(), seed,
      [&](UserRelease release) {
        std::lock_guard<std::mutex> wait(gate);
        out.push_back(std::move(release));
      },
      collector_config);
  IngestServer::Options options;
  options.push_retry = std::chrono::milliseconds(5);
  auto server = IngestServer::Start(&collector, options);
  ASSERT_TRUE(server.ok()) << server.status();

  ReportClient client("127.0.0.1", (*server)->port());
  for (const io::WireReport& report : reports) {
    ASSERT_TRUE(
        client.SendBatch(std::span<const io::WireReport>(&report, 1)).ok());
  }
  // Let the jam actually form (first release attempt blocks in sink).
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // Shutdown must return despite the blocked connection: it wakes the
  // retry loop, joins the thread, and leaves the collector to us.
  (*server)->Shutdown();
  gate.unlock();
  ASSERT_TRUE(collector.Finish().ok());
  // Whatever was pushed before the jam stays released; nothing hangs.
  EXPECT_LE(out.size(), users.size());
}

// ---------- client behaviour ----------

TEST_F(NetFixture, ClientGivesUpCleanlyWhenNobodyListens) {
  // Grab an ephemeral port, then close the listener: connecting to it
  // must fail fast, max_attempts times, with a clean Status.
  uint16_t dead_port = 0;
  {
    auto listener = TcpListen(ListenOptions{});
    ASSERT_TRUE(listener.ok());
    dead_port = *LocalPort(*listener);
  }
  ReportClient::Options options;
  options.max_attempts = 2;
  options.initial_backoff = std::chrono::milliseconds(1);
  ReportClient client("127.0.0.1", dead_port, options);
  auto status = client.SendFrame(*io::EncodeReportBatch(io::ReportBatch{}));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("2 attempt(s)"), std::string::npos)
      << status;
  EXPECT_EQ(client.frames_sent(), 0u);
}

TEST_F(NetFixture, ClientCountsBackoffSleepsAndConnectFailures) {
  uint16_t dead_port = 0;
  {
    auto listener = TcpListen(ListenOptions{});
    ASSERT_TRUE(listener.ok());
    dead_port = *LocalPort(*listener);
  }
  ReportClient::Options options;
  options.max_attempts = 3;
  options.initial_backoff = std::chrono::milliseconds(1);
  options.max_backoff = std::chrono::milliseconds(5);
  ReportClient client("127.0.0.1", dead_port, options);
  ASSERT_FALSE(
      client.SendFrame(*io::EncodeReportBatch(io::ReportBatch{})).ok());
  // Every attempt dialed a dead port; every attempt past the first
  // slept a backoff draw first.
  EXPECT_EQ(client.connect_failures(), 3u);
  EXPECT_EQ(client.backoff_sleeps(), 2u);
  EXPECT_GE(client.backoff_sleep_total_ms(),
            client.backoff_sleeps() *
                static_cast<uint64_t>(options.initial_backoff.count()));
}

// A fleet redialing a dead or restarting server must spread out: clients
// seeded alike would draw the same sleeps and redial in lockstep.
TEST_F(NetFixture, ClientsDrawIndependentBackoffJitter) {
  uint16_t dead_port = 0;
  {
    auto listener = TcpListen(ListenOptions{});
    ASSERT_TRUE(listener.ok());
    dead_port = *LocalPort(*listener);
  }
  ReportClient::Options options;
  options.max_attempts = 6;
  options.initial_backoff = std::chrono::milliseconds(1);
  options.max_backoff = std::chrono::milliseconds(5);
  std::set<uint64_t> totals;
  for (int c = 0; c < 8; ++c) {
    ReportClient client("127.0.0.1", dead_port, options);
    ASSERT_FALSE(
        client.SendFrame(*io::EncodeReportBatch(io::ReportBatch{})).ok());
    ASSERT_EQ(client.backoff_sleeps(), 5u);
    totals.insert(client.backoff_sleep_total_ms());
  }
  EXPECT_GT(totals.size(), 1u) << "all 8 clients slept the same total";
}

TEST_F(NetFixture, ClientReconnectsAcrossServerRestart) {
  const uint64_t seed = 31;
  const auto users = MakeUsers(2, 33);
  const auto reports = MakeReports(users, seed);

  auto first = StartShard(seed);
  ASSERT_NE(first, nullptr);
  const uint16_t port = first->server->port();

  ReportClient client("127.0.0.1", port);
  ASSERT_TRUE(
      client.SendBatch(std::span<const io::WireReport>(&reports[0], 1)).ok());
  ASSERT_TRUE(WaitFor(
      [&] { return first->collector->reports_released() == 1u; }));
  first->server->Shutdown();
  ASSERT_TRUE(first->collector->Finish().ok());

  // Same endpoint, new process-generation: SO_REUSEADDR lets the
  // restarted server bind the port the client still points at.
  IngestServer::Options options;
  options.port = port;
  auto second = StartShard(seed, options);
  ASSERT_NE(second, nullptr);
  ASSERT_EQ(second->server->port(), port);

  // The client's next send sees the old connection's FIN, redials, and
  // delivers — no frames lost across a clean restart.
  ASSERT_TRUE(
      client.SendBatch(std::span<const io::WireReport>(&reports[1], 1)).ok());
  EXPECT_EQ(client.reconnects(), 1u);
  ASSERT_TRUE(WaitFor(
      [&] { return second->collector->reports_released() == 1u; }));
  second->server->Shutdown();
  ASSERT_TRUE(second->collector->Finish().ok());
  EXPECT_EQ(first->out.size() + second->out.size(), 2u);
}

}  // namespace
}  // namespace trajldp::net
