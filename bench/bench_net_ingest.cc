// Networked-ingest benchmark: stream the same wire frames into a
// StreamingCollector several ways — pushed directly in memory, over a
// real loopback TCP connection (net::ReportClient → net::IngestServer),
// and over loopback in exactly-once trim (sequenced client + journaling
// server, batched and per-record fsync) — on the same ~200-region /
// n = 2 world as bench_stream_ingest, and compare. Three timing gates:
// loopback throughput within 2× of in-memory (the socket hop must not
// dominate a pipeline whose cost is reconstruction), journaled ingest
// with batched fsync within 2× of raw loopback (durability must not
// either), and in-memory ingest with stage timing on within 1.05× of
// off; each is a median over kGateRounds paired rounds (bench_util.h
// RunPairedGate). Every run of every leg must be bit-identical to
// BatchReleaseEngine::ReleaseAllFull. A fourth leg holds 10k
// simultaneous connections against the epoll reactor (gate: target
// held AND merged output bit-identical).
//
//   ./build/bench_net_ingest [--json PATH] [--users N] [--churn-conns C]
//
// The timed section covers frame delivery (push or socket) through
// Finish(): decode + validate + reconstruct on the worker pool + merge.

#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/batch_release_engine.h"
#include "core/mechanism.h"
#include "core/shard_plan.h"
#include "core/streaming_collector.h"
#include "io/wire.h"
#include "net/ingest_server.h"
#include "net/report_client.h"
#include "net/socket.h"
#include "bench_util.h"
#include "obs/admin_server.h"
#include "test_support.h"

namespace trajldp {
namespace {

using core::FullRelease;
using region::RegionId;

// Paired rounds behind the three timing gates (docs/PERF.md §Timing
// gates).
constexpr int kGateRounds = 61;

int Run(size_t num_users, size_t churn_conns, const std::string& json_path) {
  constexpr int kN = 2;
  constexpr double kEpsilon = 5.0;
  constexpr size_t kTrajectoryLen = 5;
  constexpr size_t kBatchSize = 256;
  constexpr uint64_t kSeed = 20260729;

  // Same ~200-region world as bench_stream_ingest / bench_batch_e2e.
  auto db = bench::MakeLatticeDb(2000);
  if (!db.ok()) {
    std::cerr << db.status() << "\n";
    return 1;
  }
  const auto time = *model::TimeDomain::Create(10);
  core::NGramConfig config;
  config.n = kN;
  config.epsilon = kEpsilon;
  config.decomposition.grid_size = 5;
  config.decomposition.coarse_grids = {1};
  config.decomposition.base_interval_minutes = 1440;
  config.decomposition.merge.kappa = 1;
  config.reachability.speed_kmh = 8.0;
  config.reachability.reference_gap_minutes = 30;
  auto mech = core::NGramMechanism::Build(&*db, time, config);
  if (!mech.ok()) {
    std::cerr << mech.status() << "\n";
    return 1;
  }
  const size_t num_regions = mech->decomposition().num_regions();
  const size_t hw_threads = ThreadPool::DefaultThreadCount();
  std::cout << "world: " << num_regions << " regions, " << num_users
            << " users, n=" << kN << ", L=" << kTrajectoryLen
            << ", batch=" << kBatchSize << ", hw threads: " << hw_threads
            << "\n";

  std::vector<region::RegionTrajectory> users(num_users);
  {
    Rng rng(4242);
    for (auto& tau : users) {
      for (size_t i = 0; i < kTrajectoryLen; ++i) {
        tau.push_back(static_cast<RegionId>(rng.UniformUint64(num_regions)));
      }
    }
  }

  // Reference and device-side reports.
  std::vector<FullRelease> reference;
  {
    core::BatchReleaseEngine engine(&*mech);
    auto result = engine.ReleaseAllFull(users, kSeed);
    if (!result.ok()) {
      std::cerr << "batch engine: " << result.status() << "\n";
      return 1;
    }
    reference = std::move(*result);
  }
  io::ReportBatch reports;
  {
    core::BatchReleaseEngine engine(&mech->perturber());
    auto perturbed = engine.ReleaseAll(users, kSeed);
    if (!perturbed.ok()) {
      std::cerr << "device perturb: " << perturbed.status() << "\n";
      return 1;
    }
    reports = core::MakeWireReports(users, std::move(*perturbed),
                                    mech->perturber());
  }

  // Pre-encode the frames once (framing is the devices' cost) with the
  // user-range routing field, exactly as ReportClient::SendBatch would.
  auto encode_frames =
      [&](const io::ReportBatch& shard) -> StatusOr<std::vector<std::string>> {
    io::WireEncodeOptions encode;
    encode.include_user_range = true;
    std::vector<std::string> frames;
    for (size_t begin = 0; begin < shard.size(); begin += kBatchSize) {
      const size_t end = std::min(begin + kBatchSize, shard.size());
      auto frame = io::EncodeReportBatch(
          std::span<const io::WireReport>(shard.data() + begin, end - begin),
          encode);
      if (!frame.ok()) return frame.status();
      frames.push_back(std::move(*frame));
    }
    return frames;
  };

  core::StreamingCollector::Config collector_config;
  collector_config.num_threads = std::max<size_t>(1, hw_threads);
  collector_config.queue_capacity = 8;

  // Stops the leg's stopwatch after the merge and returns its seconds.
  // Every run of every leg must match the batch engine.
  bool bit_identical = true;
  auto finish_and_check =
      [&](std::vector<std::vector<core::UserRelease>> outputs,
          Stopwatch& watch) -> StatusOr<double> {
    auto merged = core::MergeShardReleases(std::move(outputs), num_users);
    const double seconds = watch.ElapsedSeconds();
    if (!merged.ok()) return merged.status();
    bit_identical = bit_identical && *merged == reference;
    return seconds;
  };

  // --- Leg 1: in-memory PushEncoded (the BENCH_stream shape). --------
  // `stage_timing` toggles the per-frame/per-report latency histogram
  // clock reads (counters stay on either way) — the two settings are
  // the telemetered/untelemetered pair behind metrics_overhead_ratio.
  auto run_inmem = [&](bool stage_timing) -> StatusOr<double> {
    auto frames = encode_frames(reports);
    if (!frames.ok()) return frames.status();
    std::vector<std::vector<core::UserRelease>> outputs(1);
    auto timed_config = collector_config;
    timed_config.enable_stage_timing = stage_timing;
    Stopwatch watch;
    {
      core::StreamingCollector collector(
          &*mech, kSeed,
          [&outputs](core::UserRelease release) {
            outputs[0].push_back(std::move(release));
          },
          timed_config);
      for (std::string& frame : *frames) {
        TRAJLDP_RETURN_NOT_OK(collector.PushEncoded(std::move(frame)));
      }
      TRAJLDP_RETURN_NOT_OK(collector.Finish());
    }
    return finish_and_check(std::move(outputs), watch);
  };

  // --- Leg 2: the same frames through loopback TCP, K shards. --------
  auto run_loopback = [&](size_t num_shards) -> StatusOr<double> {
    core::ShardPlan plan;
    plan.num_shards = num_shards;
    plan.strategy = core::ShardPlan::Strategy::kRange;
    plan.num_users = num_users;
    auto sharded = core::PartitionByShard(plan, io::ReportBatch(reports));
    std::vector<std::vector<std::string>> frames(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      auto encoded = encode_frames(sharded[s]);
      if (!encoded.ok()) return encoded.status();
      frames[s] = std::move(*encoded);
    }

    std::vector<std::vector<core::UserRelease>> outputs(num_shards);
    std::vector<std::unique_ptr<core::StreamingCollector>> collectors;
    std::vector<std::unique_ptr<net::IngestServer>> servers;
    Stopwatch watch;
    for (size_t s = 0; s < num_shards; ++s) {
      collectors.push_back(std::make_unique<core::StreamingCollector>(
          &*mech, kSeed,
          [&outputs, s](core::UserRelease release) {
            outputs[s].push_back(std::move(release));
          },
          collector_config));
      net::IngestServer::Options options;
      options.expected_range = plan.RangeOf(s);
      auto server = net::IngestServer::Start(collectors.back().get(),
                                             options);
      if (!server.ok()) return server.status();
      servers.push_back(std::move(*server));
    }
    for (size_t s = 0; s < num_shards; ++s) {
      net::ReportClient client("127.0.0.1", servers[s]->port());
      // An empty shard still gets one keep-alive frame: the drain loop
      // below waits for each server's client to connect and close.
      if (frames[s].empty()) {
        TRAJLDP_RETURN_NOT_OK(client.SendBatch({}));
      }
      for (const std::string& frame : frames[s]) {
        TRAJLDP_RETURN_NOT_OK(client.SendFrame(frame));
      }
      client.Close();
    }
    // Drain: every client has disconnected; frames are queued at worst.
    for (size_t s = 0; s < num_shards; ++s) {
      while (servers[s]->stats().connections_closed < 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      servers[s]->Shutdown();
      TRAJLDP_RETURN_NOT_OK(servers[s]->first_connection_error());
      TRAJLDP_RETURN_NOT_OK(collectors[s]->Finish());
    }
    return finish_and_check(std::move(outputs), watch);
  };

  // --- Leg 3: exactly-once — journaled server, sequenced client. -----
  // The full durability tax in one number: every frame is appended to
  // the journal and fsynced (per `sync`) before its ack releases the
  // client's window, the server runs sequence dedup, and the collector
  // runs the per-user-id backstop. SendBatch encodes inside the timed
  // region (the sequence stamp is per-frame), which only biases the
  // ratio AGAINST this leg.
  auto run_journaled =
      [&](io::FrameJournal::SyncPolicy sync) -> StatusOr<double> {
    const std::string journal_path =
        (std::filesystem::temp_directory_path() / "bench_net_ingest.journal")
            .string();
    std::filesystem::remove(journal_path);
    std::vector<std::vector<core::UserRelease>> outputs(1);
    Stopwatch watch;
    {
      auto journaled_config = collector_config;
      journaled_config.dedup_user_ids = true;
      core::StreamingCollector collector(
          &*mech, kSeed,
          [&outputs](core::UserRelease release) {
            outputs[0].push_back(std::move(release));
          },
          journaled_config);
      net::IngestServer::Options options;
      options.expected_range = std::pair<uint64_t, uint64_t>(0, num_users);
      options.journal_path = journal_path;
      options.journal_options.sync = sync;
      options.journal_options.sync_every_bytes = 64u << 10;
      auto server = net::IngestServer::Start(&collector, options);
      if (!server.ok()) return server.status();

      net::ReportClient::Options client_options;
      client_options.enable_sequencing = true;
      client_options.stream_id = 1;
      net::ReportClient client("127.0.0.1", (*server)->port(),
                               client_options);
      for (size_t begin = 0; begin < reports.size(); begin += kBatchSize) {
        const size_t end = std::min(begin + kBatchSize, reports.size());
        TRAJLDP_RETURN_NOT_OK(
            client.SendBatch(std::span<const io::WireReport>(
                reports.data() + begin, end - begin)));
      }
      TRAJLDP_RETURN_NOT_OK(client.Flush());
      client.Close();
      while ((*server)->stats().connections_closed < 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      (*server)->Shutdown();
      TRAJLDP_RETURN_NOT_OK((*server)->first_connection_error());
      TRAJLDP_RETURN_NOT_OK(collector.Finish());
    }
    auto seconds = finish_and_check(std::move(outputs), watch);
    std::filesystem::remove(journal_path);
    return seconds;
  };

  // --- Leg 4: connection churn — the million-device shape, scaled. ---
  // The reactor claim under test: concurrency costs fds and buffers,
  // not threads. Hold `target_conns` simultaneous device connections
  // on ONE server, then stream every report through them one frame per
  // user, round-robin — so each held connection actually carries work —
  // and bit-compare the merged output. Thread-per-connection dies here
  // (10k stacks); the reactor must not.
  //
  // The client ends live in a forked dialer child: each held connection
  // costs one fd in the server process and one in the child, so a 20k
  // RLIMIT_NOFILE (which CAP_SYS_RESOURCE-less containers cannot raise)
  // still fits 10k simultaneous connections per side. The fork happens
  // before the collector spawns its worker threads; the child touches
  // nothing but the pre-encoded frames and its pipes, and leaves via
  // _exit.
  struct ChurnResult {
    double seconds = 0.0;
    size_t target = 0;      // what was asked for
    size_t required = 0;    // target after the (announced) rlimit cap
    size_t concurrent = 0;  // simultaneously-open connections achieved
    bool identical = false;
    /// GET /metrics answered 200 with the core ingest series, non-zero,
    /// WHILE the held connections streamed their frames.
    bool scrape_ok = false;
  };
  auto http_get = [](uint16_t port, const std::string& path) -> std::string {
    auto socket = net::TcpConnect("127.0.0.1", port);
    if (!socket.ok()) return "";
    const std::string request =
        "GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n";
    if (!net::SendAll(*socket, request).ok()) return "";
    std::string response;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(socket->fd(), buf, sizeof(buf), 0);
      if (n <= 0) break;
      response.append(buf, static_cast<size_t>(n));
    }
    return response;
  };
  auto run_churn = [&](size_t target_conns) -> StatusOr<ChurnResult> {
    target_conns = std::max<size_t>(1, target_conns);
    // One report per frame: every connection transports real work.
    io::WireEncodeOptions encode;
    encode.include_user_range = true;
    std::vector<std::string> frames(reports.size());
    for (size_t i = 0; i < reports.size(); ++i) {
      auto frame = io::EncodeReportBatch(
          std::span<const io::WireReport>(reports.data() + i, 1), encode);
      if (!frame.ok()) return frame.status();
      frames[i] = std::move(*frame);
    }

    // Raise RLIMIT_NOFILE as far as the environment allows, then cap
    // the target to what fits — loudly, never silently.
    struct rlimit lim {};
    getrlimit(RLIMIT_NOFILE, &lim);
    const rlim_t wanted = static_cast<rlim_t>(target_conns + 2048);
    if (lim.rlim_cur < wanted) {
      struct rlimit raised = lim;
      raised.rlim_cur = wanted;
      raised.rlim_max = std::max(lim.rlim_max, wanted);
      if (setrlimit(RLIMIT_NOFILE, &raised) != 0) {
        raised = lim;
        raised.rlim_cur = lim.rlim_max;  // soft -> hard always allowed
        (void)setrlimit(RLIMIT_NOFILE, &raised);
      }
      getrlimit(RLIMIT_NOFILE, &lim);
    }
    const size_t capacity =
        lim.rlim_cur > 1024 ? static_cast<size_t>(lim.rlim_cur) - 1024 : 0;
    ChurnResult result;
    result.target = target_conns;
    const size_t conns = std::min(target_conns, capacity);
    result.required = conns;
    if (conns < target_conns) {
      std::printf(
          "churn leg: RLIMIT_NOFILE %llu caps concurrent connections at "
          "%zu (target %zu)\n",
          static_cast<unsigned long long>(lim.rlim_cur), conns,
          target_conns);
    }

    constexpr size_t kDialChunk = 256;  // < server backlog, see below
    auto read_full = [](int fd, void* buf, size_t len) -> bool {
      char* p = static_cast<char*>(buf);
      while (len > 0) {
        ssize_t n = ::read(fd, p, len);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        p += n;
        len -= static_cast<size_t>(n);
      }
      return true;
    };
    auto write_full = [](int fd, const void* buf, size_t len) -> bool {
      const char* p = static_cast<const char*>(buf);
      while (len > 0) {
        ssize_t n = ::write(fd, p, len);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        p += n;
        len -= static_cast<size_t>(n);
      }
      return true;
    };

    int to_child[2];
    int to_parent[2];
    if (::pipe(to_child) != 0 || ::pipe(to_parent) != 0) {
      return Status::Internal("pipe: " + std::string(std::strerror(errno)));
    }
    const pid_t child = ::fork();
    if (child < 0) {
      return Status::Internal("fork: " + std::string(std::strerror(errno)));
    }
    if (child == 0) {
      // --- Dialer child. Protocol, one byte per step:
      //   parent -> child: u16 port, then 'g' per dial chunk, then 's'
      //   child -> parent: 'k' after each chunk dialed, 'd' when closed
      ::close(to_child[1]);
      ::close(to_parent[0]);
      uint16_t port = 0;
      if (!read_full(to_child[0], &port, sizeof(port))) _exit(2);
      std::vector<net::Socket> held;
      held.reserve(conns);
      while (held.size() < conns) {
        const size_t chunk = std::min(kDialChunk, conns - held.size());
        for (size_t i = 0; i < chunk; ++i) {
          auto conn = net::TcpConnect("127.0.0.1", port);
          if (!conn.ok()) _exit(3);
          held.push_back(std::move(*conn));
        }
        char token = 'k';
        if (!write_full(to_parent[1], &token, 1)) _exit(2);
        if (!read_full(to_child[0], &token, 1) || token != 'g') _exit(2);
      }
      char token = 0;
      if (!read_full(to_child[0], &token, 1) || token != 's') _exit(2);
      for (size_t i = 0; i < frames.size(); ++i) {
        if (!net::SendAll(held[i % held.size()], frames[i]).ok()) _exit(4);
      }
      for (net::Socket& conn : held) conn.Close();
      token = 'd';
      if (!write_full(to_parent[1], &token, 1)) _exit(2);
      _exit(0);
    }
    ::close(to_child[0]);
    ::close(to_parent[1]);
    auto fail = [&](const std::string& what) -> Status {
      ::close(to_child[1]);
      ::close(to_parent[0]);
      ::kill(child, SIGKILL);
      int wstatus = 0;
      ::waitpid(child, &wstatus, 0);
      return Status::Internal("churn leg: " + what);
    };

    std::vector<std::vector<core::UserRelease>> outputs(1);
    Stopwatch watch;
    {
      core::StreamingCollector collector(
          &*mech, kSeed,
          [&outputs](core::UserRelease release) {
            outputs[0].push_back(std::move(release));
          },
          collector_config);
      net::IngestServer::Options options;
      options.expected_range = std::pair<uint64_t, uint64_t>(0, num_users);
      options.backlog = 1024;
      auto server = net::IngestServer::Start(&collector, options);
      if (!server.ok()) return server.status();
      // The scrape-under-load probe: an admin endpoint on the ingest
      // registry, hit while every held connection streams frames. Shut
      // down BEFORE the ingest server dies — its collection hook must
      // not run against a destroyed server.
      auto admin = obs::AdminServer::Start((*server)->metrics());
      if (!admin.ok()) return fail("admin endpoint failed to start");

      const uint16_t port = (*server)->port();
      if (!write_full(to_child[1], &port, sizeof(port))) {
        return fail("child died before the ramp");
      }
      // Ramp: ack each dialed chunk only once the server has adopted
      // it, so the listen backlog never overflows into SYN retries.
      size_t dialed = 0;
      while (dialed < conns) {
        char token = 0;
        if (!read_full(to_parent[0], &token, 1) || token != 'k') {
          return fail("dialer exited mid-ramp");
        }
        dialed += std::min(kDialChunk, conns - dialed);
        while ((*server)->stats().connections_accepted < dialed) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        token = 'g';
        if (!write_full(to_child[1], &token, 1)) {
          return fail("dialer exited mid-ramp");
        }
      }
      // The claim being gated: all of them open AT ONCE, all adopted.
      const auto ramp_stats = (*server)->stats();
      result.concurrent =
          ramp_stats.connections_accepted - ramp_stats.connections_closed;

      char token = 's';
      if (!write_full(to_child[1], &token, 1)) {
        return fail("dialer exited before sending");
      }
      // Scrape while the dialer streams: the endpoint must answer with
      // valid exposition text carrying non-zero core series even with
      // every connection live and the reactors busy.
      {
        const std::string scrape = http_get((*admin)->port(), "/metrics");
        bool accepted_positive = false;
        // Newline-anchored: the bare name also appears in # HELP/# TYPE.
        const std::string needle =
            "\ntrajldp_ingest_connections_accepted_total ";
        if (const size_t pos = scrape.find(needle);
            pos != std::string::npos) {
          accepted_positive =
              std::atof(scrape.c_str() + pos + needle.size()) > 0.0;
        }
        result.scrape_ok =
            scrape.find("HTTP/1.1 200 OK") != std::string::npos &&
            scrape.find("# TYPE trajldp_ingest_frames_total counter") !=
                std::string::npos &&
            accepted_positive;
      }
      if (!read_full(to_parent[0], &token, 1) || token != 'd') {
        return fail("dialer exited while sending");
      }
      while ((*server)->stats().connections_closed <
             (*server)->stats().connections_accepted) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      (*admin)->Shutdown();
      (*server)->Shutdown();
      TRAJLDP_RETURN_NOT_OK((*server)->first_connection_error());
      TRAJLDP_RETURN_NOT_OK(collector.Finish());
    }
    ::close(to_child[1]);
    ::close(to_parent[0]);
    int wstatus = 0;
    ::waitpid(child, &wstatus, 0);
    if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
      return Status::Internal("churn dialer child failed, status " +
                              std::to_string(wstatus));
    }
    auto merged = core::MergeShardReleases(std::move(outputs), num_users);
    result.seconds = watch.ElapsedSeconds();
    if (!merged.ok()) return merged.status();
    result.identical = *merged == reference;
    return result;
  };

  // The three timing gates. Each ratio is the numerator leg's seconds
  // over the denominator leg's, i.e. the denominator's users/s over the
  // numerator's. The gated journal configuration is batched fsync
  // (every 64 KiB); fsync-per-record is measured once below and only
  // reported — it is the deliberately paranoid end of the policy
  // spectrum.
  const bench::TimedLeg inmem = [&] { return run_inmem(true); };
  const bench::TimedLeg untelemetered = [&] { return run_inmem(false); };
  const bench::TimedLeg loopback = [&] { return run_loopback(1); };
  const bench::TimedLeg journaled = [&] {
    return run_journaled(io::FrameJournal::SyncPolicy::kEveryBytes);
  };
  bench::TimingGate loopback_gate{"inmem_over_loopback", 2.0, false};
  bench::TimingGate journaled_gate{"loopback_over_journaled", 2.0, false};
  bench::TimingGate metrics_gate{"metrics_overhead_ratio", 1.05, false};
  for (const auto& [gate, numerator, denominator] :
       {std::tuple{&loopback_gate, &loopback, &inmem},
        std::tuple{&journaled_gate, &journaled, &loopback},
        std::tuple{&metrics_gate, &inmem, &untelemetered}}) {
    if (Status status = bench::RunPairedGate(kGateRounds, *numerator,
                                             *denominator, *gate);
        !status.ok()) {
      std::cerr << gate->key << " rounds: " << status << "\n";
      return 1;
    }
  }
  auto loopback2 = run_loopback(2);
  if (!loopback2.ok()) {
    std::cerr << "loopback 2-shard leg: " << loopback2.status() << "\n";
    return 1;
  }
  auto journaled_everyrec =
      run_journaled(io::FrameJournal::SyncPolicy::kEveryRecord);
  if (!journaled_everyrec.ok()) {
    std::cerr << "journaled (fsync-per-record) leg: "
              << journaled_everyrec.status() << "\n";
    return 1;
  }
  auto churn = run_churn(churn_conns);
  if (!churn.ok()) {
    std::cerr << "churn leg: " << churn.status() << "\n";
    return 1;
  }

  const auto users_per_sec = [&](double seconds) {
    return static_cast<double>(num_users) / seconds;
  };
  const double inmem_seconds = loopback_gate.denominator_seconds;
  const double untimed_seconds = metrics_gate.denominator_seconds;
  const double loopback_seconds = loopback_gate.numerator_seconds;
  const double journaled_seconds = journaled_gate.numerator_seconds;
  // The churn gate: the reactor must actually have held the requested
  // connection count open at once (modulo a loudly-announced rlimit
  // cap) AND the work carried over those connections must merge
  // bit-identically.
  const bool churn_held = churn->concurrent >= churn->required;
  // Gated legs print their median over the timed rounds.
  std::printf("in-memory ingest : %8.0f users/s (%.3f s)\n",
              users_per_sec(inmem_seconds), inmem_seconds);
  std::printf("in-memory, stage timing off: %8.0f users/s (%.3f s)\n",
              users_per_sec(untimed_seconds), untimed_seconds);
  std::printf("loopback ingest  : %8.0f users/s (%.3f s)\n",
              users_per_sec(loopback_seconds), loopback_seconds);
  std::printf("loopback 2 shards: %8.0f users/s (%.3f s)\n",
              users_per_sec(*loopback2), *loopback2);
  std::printf("journaled (64KiB fsync): %8.0f users/s (%.3f s)\n",
              users_per_sec(journaled_seconds), journaled_seconds);
  std::printf("journaled (per-record fsync): %8.0f users/s (%.3f s)\n",
              users_per_sec(*journaled_everyrec), *journaled_everyrec);
  std::printf("churn (%zu conns held): %zu concurrent (%.3f s)%s%s\n",
              churn->required, churn->concurrent, churn->seconds,
              churn_held ? "" : "  UNDER TARGET",
              churn->identical ? "" : "  MISMATCH");
  loopback_gate.Print();
  journaled_gate.Print();
  metrics_gate.Print();
  std::printf("/metrics scrape under churn load: %s\n",
              churn->scrape_ok ? "PASS" : "FAIL");
  std::cout << "all legs bit-identical to batch engine: "
            << (bit_identical ? "yes" : "NO — DETERMINISM BUG") << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot open " << json_path << " for writing\n";
      return 1;
    }
    out << "{\n"
        << "  \"bench\": \"net_ingest\",\n"
        << "  \"num_users\": " << num_users << ",\n"
        << "  \"num_regions\": " << num_regions << ",\n"
        << "  \"ngram_n\": " << kN << ",\n"
        << "  \"epsilon\": " << kEpsilon << ",\n"
        << "  \"trajectory_len\": " << kTrajectoryLen << ",\n"
        << "  \"batch_size\": " << kBatchSize << ",\n"
        << "  \"hw_threads\": " << hw_threads << ",\n"
        << "  \"inmem_seconds\": " << inmem_seconds << ",\n"
        << "  \"inmem_users_per_sec\": " << users_per_sec(inmem_seconds)
        << ",\n"
        << "  \"inmem_untelemetered_users_per_sec\": "
        << users_per_sec(untimed_seconds) << ",\n";
    metrics_gate.WriteJson(out);
    out << "  \"metrics_within_1_05x\": "
        << (metrics_gate.pass() ? "true" : "false") << ",\n"
        << "  \"churn_metrics_scrape_ok\": "
        << (churn->scrape_ok ? "true" : "false") << ",\n"
        << "  \"loopback_seconds\": " << loopback_seconds << ",\n"
        << "  \"loopback_users_per_sec\": " << users_per_sec(loopback_seconds)
        << ",\n"
        << "  \"loopback_2shard_users_per_sec\": "
        << users_per_sec(*loopback2) << ",\n"
        << "  \"journaled_seconds\": " << journaled_seconds << ",\n"
        << "  \"journaled_users_per_sec\": "
        << users_per_sec(journaled_seconds) << ",\n"
        << "  \"journaled_everyrec_users_per_sec\": "
        << users_per_sec(*journaled_everyrec) << ",\n";
    journaled_gate.WriteJson(out);
    loopback_gate.WriteJson(out);
    out << "  \"loopback_within_2x\": "
        << (loopback_gate.pass() ? "true" : "false") << ",\n"
        << "  \"journaled_within_2x\": "
        << (journaled_gate.pass() ? "true" : "false") << ",\n"
        << "  \"churn_target_connections\": " << churn->target << ",\n"
        << "  \"churn_concurrent_connections\": " << churn->concurrent
        << ",\n"
        << "  \"churn_seconds\": " << churn->seconds << ",\n"
        << "  \"churn_bit_identical\": "
        << (churn->identical ? "true" : "false") << ",\n"
        << "  \"bit_identical\": " << (bit_identical ? "true" : "false")
        << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  if (!bit_identical || !churn->identical) return 2;
  return loopback_gate.pass() && journaled_gate.pass() && churn_held &&
                 metrics_gate.pass() && churn->scrape_ok
             ? 0
             : 3;
}

}  // namespace
}  // namespace trajldp

int main(int argc, char** argv) {
  // Env default first; an explicit --users flag wins over it.
  size_t num_users = 5000;
  if (const char* env = std::getenv("TRAJLDP_BENCH_NET_USERS")) {
    num_users = static_cast<size_t>(std::atoll(env));
  }
  size_t churn_conns = 10000;
  if (const char* env = std::getenv("TRAJLDP_BENCH_NET_CHURN_CONNS")) {
    churn_conns = static_cast<size_t>(std::atoll(env));
  }
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--users") == 0 && i + 1 < argc) {
      num_users = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--churn-conns") == 0 && i + 1 < argc) {
      churn_conns = static_cast<size_t>(std::atoll(argv[++i]));
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--json PATH] [--users N] [--churn-conns C]\n";
      return 1;
    }
  }
  return trajldp::Run(num_users, churn_conns, json_path);
}
