// Multi-PROCESS sharded collection over real TCP sockets — the
// networked big sibling of examples/streaming_collector.cpp, and the
// binary behind examples/run_net_shards.sh (registered in ctest as
// net_shard_harness_k{1,2,4}).
//
// One binary, three roles, so every process builds the identical public
// world from (seed, users) alone:
//
//   serve   one collector shard: StreamingCollector behind a
//           net::IngestServer on a loopback port (0 = ephemeral, the
//           bound port is published to --port-file). Ingests until its
//           expected clients have disconnected, then drains, and writes
//           the shard's releases to --out.
//   send    the device fleet: perturbs every user's trajectory (the
//           only ε-budgeted step), frames reports, routes them to the
//           shard servers by core::ShardPlan (kRange, so each batch's
//           wire user-range proves shard membership), and streams them
//           via net::ReportClient.
//   verify  loads the K shard release files, merges them, recomputes
//           BatchReleaseEngine::ReleaseAllFull in-process, and
//           bit-compares. Exit 0 iff identical.
//
// The claim being demonstrated: K collector PROCESSES that never share
// memory — only the public city model, the seed, and the wire bytes —
// release exactly what one in-process engine would, bit for bit.

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/status_or.h"
#include "core/batch_release_engine.h"
#include "core/mechanism.h"
#include "core/shard_plan.h"
#include "core/streaming_collector.h"
#include "eval/dataset.h"
#include "io/wire.h"
#include "net/ingest_server.h"
#include "net/report_client.h"
#include "obs/admin_server.h"

using namespace trajldp;

namespace {

// ------------------------------------------------------------ the world

struct World {
  std::unique_ptr<eval::Dataset> dataset;
  std::unique_ptr<core::NGramMechanism> mechanism;
  std::vector<region::RegionTrajectory> users;
};

// Every role rebuilds this identically from (users, seed): the dataset
// generator and the mechanism pre-processing are deterministic, which
// is what lets independent processes agree on the world without
// exchanging anything but report bytes. The harness seed drives BOTH
// the world and the DP noise streams, so distinct seeds are fully
// distinct reproduction runs.
StatusOr<World> BuildWorld(size_t num_users, uint64_t seed) {
  World world;
  eval::DatasetOptions options;
  options.num_pois = 400;
  options.num_trajectories = num_users;
  options.seed = seed;
  auto dataset = eval::MakeTaxiFoursquareDataset(options);
  if (!dataset.ok()) return dataset.status();
  world.dataset = std::make_unique<eval::Dataset>(std::move(*dataset));

  core::NGramConfig config;
  config.epsilon = 5.0;
  config.reachability = world.dataset->reachability;
  config.quality_sensitivity = 1.0;
  auto mech = core::NGramMechanism::Build(&world.dataset->db,
                                          world.dataset->time, config);
  if (!mech.ok()) return mech.status();
  world.mechanism =
      std::make_unique<core::NGramMechanism>(std::move(*mech));

  for (const auto& trajectory : world.dataset->trajectories) {
    auto tau =
        world.mechanism->decomposition().ToRegionTrajectory(trajectory);
    // Shard servers size their user ranges from the REQUESTED count, so
    // the harness insists the deterministic dataset converts fully
    // instead of silently renumbering a shorter population.
    if (!tau.ok()) return tau.status();
    world.users.push_back(std::move(*tau));
  }
  if (world.users.size() != num_users) {
    return Status::Internal("dataset produced " +
                            std::to_string(world.users.size()) +
                            " users, expected " + std::to_string(num_users));
  }
  return world;
}

core::ShardPlan PlanFor(size_t num_shards, size_t num_users) {
  core::ShardPlan plan;
  plan.num_shards = num_shards;
  plan.strategy = core::ShardPlan::Strategy::kRange;
  plan.num_users = num_users;
  return plan;
}

// ---------------------------------------- release files (shard output)

// A tiny little-endian container for UserRelease vectors — harness
// plumbing, not a public format (reports travel as TLWB; this is only
// how a serve process hands its output to verify).
constexpr uint32_t kReleaseMagic = 0x534C5254u;  // "TRLS" LE

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void EncodeRelease(std::string& blob, const core::UserRelease& user) {
  PutU64(blob, user.user_id);
  PutU32(blob, static_cast<uint32_t>(user.release.regions.size()));
  for (region::RegionId r : user.release.regions) PutU32(blob, r);
  PutU32(blob, static_cast<uint32_t>(user.release.trajectory.size()));
  for (const model::TrajectoryPoint& p : user.release.trajectory.points()) {
    PutU32(blob, p.poi);
    PutU32(blob, static_cast<uint32_t>(p.t));
  }
  PutU64(blob, user.release.poi_attempts);
  blob.push_back(user.release.smoothed ? 1 : 0);
}

Status WriteReleases(const std::string& path,
                     const std::vector<core::UserRelease>& releases) {
  std::string blob;
  PutU32(blob, kReleaseMagic);
  PutU64(blob, releases.size());
  for (const core::UserRelease& user : releases) EncodeRelease(blob, user);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::NotFound("cannot open " + path);
  file.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  file.close();
  if (!file) return Status::Internal("error writing " + path);
  return Status::Ok();
}

class BlobReader {
 public:
  explicit BlobReader(std::string blob) : blob_(std::move(blob)) {}

  Status Read(void* out, size_t n) {
    if (pos_ + n > blob_.size()) {
      return Status::InvalidArgument("release file truncated");
    }
    std::memcpy(out, blob_.data() + pos_, n);
    pos_ += n;
    return Status::Ok();
  }
  Status ReadU32(uint32_t* v) {
    unsigned char b[4];
    TRAJLDP_RETURN_NOT_OK(Read(b, 4));
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(b[i]) << (8 * i);
    return Status::Ok();
  }
  Status ReadU64(uint64_t* v) {
    unsigned char b[8];
    TRAJLDP_RETURN_NOT_OK(Read(b, 8));
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(b[i]) << (8 * i);
    return Status::Ok();
  }
  bool exhausted() const { return pos_ == blob_.size(); }

 private:
  std::string blob_;
  size_t pos_ = 0;
};

Status DecodeRelease(BlobReader& reader, core::UserRelease* user) {
  TRAJLDP_RETURN_NOT_OK(reader.ReadU64(&user->user_id));
  uint32_t regions = 0;
  TRAJLDP_RETURN_NOT_OK(reader.ReadU32(&regions));
  user->release.regions.resize(regions);
  for (auto& r : user->release.regions) {
    TRAJLDP_RETURN_NOT_OK(reader.ReadU32(&r));
  }
  uint32_t points = 0;
  TRAJLDP_RETURN_NOT_OK(reader.ReadU32(&points));
  for (uint32_t p = 0; p < points; ++p) {
    uint32_t poi = 0;
    uint32_t t = 0;
    TRAJLDP_RETURN_NOT_OK(reader.ReadU32(&poi));
    TRAJLDP_RETURN_NOT_OK(reader.ReadU32(&t));
    user->release.trajectory.Append(poi, static_cast<model::Timestep>(t));
  }
  uint64_t attempts = 0;
  TRAJLDP_RETURN_NOT_OK(reader.ReadU64(&attempts));
  user->release.poi_attempts = static_cast<size_t>(attempts);
  unsigned char smoothed = 0;
  TRAJLDP_RETURN_NOT_OK(reader.Read(&smoothed, 1));
  user->release.smoothed = smoothed != 0;
  return Status::Ok();
}

StatusOr<std::vector<core::UserRelease>> ReadReleases(
    const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  BlobReader reader(buffer.str());

  uint32_t magic = 0;
  TRAJLDP_RETURN_NOT_OK(reader.ReadU32(&magic));
  if (magic != kReleaseMagic) {
    return Status::InvalidArgument(path + " is not a release file");
  }
  uint64_t count = 0;
  TRAJLDP_RETURN_NOT_OK(reader.ReadU64(&count));
  std::vector<core::UserRelease> releases;
  releases.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    core::UserRelease user;
    TRAJLDP_RETURN_NOT_OK(DecodeRelease(reader, &user));
    releases.push_back(std::move(user));
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument(path + " has trailing bytes");
  }
  return releases;
}

// ---------------------------- incremental release log (compaction mode)

// Journal compaction may drop a frame's journal record ONLY once its
// releases are durable somewhere else — and the in-memory `releases`
// vector is not somewhere else. Under --compact-bytes the serve role
// therefore persists every release to `out + ".partial"` (one CRC'd,
// fsynced record per release) BEFORE the frame's completion is allowed
// to advance the released watermark, and a restart preloads the log:
// journal replay covers frames whose releases never landed, this log
// covers frames whose journal records compaction already dropped.
// Torn tails (a crash mid-append) are truncated on load, exactly like
// the frame journal's own recovery.
class PartialReleaseLog {
 public:
  // "TRLP" (TrajLdp Release Partial) as little-endian bytes.
  static constexpr uint32_t kMagic = 0x504C5254u;

  ~PartialReleaseLog() { Close(); }

  /// Loads the valid prefix of `path` into `out` (creating the file if
  /// absent), truncates any torn tail, and opens for appending.
  Status Open(const std::string& path, std::vector<core::UserRelease>* out) {
    path_ = path;
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) {
      return Status::NotFound("cannot open release log " + path + ": " +
                              std::strerror(errno));
    }
    std::string blob;
    {
      std::ifstream file(path, std::ios::binary);
      std::ostringstream buffer;
      buffer << file.rdbuf();
      blob = buffer.str();
    }
    // Longest-valid-prefix scan: u32 magic | u32 len | payload | u32 CRC.
    size_t valid = 0;
    while (blob.size() - valid >= 12) {
      BlobReader header(blob.substr(valid, 8));
      uint32_t magic = 0;
      uint32_t len = 0;
      (void)header.ReadU32(&magic);
      (void)header.ReadU32(&len);
      if (magic != kMagic || blob.size() - valid - 12 < len) break;
      const std::string_view payload(blob.data() + valid + 8, len);
      BlobReader crc_reader(blob.substr(valid + 8 + len, 4));
      uint32_t crc = 0;
      (void)crc_reader.ReadU32(&crc);
      if (crc != io::Crc32(payload)) break;
      core::UserRelease user;
      BlobReader payload_reader{std::string(payload)};
      if (!DecodeRelease(payload_reader, &user).ok() ||
          !payload_reader.exhausted()) {
        break;
      }
      out->push_back(std::move(user));
      valid += 12 + len;
    }
    if (valid < blob.size()) {
      if (::ftruncate(fd_, static_cast<off_t>(valid)) != 0) {
        return Status::Internal("cannot truncate torn release log tail: " +
                                std::string(std::strerror(errno)));
      }
    }
    if (::lseek(fd_, static_cast<off_t>(valid), SEEK_SET) < 0) {
      return Status::Internal("cannot seek release log: " +
                              std::string(std::strerror(errno)));
    }
    return Status::Ok();
  }

  /// Appends one release record and fsyncs it — the release is durable
  /// when this returns, which is what licenses the watermark advance.
  Status Append(const core::UserRelease& release) {
    std::string payload;
    EncodeRelease(payload, release);
    std::string record;
    PutU32(record, kMagic);
    PutU32(record, static_cast<uint32_t>(payload.size()));
    record += payload;
    PutU32(record, io::Crc32(payload));
    size_t written = 0;
    while (written < record.size()) {
      const ssize_t n =
          ::write(fd_, record.data() + written, record.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Internal("release log write: " +
                                std::string(std::strerror(errno)));
      }
      written += static_cast<size_t>(n);
    }
    if (::fsync(fd_) != 0) {
      return Status::Internal("release log fsync: " +
                              std::string(std::strerror(errno)));
    }
    return Status::Ok();
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
};

// ------------------------------------------------------------ arg junk

struct Args {
  std::string mode;
  size_t shard = 0;
  size_t num_shards = 1;
  size_t users = 80;
  uint64_t seed = 42;
  uint16_t port = 0;
  size_t expect_clients = 1;
  size_t batch_size = 16;
  double timeout_sec = 180.0;
  std::string port_file;
  std::string out;
  std::vector<std::string> list;  // --ports or --in
  // Exactly-once knobs (docs/DURABILITY.md). serve: journal every frame
  // here and replay it on startup; kill-after-bytes arms the journal's
  // SIGKILL fault hook for the crash harness. send: --ack 1 runs the
  // clients in sequenced mode (stream s+1, in-flight window, Flush as
  // the delivery barrier) so a killed-and-restarted shard loses nothing.
  std::string journal;
  uint64_t kill_after_bytes = 0;
  bool ack = false;
  size_t window = 8;
  // serve: > 0 turns on journal compaction at this size threshold, with
  // releases persisted incrementally to out+".partial" so a compacted
  // record is always recoverable from the release log instead.
  uint64_t compact_bytes = 0;
  // serve: publish an obs::AdminServer (/metrics, /statusz) on an
  // ephemeral loopback port, written to this file via atomic rename —
  // the driver scrapes it to validate the shard's telemetry.
  std::string admin_port_file;
  // serve: after the release file is written, keep the admin endpoint
  // alive until this file exists (or ~30s pass) so the driver can
  // scrape final counters before the process exits.
  std::string admin_hold_file;
};

std::vector<std::string> SplitCommas(const std::string& csv) {
  std::vector<std::string> parts;
  std::stringstream stream(csv);
  std::string part;
  while (std::getline(stream, part, ',')) parts.push_back(part);
  return parts;
}

int Usage(const char* argv0) {
  std::cerr
      << "usage:\n"
      << "  " << argv0
      << " serve  --shard S --num-shards K --users N --seed SEED\n"
         "            [--port P] [--port-file F] --out FILE\n"
         "            [--expect-clients C] [--timeout-sec T]\n"
         "            [--journal FILE [--kill-after-bytes B]\n"
         "             [--compact-bytes B]]\n"
         "            [--admin-port-file F [--admin-hold-file F]]\n"
      << "  " << argv0
      << " send   --num-shards K --users N --seed SEED --ports p0,p1,...\n"
         "            [--batch-size B] [--ack 1 [--window W]]\n"
      << "  " << argv0
      << " verify --num-shards K --users N --seed SEED --in f0,f1,...\n";
  return 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--shard") {
      args->shard = std::stoul(value);
    } else if (flag == "--num-shards") {
      args->num_shards = std::stoul(value);
    } else if (flag == "--users") {
      args->users = std::stoul(value);
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--port") {
      args->port = static_cast<uint16_t>(std::stoul(value));
    } else if (flag == "--port-file") {
      args->port_file = value;
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--expect-clients") {
      args->expect_clients = std::stoul(value);
    } else if (flag == "--batch-size") {
      args->batch_size = std::stoul(value);
    } else if (flag == "--timeout-sec") {
      args->timeout_sec = std::stod(value);
    } else if (flag == "--ports" || flag == "--in") {
      args->list = SplitCommas(value);
    } else if (flag == "--journal") {
      args->journal = value;
    } else if (flag == "--kill-after-bytes") {
      args->kill_after_bytes = std::stoull(value);
    } else if (flag == "--compact-bytes") {
      args->compact_bytes = std::stoull(value);
    } else if (flag == "--admin-port-file") {
      args->admin_port_file = value;
    } else if (flag == "--admin-hold-file") {
      args->admin_hold_file = value;
    } else if (flag == "--ack") {
      args->ack = value != "0";
    } else if (flag == "--window") {
      args->window = std::stoul(value);
    } else {
      return false;
    }
  }
  return args->mode == "serve" || args->mode == "send" ||
         args->mode == "verify";
}

int Fail(const Status& status) {
  std::cerr << status << "\n";
  return 1;
}

// Write-then-rename so a reader never sees a half-written port.
void PublishPort(const std::string& path, uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::ofstream file(tmp, std::ios::trunc);
  file << port << "\n";
  file.close();
  std::filesystem::rename(tmp, path);
}

// ---------------------------------------------------------------- roles

int RunServe(const Args& args) {
  auto world = BuildWorld(args.users, args.seed);
  if (!world.ok()) return Fail(world.status());
  const auto plan = PlanFor(args.num_shards, world->users.size());

  const bool compacting = args.compact_bytes > 0 && !args.journal.empty();
  std::vector<core::UserRelease> releases;
  net::ReleaseWatermarks watermarks;
  PartialReleaseLog partial;
  Status partial_error;  // first release-log failure, checked at the end

  core::StreamingCollector::Config collector_config;
  // Journaled (exactly-once) shards run the per-user-id dedup backstop:
  // a replayed frame and a client's post-restart resend may carry the
  // same user, and whichever copy wins releases identically.
  collector_config.dedup_user_ids = !args.journal.empty();
  if (compacting) {
    // Restart path: releases persisted by a previous (possibly killed)
    // run come back from the log; their users preseed the dedup set so
    // journal replay cannot re-release them, and their frames' journal
    // records are exactly what compaction was licensed to drop.
    if (auto s = partial.Open(args.out + ".partial", &releases); !s.ok()) {
      return Fail(s);
    }
    for (const core::UserRelease& r : releases) {
      collector_config.pre_released_user_ids.push_back(r.user_id);
    }
    collector_config.on_frame_processed = [&watermarks](uint64_t stream,
                                                        uint64_t seq) {
      watermarks.Note(stream, seq);
    };
    std::cout << "shard " << args.shard << " release log: preloaded "
              << releases.size() << " release(s)\n";
  }
  core::StreamingCollector collector(
      world->mechanism.get(), args.seed,
      [&](core::UserRelease release) {
        if (compacting && partial_error.ok()) {
          // Durable-before-watermark: the fsynced log append happens
          // inside the sink, which WorkerLoop runs before the frame's
          // on_frame_processed callback — so a watermark never covers
          // a release that is not yet on disk.
          partial_error = partial.Append(release);
        }
        releases.push_back(std::move(release));
      },
      collector_config);

  net::IngestServer::Options options;
  options.port = args.port;
  options.expected_range = plan.RangeOf(args.shard);
  if (!args.journal.empty()) {
    options.journal_path = args.journal;
    // The crash harness arms this: SIGKILL mid-append once the journal
    // has absorbed this many bytes, leaving a torn tail for the restart
    // to recover. 0 (the default) disarms.
    options.journal_options.fault_kill_after_bytes = args.kill_after_bytes;
  }
  if (compacting) {
    options.journal_compact_threshold_bytes = args.compact_bytes;
    options.compact_watermarks = [&watermarks] {
      return watermarks.Snapshot();
    };
  }
  auto server = net::IngestServer::Start(&collector, options);
  if (!server.ok()) return Fail(server.status());

  // Telemetry endpoint. Declared after `server` so the scraper is torn
  // down before the hook-owning server on every exit path.
  std::unique_ptr<obs::AdminServer> admin;
  if (!args.admin_port_file.empty()) {
    auto started = obs::AdminServer::Start((*server)->metrics());
    if (!started.ok()) return Fail(started.status());
    admin = std::move(*started);
    PublishPort(args.admin_port_file, admin->port());
    std::cout << "shard " << args.shard << " admin endpoint on port "
              << admin->port() << "\n";
  }

  std::cout << "shard " << args.shard << "/" << args.num_shards
            << " serving users [" << options.expected_range->first << ", "
            << options.expected_range->second << ") on port "
            << (*server)->port() << "\n";
  if (!args.journal.empty()) {
    std::cout << "shard " << args.shard << " journal " << args.journal
              << ": replayed " << (*server)->stats().frames_replayed
              << " frame(s)\n";
  }

  if (!args.port_file.empty()) {
    PublishPort(args.port_file, (*server)->port());
  }

  // Drain barrier: every expected client has connected and closed
  // CLEANLY — a connection a retrying client aborted (and will replace)
  // ends as a failed close and must not trip the barrier, or the shard
  // would shut down while the replacement is still streaming. All
  // cleanly-delivered frames are then at least queued, and Finish()
  // processes them.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(args.timeout_sec));
  for (;;) {
    const auto stats = (*server)->stats();
    const size_t clean_closes =
        stats.connections_closed >= stats.connections_failed
            ? stats.connections_closed - stats.connections_failed
            : 0;
    if (clean_closes >= args.expect_clients) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      std::cerr << "shard " << args.shard << ": timed out waiting for "
                << args.expect_clients << " client(s)\n";
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  (*server)->Shutdown();
  // Connection-level failures a retrying client recovered from are not
  // fatal: the REAL gate is verify's bit-compare, and MergeShardReleases
  // hard-fails on any user a retry lost or duplicated. Surface them.
  if (auto error = (*server)->first_connection_error(); !error.ok()) {
    std::cerr << "shard " << args.shard
              << ": connection error (client retried?): " << error << "\n";
  }
  if (auto status = collector.Finish(); !status.ok()) return Fail(status);
  if (!partial_error.ok()) return Fail(partial_error);

  if (auto status = WriteReleases(args.out, releases); !status.ok()) {
    return Fail(status);
  }
  const auto stats = (*server)->stats();
  if (compacting) {
    // The full release file is written; the incremental log has served
    // its purpose (and must not leak into the next run's preload).
    partial.Close();
    std::error_code ec;
    std::filesystem::remove(partial.path(), ec);
  }
  std::cout << "shard " << args.shard << " released " << releases.size()
            << " users -> " << args.out;
  if (!args.journal.empty()) {
    std::cout << " (journaled " << stats.frames_journaled << ", replayed "
              << stats.frames_replayed << ", dup frames dropped "
              << stats.duplicate_frames_dropped << ", dup reports dropped "
              << stats.duplicate_reports_dropped << ", compactions "
              << stats.journal_compactions << ")";
  }
  std::cout << "\n";

  if (admin != nullptr && !args.admin_hold_file.empty()) {
    // Everything is drained and written; the registry (owned by the
    // collector, still in scope) now holds the shard's final counters.
    // Keep the admin endpoint alive until the driver signals it has
    // scraped, bounded so an absent driver cannot wedge the shard.
    const auto hold_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!std::filesystem::exists(args.admin_hold_file) &&
           std::chrono::steady_clock::now() < hold_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return 0;
}

int RunSend(const Args& args) {
  if (args.list.size() != args.num_shards) {
    std::cerr << "need exactly " << args.num_shards << " ports\n";
    return 1;
  }
  auto world = BuildWorld(args.users, args.seed);
  if (!world.ok()) return Fail(world.status());

  // Device side: perturb (the ε-budgeted step) and frame the reports.
  core::BatchReleaseEngine device_side(&world->mechanism->perturber());
  auto perturbed = device_side.ReleaseAll(world->users, args.seed);
  if (!perturbed.ok()) return Fail(perturbed.status());
  io::ReportBatch reports = core::MakeWireReports(
      world->users, std::move(*perturbed), world->mechanism->perturber());

  const auto plan = PlanFor(args.num_shards, world->users.size());
  auto sharded = core::PartitionByShard(plan, std::move(reports));
  for (size_t s = 0; s < args.num_shards; ++s) {
    net::ReportClient::Options client_options;
    if (args.ack) {
      // Sequenced exactly-once mode against a journaling shard. The
      // generous attempt budget is what rides out a kill-and-restart:
      // the client keeps redialing (decorrelated jitter) until the
      // restarted server answers, then resends its unacked suffix.
      client_options.enable_sequencing = true;
      client_options.stream_id = s + 1;  // 0 is reserved
      client_options.window = args.window;
      client_options.max_attempts = 200;
      client_options.initial_backoff = std::chrono::milliseconds(5);
      client_options.max_backoff = std::chrono::milliseconds(500);
    }
    net::ReportClient client(
        "127.0.0.1", static_cast<uint16_t>(std::stoul(args.list[s])),
        client_options);
    // A shard with no users still gets one (empty) frame: its server's
    // drain barrier is "my client connected and closed".
    if (sharded[s].empty()) {
      if (auto status = client.SendBatch({}); !status.ok()) {
        return Fail(status);
      }
    }
    for (size_t begin = 0; begin < sharded[s].size();
         begin += args.batch_size) {
      const size_t end =
          std::min(begin + args.batch_size, sharded[s].size());
      auto status = client.SendBatch(std::span<const io::WireReport>(
          sharded[s].data() + begin, end - begin));
      if (!status.ok()) return Fail(status);
    }
    if (args.ack) {
      // The delivery barrier: only after Flush is every frame known
      // journaled on the shard, so Close can never strand bytes in a
      // kernel buffer the way the raw mode's FIN race can.
      if (auto status = client.Flush(); !status.ok()) return Fail(status);
    }
    client.Close();
    std::cout << "sent " << sharded[s].size() << " reports to shard " << s
              << " (port " << args.list[s] << ", " << client.frames_sent()
              << " frames";
    if (args.ack) {
      std::cout << ", " << client.frames_resent() << " resent, "
                << client.reconnects() << " reconnect(s), last ack "
                << client.last_ack();
    }
    std::cout << ")\n";
  }
  return 0;
}

int RunVerify(const Args& args) {
  if (args.list.size() != args.num_shards) {
    std::cerr << "need exactly " << args.num_shards << " release files\n";
    return 1;
  }
  auto world = BuildWorld(args.users, args.seed);
  if (!world.ok()) return Fail(world.status());

  std::vector<std::vector<core::UserRelease>> shards;
  for (const std::string& path : args.list) {
    auto releases = ReadReleases(path);
    if (!releases.ok()) return Fail(releases.status());
    shards.push_back(std::move(*releases));
  }
  auto merged =
      core::MergeShardReleases(std::move(shards), world->users.size());
  if (!merged.ok()) return Fail(merged.status());

  core::BatchReleaseEngine engine(world->mechanism.get());
  auto reference = engine.ReleaseAllFull(world->users, args.seed);
  if (!reference.ok()) return Fail(reference.status());

  const bool identical = *merged == *reference;
  std::cout << (identical
                    ? "multi-process shard output is bit-identical to the "
                      "in-process engine\n"
                    : "MISMATCH: multi-process output diverged\n");
  return identical ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);
  if (args.mode == "serve") return RunServe(args);
  if (args.mode == "send") return RunSend(args);
  return RunVerify(args);
}
