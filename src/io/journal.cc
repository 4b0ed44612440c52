#include "io/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <utility>
#include <vector>

#include "io/wire.h"

namespace trajldp::io {

namespace {

// "TLJ1" (TrajLdp Journal v1) as little-endian bytes.
constexpr uint32_t kJournalMagic = 0x314A'4C54u;
// magic + payload_len + stream_id + seq.
constexpr size_t kRecordHeaderBytes = 24;
constexpr size_t kRecordTrailerBytes = 4;
// A record payload is one complete TLWB frame, so its size is bounded by
// the wire frame limit. Enforced at append AND during the recovery scan,
// so a corrupted length field can never size a runaway buffer.
constexpr uint64_t kMaxRecordPayloadBytes =
    kWireHeaderBytes + kWireMaxPayloadBytes + kWireTrailerBytes;

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

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// Reads exactly `size` bytes at `offset`, or reports how many were
/// available. Loops over short preads.
Status PreadFully(int fd, uint64_t offset, char* out, size_t size,
                  size_t* got) {
  *got = 0;
  while (*got < size) {
    const ssize_t n = ::pread(fd, out + *got, size - *got,
                              static_cast<off_t>(offset + *got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("journal pread failed");
    }
    if (n == 0) break;  // end of file
    *got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status WriteFully(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("journal write failed");
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// One step of the recovery/replay scan: parse the record at `offset`.
/// Outcomes: ok + *complete=true (record parsed), ok + *complete=false
/// (clean end, torn tail, or corrupt record — scanning must stop here).
struct ScanRecord {
  uint64_t stream_id = 0;
  uint64_t seq = 0;
  std::string payload;
  uint64_t next_offset = 0;
};

Status ScanOne(int fd, uint64_t offset, uint64_t file_size, bool* complete,
               ScanRecord* record) {
  *complete = false;
  if (offset >= file_size) return Status::Ok();  // clean end
  char header[kRecordHeaderBytes];
  size_t got = 0;
  TRAJLDP_RETURN_NOT_OK(
      PreadFully(fd, offset, header, sizeof(header), &got));
  if (got < sizeof(header)) return Status::Ok();  // torn header
  if (GetU32(header) != kJournalMagic) return Status::Ok();  // corrupt
  const uint32_t payload_len = GetU32(header + 4);
  if (payload_len > kMaxRecordPayloadBytes) return Status::Ok();  // corrupt
  const size_t rest = payload_len + kRecordTrailerBytes;
  // A length that runs past the end of the file is a torn tail; deciding
  // that before allocating keeps a corrupt length from sizing a buffer
  // larger than the file.
  if (offset + sizeof(header) + rest > file_size) return Status::Ok();
  record->stream_id = GetU64(header + 8);
  record->seq = GetU64(header + 16);
  std::string body(rest, '\0');
  TRAJLDP_RETURN_NOT_OK(
      PreadFully(fd, offset + sizeof(header), body.data(), rest, &got));
  if (got < rest) return Status::Ok();  // torn payload/crc
  // CRC covers (stream_id, seq, payload): the 16 meta bytes then payload.
  std::string covered;
  covered.reserve(16 + payload_len);
  covered.append(header + 8, 16);
  covered.append(body, 0, payload_len);
  if (GetU32(body.data() + payload_len) != Crc32(covered)) {
    return Status::Ok();  // corrupt record
  }
  record->payload = body.substr(0, payload_len);
  record->next_offset =
      offset + kRecordHeaderBytes + payload_len + kRecordTrailerBytes;
  *complete = true;
  return Status::Ok();
}

/// Serialises one record (header + payload + CRC). The single encoding
/// site, shared by Append and Compact, so compacted records are
/// byte-identical to appended ones.
std::string EncodeRecord(uint64_t stream_id, uint64_t seq,
                         std::string_view payload) {
  std::string record;
  record.reserve(kRecordHeaderBytes + payload.size() + kRecordTrailerBytes);
  PutU32(record, kJournalMagic);
  PutU32(record, static_cast<uint32_t>(payload.size()));
  PutU64(record, stream_id);
  PutU64(record, seq);
  record += payload;
  PutU32(record, Crc32(std::string_view(record).substr(8)));
  return record;
}

/// fsyncs the directory containing `path` so a just-renamed file's
/// directory entry is durable — the second half of the rewrite-and-
/// rename protocol.
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.empty() ? "/" : dir.c_str(),
                         O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) return Errno("open journal directory " + dir);
  const int rc = ::fsync(dfd);
  ::close(dfd);
  if (rc != 0) return Errno("fsync journal directory " + dir);
  return Status::Ok();
}

}  // namespace

FrameJournal::~FrameJournal() { (void)Close(); }

FrameJournal::FrameJournal(FrameJournal&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      options_(other.options_),
      recovery_(other.recovery_),
      records_(other.records_),
      valid_bytes_(other.valid_bytes_),
      appended_bytes_(other.appended_bytes_),
      unsynced_bytes_(other.unsynced_bytes_),
      compactions_(other.compactions_),
      syncs_(other.syncs_),
      last_sync_seconds_(other.last_sync_seconds_) {
  other.fd_ = -1;
}

FrameJournal& FrameJournal::operator=(FrameJournal&& other) noexcept {
  if (this != &other) {
    (void)Close();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    options_ = other.options_;
    recovery_ = other.recovery_;
    records_ = other.records_;
    valid_bytes_ = other.valid_bytes_;
    appended_bytes_ = other.appended_bytes_;
    unsynced_bytes_ = other.unsynced_bytes_;
    compactions_ = other.compactions_;
    syncs_ = other.syncs_;
    last_sync_seconds_ = other.last_sync_seconds_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<FrameJournal> FrameJournal::Open(const std::string& path,
                                          const Options& options) {
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::NotFound("cannot open journal " + path + ": " +
                            std::strerror(errno));
  }
  FrameJournal journal;
  journal.path_ = path;
  journal.fd_ = fd;
  journal.options_ = options;

  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    journal.fd_ = -1;
    return Errno("journal lseek failed");
  }
  const auto file_size = static_cast<uint64_t>(end);

  // Recovery scan: keep the longest prefix of fully valid records. The
  // first torn or corrupt record ends the durable extent — everything
  // after it is unreachable by replay and is truncated away, so a later
  // append can never interleave good data behind a bad record.
  uint64_t offset = 0;
  size_t records = 0;
  for (;;) {
    bool complete = false;
    ScanRecord record;
    auto scan = ScanOne(fd, offset, file_size, &complete, &record);
    if (!scan.ok()) {
      ::close(fd);
      journal.fd_ = -1;
      return scan;
    }
    if (!complete) break;
    offset = record.next_offset;
    ++records;
  }
  journal.recovery_.records = records;
  journal.recovery_.valid_bytes = offset;
  journal.recovery_.truncated_bytes = file_size - offset;
  journal.records_ = records;
  journal.valid_bytes_ = offset;
  if (journal.recovery_.truncated_bytes > 0) {
    if (::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
      ::close(fd);
      journal.fd_ = -1;
      return Errno("journal truncate of torn tail failed");
    }
  }
  // Appends go at the end of the valid prefix.
  if (::lseek(fd, static_cast<off_t>(offset), SEEK_SET) < 0) {
    ::close(fd);
    journal.fd_ = -1;
    return Errno("journal lseek to append position failed");
  }
  return journal;
}

Status FrameJournal::Append(uint64_t stream_id, uint64_t seq,
                            std::string_view frame) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("journal is not open");
  }
  if (frame.size() > kMaxRecordPayloadBytes) {
    return Status::InvalidArgument(
        "journal record payload of " + std::to_string(frame.size()) +
        " bytes exceeds the frame limit");
  }
  const std::string record = EncodeRecord(stream_id, seq, frame);

  // Fault-injection hook: tear this record at the byte limit, make the
  // torn bytes durable, and die the way a power loss would.
  if (options_.fault_kill_after_bytes > 0 &&
      appended_bytes_ + record.size() > options_.fault_kill_after_bytes) {
    const size_t partial =
        static_cast<size_t>(options_.fault_kill_after_bytes - appended_bytes_);
    (void)WriteFully(fd_, record.data(), partial);
    (void)::fsync(fd_);
    std::raise(SIGKILL);
    return Status::Internal("unreachable: SIGKILL returned");
  }

  TRAJLDP_RETURN_NOT_OK(WriteFully(fd_, record.data(), record.size()));
  appended_bytes_ += record.size();
  unsynced_bytes_ += record.size();
  valid_bytes_ += record.size();
  ++records_;

  if (options_.sync == SyncPolicy::kEveryRecord ||
      unsynced_bytes_ >= options_.sync_every_bytes) {
    return Sync();
  }
  return Status::Ok();
}

Status FrameJournal::Sync() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("journal is not open");
  }
  const auto start = std::chrono::steady_clock::now();
  if (::fsync(fd_) != 0) return Errno("journal fsync failed");
  last_sync_seconds_ = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  unsynced_bytes_ = 0;
  ++syncs_;
  return Status::Ok();
}

StatusOr<FrameJournal::CompactionInfo> FrameJournal::Compact(
    const std::unordered_map<uint64_t, uint64_t>& min_released_hwm) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("journal is not open");
  }
  if (path_.empty()) {
    return Status::FailedPrecondition("journal has no path to rewrite");
  }

  const std::string tmp_path = path_ + ".compact";
  const int tmp_fd =
      ::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_RDWR | O_CLOEXEC, 0644);
  if (tmp_fd < 0) {
    return Errno("cannot create compaction file " + tmp_path);
  }
  // From here every failure path must close (and best-effort unlink)
  // tmp_fd; the original journal is untouched until the rename.
  auto fail = [&](Status s) -> StatusOr<CompactionInfo> {
    ::close(tmp_fd);
    ::unlink(tmp_path.c_str());
    return s;
  };

  CompactionInfo info;
  info.bytes_before = valid_bytes_;
  size_t new_records = 0;

  // Markers first: each stream's released watermark survives as an
  // empty-payload record even when all of its data records are dropped,
  // so restart-time hwm rebuild sees no false sequence gap.
  for (const auto& [stream_id, watermark] : min_released_hwm) {
    if (watermark == 0) continue;
    const std::string marker = EncodeRecord(stream_id, watermark, {});
    if (Status s = WriteFully(tmp_fd, marker.data(), marker.size());
        !s.ok()) {
      return fail(s);
    }
    ++info.markers_written;
    ++new_records;
    info.bytes_after += marker.size();
  }

  // Live suffix: unsequenced records (seq == 0) and unknown streams are
  // always kept — no watermark vouches for them being durable anywhere
  // else. Sequenced records are kept when above their stream's floor.
  uint64_t offset = 0;
  while (offset < valid_bytes_) {
    bool complete = false;
    ScanRecord record;
    if (Status s = ScanOne(fd_, offset, valid_bytes_, &complete, &record);
        !s.ok()) {
      return fail(s);
    }
    if (!complete) {
      return fail(Status::Internal(
          "journal record inside the valid extent failed to parse "
          "during compaction (concurrent modification?)"));
    }
    offset = record.next_offset;
    bool keep = record.seq == 0;
    if (!keep) {
      const auto it = min_released_hwm.find(record.stream_id);
      keep = it == min_released_hwm.end() || record.seq > it->second;
    }
    if (!keep) {
      ++info.records_dropped;
      continue;
    }
    const std::string encoded =
        EncodeRecord(record.stream_id, record.seq, record.payload);
    if (Status s = WriteFully(tmp_fd, encoded.data(), encoded.size());
        !s.ok()) {
      return fail(s);
    }
    ++info.records_kept;
    ++new_records;
    info.bytes_after += encoded.size();
  }

  // Rewrite-and-rename: data durable BEFORE the name flips, directory
  // durable after. A crash leaves either journal intact, never a blend.
  if (::fsync(tmp_fd) != 0) return fail(Errno("fsync compaction file"));
  if (::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    return fail(Errno("rename compaction file over journal"));
  }
  if (Status s = SyncParentDir(path_); !s.ok()) {
    ::close(tmp_fd);
    return s;
  }

  // The old fd still references the unlinked pre-compaction inode; swap
  // to the new file and position at its end for subsequent appends.
  if (::lseek(tmp_fd, 0, SEEK_END) < 0) {
    ::close(tmp_fd);
    return Errno("journal lseek after compaction failed");
  }
  ::close(fd_);
  fd_ = tmp_fd;
  records_ = new_records;
  valid_bytes_ = info.bytes_after;
  unsynced_bytes_ = 0;  // the new file was fsynced in full
  ++syncs_;
  ++compactions_;
  // appended_bytes_ deliberately untouched: the fault-injection meter
  // counts Append() traffic from this process, not rewrites.
  return info;
}

Status FrameJournal::Replay(
    const std::function<Status(uint64_t, uint64_t, std::string_view)>& fn)
    const {
  if (fd_ < 0) {
    return Status::FailedPrecondition("journal is not open");
  }
  uint64_t offset = 0;
  while (offset < valid_bytes_) {
    bool complete = false;
    ScanRecord record;
    TRAJLDP_RETURN_NOT_OK(
        ScanOne(fd_, offset, valid_bytes_, &complete, &record));
    if (!complete) {
      // The valid extent was verified at Open/append time, so an
      // unreadable record here means the file changed under us.
      return Status::Internal(
          "journal record inside the valid extent failed to parse "
          "(concurrent modification?)");
    }
    TRAJLDP_RETURN_NOT_OK(fn(record.stream_id, record.seq, record.payload));
    offset = record.next_offset;
  }
  return Status::Ok();
}

Status FrameJournal::Close() {
  if (fd_ < 0) return Status::Ok();
  Status sync = Sync();
  const int rc = ::close(fd_);
  fd_ = -1;
  if (!sync.ok()) return sync;
  if (rc != 0) return Errno("journal close failed");
  return Status::Ok();
}

}  // namespace trajldp::io
