#ifndef TRAJLDP_IO_JOURNAL_H_
#define TRAJLDP_IO_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/status_or.h"

namespace trajldp::io {

/// \brief Append-only durable log of validated wire frames — the
/// persistence floor of the exactly-once ingest path (docs/DURABILITY.md).
///
/// A device's perturbed report is a spent privacy budget: once uploaded,
/// the device will never send a fresh perturbation, so a collector that
/// loses a frame across a restart has burned a user's ε for nothing.
/// The journal closes that hole. IngestServer appends every validated
/// data frame here BEFORE acking it; on restart, Open() recovers the
/// durable prefix and the server replays it through the normal ingest
/// path, then resumes acking from the recovered high-water mark.
///
/// Record layout (little-endian, docs/DURABILITY.md §Record format):
///
///   u32 magic "TLJ1" | u32 payload_len | u64 stream_id | u64 seq |
///   payload (one complete TLWB frame) | u32 CRC-32
///
/// The CRC covers (stream_id, seq, payload) — 16 + payload_len bytes —
/// so a torn or bit-flipped record is detected even when the length
/// field itself survived. Recovery scans from the start, keeps the
/// longest prefix of fully valid records, and truncates everything after
/// it: a tail torn mid-write by a crash recovers to exactly the records
/// that were complete, with a clean Status.
///
/// Not thread-safe: callers (IngestServer) serialize appends themselves.
class FrameJournal {
 public:
  /// When appends reach the disk. SIGKILL of the collector process loses
  /// nothing under either policy (write() lands in the page cache, which
  /// survives the process); fsync only matters for machine crashes and
  /// power loss — see docs/DURABILITY.md §Fsync policies.
  enum class SyncPolicy {
    kEveryRecord,  ///< fsync after every append — strongest, slowest
    kEveryBytes,   ///< fsync when >= sync_every_bytes accumulate unsynced
  };

  struct Options {
    SyncPolicy sync = SyncPolicy::kEveryRecord;
    /// kEveryBytes: unsynced-byte threshold that triggers an fsync.
    size_t sync_every_bytes = 64u << 10;
    /// Fault-injection hook for the crash harness: when > 0, the append
    /// that would push CUMULATIVE bytes appended by THIS process (not
    /// counting recovered bytes) past the limit writes only the bytes up
    /// to the limit — a deliberately torn record — syncs them, and
    /// raises SIGKILL. Simulates a power-loss-shaped crash mid-record.
    /// Never set outside tests/harnesses.
    uint64_t fault_kill_after_bytes = 0;
  };

  /// What Open() found on disk.
  struct RecoveryInfo {
    size_t records = 0;         ///< complete records recovered
    uint64_t valid_bytes = 0;   ///< size of the valid prefix
    uint64_t truncated_bytes = 0;  ///< torn/corrupt tail removed
  };

  FrameJournal() = default;
  ~FrameJournal();
  FrameJournal(FrameJournal&& other) noexcept;
  FrameJournal& operator=(FrameJournal&& other) noexcept;
  FrameJournal(const FrameJournal&) = delete;
  FrameJournal& operator=(const FrameJournal&) = delete;

  /// Opens (creating if absent) the journal at `path`, scans it, and
  /// truncates any torn or corrupt tail so the file ends exactly at the
  /// last complete record. Recovery results are in recovery_info().
  static StatusOr<FrameJournal> Open(const std::string& path,
                                     const Options& options);

  /// Appends one record. `frame` is an already-validated complete TLWB
  /// frame; (stream_id, seq) identify it for replay-time dedup. Syncs
  /// per the configured policy.
  Status Append(uint64_t stream_id, uint64_t seq, std::string_view frame);

  /// Forces everything appended so far to disk (fsync).
  Status Sync();

  /// What one Compact() call did.
  struct CompactionInfo {
    size_t records_kept = 0;
    size_t records_dropped = 0;
    size_t markers_written = 0;
    uint64_t bytes_before = 0;
    uint64_t bytes_after = 0;
  };

  /// Rewrites the journal keeping only the live suffix: records whose
  /// seq exceeds their stream's entry in `min_released_hwm`, plus every
  /// unsequenced record (seq == 0) and every record of a stream the map
  /// does not name. A dropped record must already be DURABLE DOWNSTREAM
  /// — the journal is the only recovery source for acked frames (clients
  /// never resend them), so callers may only pass watermarks for data
  /// that has been released and persisted past the collector.
  ///
  /// For each stream with a watermark > 0 a MARKER record (empty
  /// payload, seq = watermark) is written first, so a restart that
  /// replays the compacted journal rebuilds the same high-water mark
  /// even when every data record of the stream was dropped — without it
  /// the stream's next frame would misread as a sequence gap. Replay
  /// consumers recognise markers by their empty payload and must treat
  /// them as hwm-only (nothing to push).
  ///
  /// Crash-safe by construction: the live suffix is written to
  /// `path + ".compact"`, fsynced, and renamed over the journal (then
  /// the directory is fsynced). A crash at any point leaves either the
  /// old complete journal or the new complete journal — never a mix.
  /// The fault-injection byte meter (fault_kill_after_bytes) counts
  /// Append() bytes only and is NOT advanced by compaction.
  StatusOr<CompactionInfo> Compact(
      const std::unordered_map<uint64_t, uint64_t>& min_released_hwm);

  /// Replays every durable record in append order through `fn`. Reads
  /// only the valid prefix found at Open() plus records appended since.
  /// Stops at (and returns) the first non-ok Status from `fn`.
  Status Replay(
      const std::function<Status(uint64_t stream_id, uint64_t seq,
                                 std::string_view frame)>& fn) const;

  /// Syncs and closes the file. Idempotent; the destructor calls it.
  Status Close();

  bool open() const { return fd_ >= 0; }
  const RecoveryInfo& recovery_info() const { return recovery_; }
  /// Records currently durable in the journal (recovered + appended).
  size_t records() const { return records_; }
  /// Bytes of complete records (the replayable extent).
  uint64_t valid_bytes() const { return valid_bytes_; }
  /// Bytes appended but not yet fsynced — 0 right after any sync.
  uint64_t unsynced_bytes() const { return unsynced_bytes_; }
  /// Completed Compact() calls on this handle.
  size_t compactions() const { return compactions_; }
  /// fsyncs issued by this handle (policy-driven, explicit Sync(),
  /// Close(), and compaction rewrites). The telemetry layer exports
  /// this as `trajldp_journal_fsyncs` without io depending on obs.
  size_t syncs() const { return syncs_; }
  /// Wall seconds the most recent Sync() spent in fsync (0 before the
  /// first). IngestServer observes it into `trajldp_journal_sync_seconds`
  /// whenever an Append advanced syncs().
  double last_sync_seconds() const { return last_sync_seconds_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
  Options options_;
  RecoveryInfo recovery_;
  size_t records_ = 0;
  uint64_t valid_bytes_ = 0;       // end of last complete record
  uint64_t appended_bytes_ = 0;    // by this process (fault-hook meter)
  uint64_t unsynced_bytes_ = 0;
  size_t compactions_ = 0;
  size_t syncs_ = 0;
  double last_sync_seconds_ = 0.0;
};

}  // namespace trajldp::io

#endif  // TRAJLDP_IO_JOURNAL_H_
