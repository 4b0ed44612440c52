#ifndef TRAJLDP_IO_WIRE_H_
#define TRAJLDP_IO_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status_or.h"
#include "core/ngram.h"

namespace trajldp::io {

/// \brief The versioned binary wire format for ε-LDP perturbed reports.
///
/// The collector consumes each user's PerturbedNgramSet independently, so
/// the server side shards trivially — provided reports can travel between
/// processes. This is that contract: a report batch is one self-framing
/// byte blob that any shard can decode with nothing but the public city
/// model. See docs/WIRE_FORMAT.md for the byte-level spec.
///
/// Properties:
///  * endian-stable — every integer is serialised little-endian byte by
///    byte, so frames written on any host decode on any other;
///  * versioned — frames carry a format version; decoders reject versions
///    they do not speak instead of misreading them;
///  * framed + checksummed — a 16-byte header (magic, version, flags,
///    report count, payload size) plus a trailing 4-byte CRC-32 of the
///    payload (20 bytes total overhead), so readers can walk frames in
///    a stream and detect corruption;
///  * robust — DecodeReportBatch validates every length and index before
///    trusting it; malformed input of any kind (truncation, bad magic,
///    wrong version, corrupted checksum, inconsistent n-gram bounds)
///    yields a clean Status, never undefined behaviour.

/// One user's ε-LDP report as it travels to the collector: the global
/// user id (the shard-independent RNG substream key), the per-invocation
/// budget ε′ the device used, the trajectory length L (public: the n-gram
/// index range already reveals it), and the perturbed n-gram set Z.
struct WireReport {
  uint64_t user_id = 0;
  double epsilon_prime = 0.0;
  uint32_t trajectory_len = 0;
  core::PerturbedNgramSet ngrams;

  bool operator==(const WireReport&) const = default;
};

/// The unit of ingest: a group of reports framed together.
using ReportBatch = std::vector<WireReport>;

/// The frame header magic, "TLWB" (TrajLdp Wire Batch) as bytes.
inline constexpr uint32_t kWireMagic = 0x4257'4C54u;  // 'T','L','W','B' LE
/// The current (and only) format version.
inline constexpr uint16_t kWireVersion = 1;
/// Fixed frame overhead: 16-byte header + 4-byte payload CRC-32.
inline constexpr size_t kWireHeaderBytes = 16;
inline constexpr size_t kWireTrailerBytes = 4;
/// Flag bit: the payload starts with a 16-byte [min_user_id, max_user_id)
/// batch range (the first flags-gated v2 candidate). A compatible
/// extension under the versioning rules: decoders that know the bit read
/// the prefix, v1-only decoders reject the frame cleanly instead of
/// misreading it.
inline constexpr uint16_t kWireFlagUserRange = 0x0001;
/// Size of the user-range payload prefix when kWireFlagUserRange is set.
inline constexpr size_t kWireUserRangeBytes = 16;
/// Flag bit: the payload starts with a 16-byte (stream_id, seq) sequence
/// prefix — the v3 exactly-once extension (docs/WIRE_FORMAT.md §v3). The
/// sequence prefix always comes FIRST in the payload (fixed offset
/// kWireHeaderBytes), before any user-range prefix, so transports can
/// peek it from the same bytes that hold the header.
inline constexpr uint16_t kWireFlagSequence = 0x0002;
/// Size of the sequence payload prefix when kWireFlagSequence is set.
inline constexpr size_t kWireSequenceBytes = 16;
/// Largest payload a v1 frame may declare. Caps what a 16-byte hostile
/// header can make WireReader allocate before any payload byte arrives;
/// writers enforce it too, so every frame written is readable.
inline constexpr uint32_t kWireMaxPayloadBytes = 64u << 20;  // 64 MiB

/// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) of `data`.
/// Exposed for tests and for tools that frame their own payloads.
uint32_t Crc32(std::string_view data);

/// The batch-level user-id interval [min_user_id, max_user_id) carried by
/// frames encoded with `include_user_range`. Lets a shard server route or
/// reject a whole batch from the first kWireHeaderBytes +
/// kWireUserRangeBytes bytes, without decoding a single report.
struct WireUserRange {
  uint64_t min_user_id = 0;
  uint64_t max_user_id = 0;  // exclusive

  bool empty() const { return min_user_id >= max_user_id; }
  bool Contains(uint64_t user_id) const {
    return user_id >= min_user_id && user_id < max_user_id;
  }
  /// Interval containment; an empty range ([0, 0) — an empty batch) is
  /// contained in everything, as the empty set is.
  bool ContainedIn(const WireUserRange& outer) const {
    return empty() || (min_user_id >= outer.min_user_id &&
                       max_user_id <= outer.max_user_id);
  }
  bool operator==(const WireUserRange&) const = default;
};

/// The per-connection delivery identity a sequenced frame carries: which
/// client stream it belongs to and its 1-based position in that stream.
/// seq is strictly monotonically increasing per stream and survives
/// reconnects; 0 is reserved to mean "nothing" (the pre-first-frame ack),
/// so encoders and decoders both reject seq == 0.
struct WireSequence {
  uint64_t stream_id = 0;
  uint64_t seq = 0;

  bool operator==(const WireSequence&) const = default;
};

struct WireEncodeOptions {
  /// Sets kWireFlagUserRange and prefixes the payload with the tight
  /// [min, max) interval of the batch's user ids ([0, 0) for an empty
  /// batch). Decoders additionally enforce that every report's user id
  /// lies inside the declared range, so the routing field can never
  /// disagree with the payload it summarises.
  bool include_user_range = false;
  /// Sets kWireFlagSequence and prefixes the payload with the 16-byte
  /// (stream_id, seq) identity. seq must be >= 1.
  std::optional<WireSequence> sequence;
};

/// Everything a transport needs to know about a frame from its first
/// kWireHeaderBytes bytes alone — before the payload exists anywhere in
/// memory. `frame_bytes` is the total size including header and trailer,
/// bounded by kWireMaxPayloadBytes, so a socket reader can size its
/// buffer from a hostile header without risk.
struct WireFrameInfo {
  uint16_t version = 0;
  uint16_t flags = 0;
  uint32_t report_count = 0;
  uint32_t payload_bytes = 0;
  size_t frame_bytes = 0;
  bool has_user_range() const { return (flags & kWireFlagUserRange) != 0; }
  bool has_sequence() const { return (flags & kWireFlagSequence) != 0; }
};

/// Validates a frame header (magic, version, known flags, payload size
/// within the frame limit) from its first kWireHeaderBytes bytes.
/// `header` may be longer; only the prefix is read.
StatusOr<WireFrameInfo> PeekFrameHeader(std::string_view header);

/// Reads the batch user range from a frame prefix of at least
/// kWireHeaderBytes + kWireUserRangeBytes bytes (shorter is fine for
/// unflagged frames). Returns nullopt when the frame does not carry a
/// range. Deliberately does NOT verify the CRC — this is the cheap
/// routing path; full validation happens at decode.
StatusOr<std::optional<WireUserRange>> PeekUserRange(
    std::string_view frame_prefix);

/// Reads the (stream_id, seq) identity from a frame prefix of at least
/// kWireHeaderBytes + kWireSequenceBytes bytes (shorter is fine for
/// unsequenced frames). Returns nullopt when the frame carries no
/// sequence. Like PeekUserRange, this is the cheap routing path and does
/// NOT verify the CRC; full validation happens at decode.
StatusOr<std::optional<WireSequence>> PeekSequence(
    std::string_view frame_prefix);

/// Verifies one complete raw frame's payload CRC (the same check
/// DecodeReportBatch runs) WITHOUT decoding the payload — the integrity
/// gate a transport runs before handing the frame onward. `frame` must
/// be exactly one frame.
Status VerifyFrameChecksum(std::string_view frame);

/// The ACK frame magic, "TLWA" (TrajLdp Wire Ack) as bytes. Distinct from
/// kWireMagic so a stream position can never be misread as the wrong
/// frame kind.
inline constexpr uint32_t kAckMagic = 0x4157'4C54u;  // 'T','L','W','A' LE
/// ACK frames are fixed-size: u32 magic | u16 version | u16 flags |
/// u64 ack_seq | u32 CRC-32 over bytes [4, 16).
inline constexpr size_t kAckFrameBytes = 20;

/// Encodes the server→client ACK frame carrying the highest contiguously
/// durable sequence number (0 = nothing acked yet). Always succeeds: the
/// frame is fixed-layout.
std::string EncodeAckFrame(uint64_t ack_seq);

/// Decodes one complete ACK frame (exactly kAckFrameBytes bytes): magic,
/// version, zero flags, CRC all checked. Returns the acked sequence.
StatusOr<uint64_t> DecodeAckFrame(std::string_view frame);

/// Serialises one batch into a self-contained frame. Fails when the
/// payload would exceed kWireMaxPayloadBytes — at the encode site, not
/// remotely at some decoder — in which case the batch must be split.
StatusOr<std::string> EncodeReportBatch(std::span<const WireReport> batch);
StatusOr<std::string> EncodeReportBatch(std::span<const WireReport> batch,
                                        const WireEncodeOptions& options);

/// Decodes one frame. `data` must be exactly one frame; trailing bytes
/// are rejected (use WireReader for multi-frame streams). All structural
/// invariants are checked: magic, version, known flags, payload size,
/// checksum, flagged prefixes (sequence seq ≥ 1, user-range containment),
/// and per-report n-gram bounds (1 ≤ a ≤ b ≤ trajectory_len,
/// regions.size() == b − a + 1).
StatusOr<ReportBatch> DecodeReportBatch(std::string_view data);

/// \brief Appends frames to a std::ostream (file, socket buffer, pipe).
class WireWriter {
 public:
  /// `out` must outlive this writer. `options` apply to every frame.
  explicit WireWriter(std::ostream* out, WireEncodeOptions options = {})
      : out_(out), options_(options) {}

  /// Encodes and writes one frame. Fails on stream write errors.
  Status WriteBatch(std::span<const WireReport> batch);

  size_t batches_written() const { return batches_written_; }

 private:
  std::ostream* out_;
  WireEncodeOptions options_;
  size_t batches_written_ = 0;
};

/// \brief The one frame-reassembly state machine: every transport that
/// reads TLWB frames (istreams here, sockets in net::ConnectionState)
/// pumps its bytes through this class, so the framing rules cannot
/// diverge between transports.
///
/// The transport drives it by byte counts: read at most wanted() bytes
/// into next(), then report how many arrived with Advance(). The rules:
///  * the first kWireHeaderBytes are validated by PeekFrameHeader before
///    any buffer is sized from the declared length, so a hostile length
///    prefix is rejected at 16 bytes;
///  * wanted() never reaches past the current frame's end, so a reader
///    holds at most one frame;
///  * end of input is clean only exactly between frames (AtEnd()).
/// After any error the assembler is spent; drop it with its transport.
class FrameAssembler {
 public:
  FrameAssembler() : frame_(kWireHeaderBytes, '\0') {}

  /// Where the transport writes its next bytes: room for wanted().
  char* next() { return frame_.data() + filled_; }
  /// Bytes still missing from the current unit — the header, then the
  /// rest of the frame. 0 once ready().
  size_t wanted() const { return target_ - filled_; }

  /// Records `n` (at most wanted()) bytes written at next(). Completing
  /// the header validates it and sizes the frame; an invalid header is
  /// the returned error.
  Status Advance(size_t n);

  /// True when a whole frame is assembled; Take() it before reading on.
  bool ready() const {
    return filled_ == target_ && target_ > kWireHeaderBytes;
  }

  /// The transport's input ended (before ready()). Ok exactly between
  /// frames; anywhere else the stream was truncated.
  Status AtEnd() const;

  /// Moves out the assembled frame (header + payload + trailer,
  /// unverified) and re-arms for the next header. Only after ready().
  std::string Take();

 private:
  std::string frame_;
  size_t filled_ = 0;
  size_t target_ = kWireHeaderBytes;
};

/// \brief Reads whole frames from a std::istream WITHOUT decoding their
/// payloads — header-validated, size-bounded raw bytes, suitable for a
/// transport that forwards frames verbatim (the collector decodes on its
/// worker pool). Never buffers more than one frame, so arbitrarily long
/// streams read with bounded memory.
class RawFrameReader {
 public:
  /// `in` must outlive this reader.
  explicit RawFrameReader(std::istream* in) : in_(in) {}

  /// Reads the next complete frame into `frame`. At a clean end of
  /// stream sets `*done`; a frame cut short by EOF is a corruption
  /// error. The payload is NOT CRC-checked or decoded here.
  Status Next(std::string* frame, bool* done);

  size_t frames_read() const { return frames_read_; }

 private:
  std::istream* in_;
  FrameAssembler assembler_;
  size_t frames_read_ = 0;
};

/// \brief Reads frames back from a std::istream, one decoded batch at a
/// time: RawFrameReader::Next followed by DecodeReportBatch.
class WireReader {
 public:
  /// `in` must outlive this reader.
  explicit WireReader(std::istream* in) : frames_(in) {}

  /// Reads the next frame into `out`. At a clean end of stream, sets
  /// `*done` to true and leaves `out` untouched. A frame cut short by
  /// EOF is a corruption error, not a clean end.
  Status Next(ReportBatch* out, bool* done);

  size_t batches_read() const { return batches_read_; }

 private:
  RawFrameReader frames_;
  size_t batches_read_ = 0;
};

/// File-level conveniences: a wire file is a plain concatenation of
/// frames.
Status WriteReportBatches(const std::string& path,
                          std::span<const ReportBatch> batches);
StatusOr<std::vector<ReportBatch>> ReadReportBatches(const std::string& path);

}  // namespace trajldp::io

#endif  // TRAJLDP_IO_WIRE_H_
