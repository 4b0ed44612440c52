#include "io/wire.h"

#include <algorithm>
#include <array>
#include <bit>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <string>

namespace trajldp::io {

namespace {

// ------------------------------------------------------------------ CRC-32

constexpr std::array<uint32_t, 256> MakeCrc32Table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kCrcTable = MakeCrc32Table();

// ------------------------------------------------------- little-endian I/O

void PutU16(std::string& out, uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

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

/// Bounds-checked cursor over an immutable byte view: every read either
/// fits or fails, so a truncated or hostile frame can never read out of
/// range.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  Status ReadU16(uint16_t* v) {
    if (remaining() < 2) return Truncated("u16");
    *v = 0;
    for (int i = 0; i < 2; ++i) {
      *v |= static_cast<uint16_t>(Byte(pos_ + i)) << (8 * i);
    }
    pos_ += 2;
    return Status::Ok();
  }

  Status ReadU32(uint32_t* v) {
    if (remaining() < 4) return Truncated("u32");
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(Byte(pos_ + i)) << (8 * i);
    }
    pos_ += 4;
    return Status::Ok();
  }

  Status ReadU64(uint64_t* v) {
    if (remaining() < 8) return Truncated("u64");
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(Byte(pos_ + i)) << (8 * i);
    }
    pos_ += 8;
    return Status::Ok();
  }

 private:
  uint8_t Byte(size_t i) const { return static_cast<uint8_t>(data_[i]); }
  static Status Truncated(const char* what) {
    return Status::InvalidArgument(std::string("wire payload truncated: ") +
                                   what + " extends past the frame");
  }

  std::string_view data_;
  size_t pos_ = 0;
};

Status DecodeReport(ByteReader& reader, WireReport* report) {
  TRAJLDP_RETURN_NOT_OK(reader.ReadU64(&report->user_id));
  uint64_t eps_bits = 0;
  TRAJLDP_RETURN_NOT_OK(reader.ReadU64(&eps_bits));
  report->epsilon_prime = std::bit_cast<double>(eps_bits);
  TRAJLDP_RETURN_NOT_OK(reader.ReadU32(&report->trajectory_len));
  uint32_t ngram_count = 0;
  TRAJLDP_RETURN_NOT_OK(reader.ReadU32(&ngram_count));
  // Each n-gram is at least 12 bytes (a, b, one region), so an absurd
  // count is rejected before any allocation is sized from it.
  if (static_cast<size_t>(ngram_count) * 12 > reader.remaining()) {
    return Status::InvalidArgument(
        "wire report declares more n-grams than the frame can hold");
  }
  report->ngrams.clear();
  report->ngrams.reserve(ngram_count);
  for (uint32_t g = 0; g < ngram_count; ++g) {
    uint32_t a = 0;
    uint32_t b = 0;
    TRAJLDP_RETURN_NOT_OK(reader.ReadU32(&a));
    TRAJLDP_RETURN_NOT_OK(reader.ReadU32(&b));
    if (a < 1 || b < a || b > report->trajectory_len) {
      return Status::InvalidArgument(
          "wire n-gram bounds violate 1 <= a <= b <= trajectory_len (a=" +
          std::to_string(a) + ", b=" + std::to_string(b) +
          ", len=" + std::to_string(report->trajectory_len) + ")");
    }
    const size_t span = b - a + 1;
    if (span * 4 > reader.remaining()) {
      return Status::InvalidArgument(
          "wire n-gram region list extends past the frame");
    }
    core::PerturbedNgram gram;
    gram.a = a;
    gram.b = b;
    gram.regions.resize(span);
    for (size_t i = 0; i < span; ++i) {
      TRAJLDP_RETURN_NOT_OK(reader.ReadU32(&gram.regions[i]));
    }
    report->ngrams.push_back(std::move(gram));
  }
  return Status::Ok();
}

void EncodeReport(std::string& out, const WireReport& report) {
  PutU64(out, report.user_id);
  PutU64(out, std::bit_cast<uint64_t>(report.epsilon_prime));
  PutU32(out, report.trajectory_len);
  PutU32(out, static_cast<uint32_t>(report.ngrams.size()));
  for (const core::PerturbedNgram& gram : report.ngrams) {
    PutU32(out, static_cast<uint32_t>(gram.a));
    PutU32(out, static_cast<uint32_t>(gram.b));
    for (region::RegionId r : gram.regions) PutU32(out, r);
  }
}

/// Total payload bytes consumed by flagged prefixes, in their fixed
/// order: sequence first, then user range.
size_t FlaggedPrefixBytes(uint16_t flags) {
  size_t bytes = 0;
  if ((flags & kWireFlagSequence) != 0) bytes += kWireSequenceBytes;
  if ((flags & kWireFlagUserRange) != 0) bytes += kWireUserRangeBytes;
  return bytes;
}

Status DecodePayload(std::string_view payload, uint32_t report_count,
                     uint16_t flags, ReportBatch* batch) {
  ByteReader reader(payload);
  if ((flags & kWireFlagSequence) != 0) {
    WireSequence sequence;
    TRAJLDP_RETURN_NOT_OK(reader.ReadU64(&sequence.stream_id));
    TRAJLDP_RETURN_NOT_OK(reader.ReadU64(&sequence.seq));
    if (sequence.seq == 0) {
      return Status::InvalidArgument(
          "wire sequence prefix carries seq 0 (reserved for the "
          "pre-first-frame ack; sequences start at 1)");
    }
  }
  std::optional<WireUserRange> range;
  if ((flags & kWireFlagUserRange) != 0) {
    WireUserRange r;
    TRAJLDP_RETURN_NOT_OK(reader.ReadU64(&r.min_user_id));
    TRAJLDP_RETURN_NOT_OK(reader.ReadU64(&r.max_user_id));
    if (r.min_user_id > r.max_user_id) {
      return Status::InvalidArgument(
          "wire user range is inverted: min " +
          std::to_string(r.min_user_id) + " > max " +
          std::to_string(r.max_user_id));
    }
    range = r;
  }
  // A report is at least 24 bytes, so the declared count bounds the
  // reserve before any payload byte is trusted.
  if (static_cast<size_t>(report_count) * 24 > reader.remaining()) {
    return Status::InvalidArgument(
        "wire frame declares more reports than the payload can hold");
  }
  batch->clear();
  batch->reserve(report_count);
  for (uint32_t i = 0; i < report_count; ++i) {
    WireReport report;
    TRAJLDP_RETURN_NOT_OK(DecodeReport(reader, &report));
    if (range && !range->Contains(report.user_id)) {
      return Status::InvalidArgument(
          "wire report user " + std::to_string(report.user_id) +
          " lies outside the frame's declared user range [" +
          std::to_string(range->min_user_id) + ", " +
          std::to_string(range->max_user_id) + ")");
    }
    batch->push_back(std::move(report));
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument(
        "wire payload has " + std::to_string(reader.remaining()) +
        " trailing byte(s) after the last report");
  }
  return Status::Ok();
}

Status DecodeHeader(std::string_view header, WireFrameInfo* out) {
  ByteReader reader(header);
  uint32_t magic = 0;
  TRAJLDP_RETURN_NOT_OK(reader.ReadU32(&magic));
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad wire magic: not a TLWB frame");
  }
  TRAJLDP_RETURN_NOT_OK(reader.ReadU16(&out->version));
  if (out->version != kWireVersion) {
    return Status::Unimplemented("unsupported wire format version " +
                                 std::to_string(out->version) +
                                 " (expected " +
                                 std::to_string(kWireVersion) + ")");
  }
  TRAJLDP_RETURN_NOT_OK(reader.ReadU16(&out->flags));
  if ((out->flags & ~(kWireFlagUserRange | kWireFlagSequence)) != 0) {
    return Status::InvalidArgument(
        "wire frame sets reserved flag bits unknown to version 1");
  }
  TRAJLDP_RETURN_NOT_OK(reader.ReadU32(&out->report_count));
  TRAJLDP_RETURN_NOT_OK(reader.ReadU32(&out->payload_bytes));
  // Checked here — before any caller sizes a buffer from it — so a
  // hostile 16-byte header cannot force a multi-gigabyte allocation.
  if (out->payload_bytes > kWireMaxPayloadBytes) {
    return Status::InvalidArgument(
        "wire frame declares a " + std::to_string(out->payload_bytes) +
        "-byte payload, over the " + std::to_string(kWireMaxPayloadBytes) +
        "-byte frame limit");
  }
  if (out->payload_bytes < FlaggedPrefixBytes(out->flags)) {
    return Status::InvalidArgument(
        "wire frame flags payload prefixes but its payload is too small "
        "to hold them");
  }
  out->frame_bytes = kWireHeaderBytes +
                     static_cast<size_t>(out->payload_bytes) +
                     kWireTrailerBytes;
  return Status::Ok();
}

Status CheckCrc(std::string_view payload, std::string_view trailer) {
  ByteReader reader(trailer);
  uint32_t stored = 0;
  TRAJLDP_RETURN_NOT_OK(reader.ReadU32(&stored));
  const uint32_t computed = Crc32(payload);
  if (stored != computed) {
    return Status::InvalidArgument("wire payload checksum mismatch");
  }
  return Status::Ok();
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (char ch : data) {
    crc = kCrcTable[(crc ^ static_cast<uint8_t>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

StatusOr<WireFrameInfo> PeekFrameHeader(std::string_view header) {
  if (header.size() < kWireHeaderBytes) {
    return Status::InvalidArgument(
        "wire frame truncated: shorter than the fixed header");
  }
  WireFrameInfo info;
  TRAJLDP_RETURN_NOT_OK(
      DecodeHeader(header.substr(0, kWireHeaderBytes), &info));
  return info;
}

StatusOr<std::optional<WireUserRange>> PeekUserRange(
    std::string_view frame_prefix) {
  auto info = PeekFrameHeader(frame_prefix);
  if (!info.ok()) return info.status();
  if (!info->has_user_range()) return std::optional<WireUserRange>();
  // The sequence prefix, when present, always precedes the user range.
  const size_t offset =
      kWireHeaderBytes + (info->has_sequence() ? kWireSequenceBytes : 0);
  if (frame_prefix.size() < offset) {
    return Status::InvalidArgument(
        "wire frame prefix too short to reach the user-range prefix");
  }
  ByteReader reader(frame_prefix.substr(
      offset, std::min(frame_prefix.size() - offset, kWireUserRangeBytes)));
  WireUserRange range;
  TRAJLDP_RETURN_NOT_OK(reader.ReadU64(&range.min_user_id));
  TRAJLDP_RETURN_NOT_OK(reader.ReadU64(&range.max_user_id));
  if (range.min_user_id > range.max_user_id) {
    return Status::InvalidArgument(
        "wire user range is inverted: min " +
        std::to_string(range.min_user_id) + " > max " +
        std::to_string(range.max_user_id));
  }
  return std::optional<WireUserRange>(range);
}

StatusOr<std::optional<WireSequence>> PeekSequence(
    std::string_view frame_prefix) {
  auto info = PeekFrameHeader(frame_prefix);
  if (!info.ok()) return info.status();
  if (!info->has_sequence()) return std::optional<WireSequence>();
  ByteReader reader(frame_prefix.substr(
      kWireHeaderBytes,
      std::min(frame_prefix.size() - kWireHeaderBytes, kWireSequenceBytes)));
  WireSequence sequence;
  TRAJLDP_RETURN_NOT_OK(reader.ReadU64(&sequence.stream_id));
  TRAJLDP_RETURN_NOT_OK(reader.ReadU64(&sequence.seq));
  if (sequence.seq == 0) {
    return Status::InvalidArgument(
        "wire sequence prefix carries seq 0 (sequences start at 1)");
  }
  return std::optional<WireSequence>(sequence);
}

Status VerifyFrameChecksum(std::string_view frame) {
  auto info = PeekFrameHeader(frame);
  if (!info.ok()) return info.status();
  if (frame.size() != info->frame_bytes) {
    return Status::InvalidArgument(
        "frame buffer size does not match its declared length");
  }
  return CheckCrc(frame.substr(kWireHeaderBytes, info->payload_bytes),
                  frame.substr(kWireHeaderBytes + info->payload_bytes));
}

StatusOr<std::string> EncodeReportBatch(std::span<const WireReport> batch) {
  return EncodeReportBatch(batch, WireEncodeOptions{});
}

StatusOr<std::string> EncodeReportBatch(std::span<const WireReport> batch,
                                        const WireEncodeOptions& options) {
  std::string payload;
  uint16_t flags = 0;
  if (options.sequence.has_value()) {
    if (options.sequence->seq == 0) {
      return Status::InvalidArgument(
          "wire sequence numbers start at 1 (0 is the pre-first-frame "
          "ack value); cannot encode seq 0");
    }
    flags |= kWireFlagSequence;
    PutU64(payload, options.sequence->stream_id);
    PutU64(payload, options.sequence->seq);
  }
  if (options.include_user_range) {
    flags |= kWireFlagUserRange;
    WireUserRange range;  // tight [min, max) over the batch; [0, 0) empty
    if (!batch.empty()) {
      range.min_user_id = batch[0].user_id;
      range.max_user_id = batch[0].user_id;
      for (const WireReport& report : batch) {
        range.min_user_id = std::min(range.min_user_id, report.user_id);
        range.max_user_id = std::max(range.max_user_id, report.user_id);
      }
      // The exclusive upper bound for UINT64_MAX does not exist in a
      // u64: incrementing would wrap to a [min, 0) frame every decoder
      // rejects as inverted. Refuse at the encode site instead.
      if (range.max_user_id == std::numeric_limits<uint64_t>::max()) {
        return Status::InvalidArgument(
            "user id 2^64-1 cannot travel in a ranged frame (no exclusive "
            "upper bound exists); encode without include_user_range");
      }
      ++range.max_user_id;  // exclusive upper bound
    }
    PutU64(payload, range.min_user_id);
    PutU64(payload, range.max_user_id);
  }
  for (const WireReport& report : batch) EncodeReport(payload, report);
  if (payload.size() > kWireMaxPayloadBytes) {
    return Status::InvalidArgument(
        "report batch encodes to " + std::to_string(payload.size()) +
        " payload bytes, over the " + std::to_string(kWireMaxPayloadBytes) +
        "-byte frame limit; split the batch");
  }

  std::string frame;
  frame.reserve(kWireHeaderBytes + payload.size() + kWireTrailerBytes);
  PutU32(frame, kWireMagic);
  PutU16(frame, kWireVersion);
  PutU16(frame, flags);
  PutU32(frame, static_cast<uint32_t>(batch.size()));
  PutU32(frame, static_cast<uint32_t>(payload.size()));
  frame += payload;
  PutU32(frame, Crc32(payload));
  return frame;
}

StatusOr<ReportBatch> DecodeReportBatch(std::string_view data) {
  if (data.size() < kWireHeaderBytes + kWireTrailerBytes) {
    return Status::InvalidArgument(
        "wire frame truncated: shorter than header + checksum");
  }
  WireFrameInfo header;
  TRAJLDP_RETURN_NOT_OK(
      DecodeHeader(data.substr(0, kWireHeaderBytes), &header));
  const size_t expected = header.frame_bytes;
  if (data.size() < expected) {
    return Status::InvalidArgument(
        "wire frame truncated: header declares " +
        std::to_string(header.payload_bytes) + " payload byte(s) but only " +
        std::to_string(data.size() - kWireHeaderBytes - kWireTrailerBytes) +
        " are present");
  }
  if (data.size() > expected) {
    return Status::InvalidArgument(
        "wire frame has trailing bytes (use WireReader for streams)");
  }
  const std::string_view payload =
      data.substr(kWireHeaderBytes, header.payload_bytes);
  TRAJLDP_RETURN_NOT_OK(
      CheckCrc(payload, data.substr(kWireHeaderBytes + header.payload_bytes)));
  ReportBatch batch;
  TRAJLDP_RETURN_NOT_OK(
      DecodePayload(payload, header.report_count, header.flags, &batch));
  return batch;
}

std::string EncodeAckFrame(uint64_t ack_seq) {
  std::string frame;
  frame.reserve(kAckFrameBytes);
  PutU32(frame, kAckMagic);
  PutU16(frame, kWireVersion);
  PutU16(frame, 0);  // flags: none defined for ack frames yet
  PutU64(frame, ack_seq);
  frame += std::string(4, '\0');
  const uint32_t crc = Crc32(std::string_view(frame).substr(4, 12));
  for (int i = 0; i < 4; ++i) {
    frame[16 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  return frame;
}

StatusOr<uint64_t> DecodeAckFrame(std::string_view frame) {
  if (frame.size() != kAckFrameBytes) {
    return Status::InvalidArgument(
        "ack frame must be exactly " + std::to_string(kAckFrameBytes) +
        " bytes, got " + std::to_string(frame.size()));
  }
  ByteReader reader(frame);
  uint32_t magic = 0;
  TRAJLDP_RETURN_NOT_OK(reader.ReadU32(&magic));
  if (magic != kAckMagic) {
    return Status::InvalidArgument("bad ack magic: not a TLWA frame");
  }
  uint16_t version = 0;
  TRAJLDP_RETURN_NOT_OK(reader.ReadU16(&version));
  if (version != kWireVersion) {
    return Status::Unimplemented("unsupported ack frame version " +
                                 std::to_string(version));
  }
  uint16_t flags = 0;
  TRAJLDP_RETURN_NOT_OK(reader.ReadU16(&flags));
  if (flags != 0) {
    return Status::InvalidArgument(
        "ack frame sets reserved flag bits unknown to version 1");
  }
  uint64_t ack_seq = 0;
  TRAJLDP_RETURN_NOT_OK(reader.ReadU64(&ack_seq));
  uint32_t stored = 0;
  TRAJLDP_RETURN_NOT_OK(reader.ReadU32(&stored));
  if (stored != Crc32(frame.substr(4, 12))) {
    return Status::InvalidArgument("ack frame checksum mismatch");
  }
  return ack_seq;
}

Status WireWriter::WriteBatch(std::span<const WireReport> batch) {
  if (out_ == nullptr) {
    return Status::InvalidArgument("WireWriter has no output stream");
  }
  auto frame = EncodeReportBatch(batch, options_);
  if (!frame.ok()) return frame.status();
  out_->write(frame->data(), static_cast<std::streamsize>(frame->size()));
  if (!out_->good()) {
    return Status::Internal("wire write failed: output stream error");
  }
  ++batches_written_;
  return Status::Ok();
}

Status FrameAssembler::Advance(size_t n) {
  filled_ += n;
  if (filled_ < target_ || target_ != kWireHeaderBytes) return Status::Ok();
  // Header complete: validate magic/version/flags and bound the declared
  // payload BEFORE sizing the buffer from it.
  auto info = PeekFrameHeader(frame_);
  if (!info.ok()) return info.status();
  target_ = info->frame_bytes;  // > header size: the trailer always exists
  frame_.resize(target_);
  return Status::Ok();
}

Status FrameAssembler::AtEnd() const {
  if (filled_ == 0) return Status::Ok();  // exactly between frames
  return Status::InvalidArgument(
      "wire stream truncated: input ended " + std::to_string(filled_) +
      " byte(s) into a " + std::to_string(target_) +
      (target_ == kWireHeaderBytes ? "-byte frame header" : "-byte frame"));
}

std::string FrameAssembler::Take() {
  std::string frame = std::move(frame_);
  frame_.assign(kWireHeaderBytes, '\0');
  filled_ = 0;
  target_ = kWireHeaderBytes;
  return frame;
}

Status RawFrameReader::Next(std::string* frame, bool* done) {
  *done = false;
  if (in_ == nullptr) {
    return Status::InvalidArgument("RawFrameReader has no input stream");
  }
  while (!assembler_.ready()) {
    in_->read(assembler_.next(),
              static_cast<std::streamsize>(assembler_.wanted()));
    const auto got = static_cast<size_t>(in_->gcount());
    if (got == 0) {
      if (!in_->eof()) return Status::Internal("wire stream read failed");
      TRAJLDP_RETURN_NOT_OK(assembler_.AtEnd());
      *done = true;
      return Status::Ok();
    }
    TRAJLDP_RETURN_NOT_OK(assembler_.Advance(got));
  }
  *frame = assembler_.Take();
  ++frames_read_;
  return Status::Ok();
}

Status WireReader::Next(ReportBatch* out, bool* done) {
  std::string frame;
  TRAJLDP_RETURN_NOT_OK(frames_.Next(&frame, done));
  if (*done) return Status::Ok();
  auto batch = DecodeReportBatch(frame);
  if (!batch.ok()) return batch.status();
  *out = std::move(*batch);
  ++batches_read_;
  return Status::Ok();
}

Status WriteReportBatches(const std::string& path,
                          std::span<const ReportBatch> batches) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return Status::NotFound("cannot open " + path + " for writing");
  }
  WireWriter writer(&file);
  for (const ReportBatch& batch : batches) {
    TRAJLDP_RETURN_NOT_OK(writer.WriteBatch(batch));
  }
  file.close();
  if (!file) {
    return Status::Internal("error while closing " + path);
  }
  return Status::Ok();
}

StatusOr<std::vector<ReportBatch>> ReadReportBatches(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::NotFound("cannot open " + path + " for reading");
  }
  WireReader reader(&file);
  std::vector<ReportBatch> batches;
  for (;;) {
    ReportBatch batch;
    bool done = false;
    TRAJLDP_RETURN_NOT_OK(reader.Next(&batch, &done));
    if (done) break;
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace trajldp::io
