#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/wire.h"
#include "net/connection_state.h"

namespace trajldp::io {
namespace {

// ---------- helpers ----------

// Randomized but structurally valid report: trajectory length in
// [1, 12], a paper-shaped n-gram cover (mains + prefix/suffix ends) with
// arbitrary region ids, a per-draw ε′ derived from the length.
WireReport RandomReport(Rng& rng, uint64_t user_id) {
  WireReport report;
  report.user_id = user_id;
  const size_t len = 1 + static_cast<size_t>(rng.UniformUint64(12));
  report.trajectory_len = static_cast<uint32_t>(len);
  const size_t n = std::min<size_t>(len, 1 + rng.UniformUint64(3));
  report.epsilon_prime = 5.0 / static_cast<double>(len + n - 1);
  auto random_gram = [&](size_t a, size_t b) {
    core::PerturbedNgram gram;
    gram.a = a;
    gram.b = b;
    gram.regions.resize(b - a + 1);
    for (auto& r : gram.regions) {
      r = static_cast<region::RegionId>(rng.UniformUint64(1u << 20));
    }
    return gram;
  };
  for (size_t a = 1; a + n - 1 <= len; ++a) {
    report.ngrams.push_back(random_gram(a, a + n - 1));
  }
  for (size_t m = 1; m < n; ++m) {
    report.ngrams.push_back(random_gram(1, m));
    report.ngrams.push_back(random_gram(len - m + 1, len));
  }
  return report;
}

ReportBatch RandomBatch(Rng& rng, size_t count, uint64_t first_user) {
  ReportBatch batch;
  for (size_t i = 0; i < count; ++i) {
    batch.push_back(RandomReport(rng, first_user + i));
  }
  return batch;
}

// ---------- round trips ----------

TEST(WireRoundTripTest, RandomizedBatchesSurviveEncodeDecode) {
  Rng rng(20260729);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t count = rng.UniformUint64(9);  // includes empty batches
    const ReportBatch batch = RandomBatch(rng, count, trial * 1000);
    const std::string frame = *EncodeReportBatch(batch);
    auto decoded = DecodeReportBatch(frame);
    ASSERT_TRUE(decoded.ok()) << "trial " << trial << ": "
                              << decoded.status();
    EXPECT_EQ(*decoded, batch) << "trial " << trial;
  }
}

TEST(WireRoundTripTest, PreservesExtremeFieldValues) {
  WireReport report;
  report.user_id = ~uint64_t{0};
  report.epsilon_prime = 0.1234567890123456789;  // full double precision
  report.trajectory_len = 3;
  report.ngrams.push_back(core::PerturbedNgram{1, 3, {0, ~uint32_t{0}, 7}});
  const ReportBatch batch{report};
  auto decoded = DecodeReportBatch(*EncodeReportBatch(batch));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, batch);
}

TEST(WireRoundTripTest, EmptyBatchIsACompleteFrame) {
  const std::string frame = *EncodeReportBatch(ReportBatch{});
  EXPECT_EQ(frame.size(), kWireHeaderBytes + kWireTrailerBytes);
  auto decoded = DecodeReportBatch(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->empty());
}

TEST(WireFormatTest, EncodingIsByteStableAcrossCalls) {
  Rng rng(7);
  const ReportBatch batch = RandomBatch(rng, 4, 0);
  EXPECT_EQ(*EncodeReportBatch(batch), *EncodeReportBatch(batch));
}

TEST(WireFormatTest, Crc32MatchesKnownVector) {
  // The classic IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

// ---------- malformed input: every failure is a clean Status ----------

class WireMalformedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(99);
    batch_ = RandomBatch(rng, 3, 42);
    frame_ = *EncodeReportBatch(batch_);
  }

  ReportBatch batch_;
  std::string frame_;
};

TEST_F(WireMalformedTest, TruncationAtEveryLengthFailsCleanly) {
  for (size_t len = 0; len < frame_.size(); ++len) {
    auto decoded = DecodeReportBatch(frame_.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST_F(WireMalformedTest, BadMagicRejected) {
  std::string bad = frame_;
  bad[0] = 'X';
  auto decoded = DecodeReportBatch(bad);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("magic"), std::string::npos);
}

TEST_F(WireMalformedTest, WrongVersionRejected) {
  std::string bad = frame_;
  bad[4] = 9;  // version low byte
  auto decoded = DecodeReportBatch(bad);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kUnimplemented);
}

TEST_F(WireMalformedTest, ReservedFlagsRejected) {
  // 0x01 (user range) and 0x02 (sequence) are the known flags; every
  // other bit stays reserved.
  std::string bad = frame_;
  bad[6] = 4;  // flags low byte: a bit no decoder speaks
  auto decoded = DecodeReportBatch(bad);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  bad[6] = 0;
  bad[7] = 1;  // flags high byte
  EXPECT_FALSE(DecodeReportBatch(bad).ok());
}

TEST_F(WireMalformedTest, CorruptedChecksumRejected) {
  std::string bad = frame_;
  bad.back() = static_cast<char>(bad.back() ^ 0x40);
  auto decoded = DecodeReportBatch(bad);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos);
}

TEST_F(WireMalformedTest, CorruptedPayloadByteRejected) {
  // Any payload flip must be caught by the CRC before field validation
  // can be confused by it.
  std::string bad = frame_;
  bad[kWireHeaderBytes + 3] = static_cast<char>(bad[kWireHeaderBytes + 3] ^ 1);
  EXPECT_FALSE(DecodeReportBatch(bad).ok());
}

TEST_F(WireMalformedTest, TrailingBytesRejected) {
  auto decoded = DecodeReportBatch(frame_ + "x");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("trailing"), std::string::npos);
}

TEST_F(WireMalformedTest, OversizedDeclaredReportCountRejected) {
  // Forge a frame claiming 2^31 reports over a tiny payload: the decoder
  // must refuse before sizing any allocation from the count. Re-checksum
  // so the CRC is not what rejects it.
  ReportBatch empty;
  std::string frame = *EncodeReportBatch(empty);
  frame[8] = 0;
  frame[9] = 0;
  frame[10] = 0;
  frame[11] = static_cast<char>(0x80);
  auto decoded = DecodeReportBatch(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("reports"), std::string::npos);
}

TEST_F(WireMalformedTest, HeaderDeclaredPayloadOverFrameLimitRejected) {
  // A hostile 16-byte header claiming a ~4 GB payload must be rejected
  // at the header — before WireReader would size a buffer from it.
  std::string bad = *EncodeReportBatch(ReportBatch{});
  for (size_t i = 12; i < 16; ++i) bad[i] = static_cast<char>(0xFF);
  auto decoded = DecodeReportBatch(bad);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("frame limit"),
            std::string::npos);

  std::stringstream stream(bad);
  WireReader reader(&stream);
  ReportBatch got;
  bool done = false;
  EXPECT_FALSE(reader.Next(&got, &done).ok());
}

TEST(WireInvalidNgramTest, BoundsViolationsRejected) {
  // Hand-build payloads with a = 0, b < a, and b > trajectory_len by
  // encoding a valid report and patching it (then fixing the CRC via
  // re-framing is impossible — so craft via Encode of an invalid struct).
  for (int variant = 0; variant < 3; ++variant) {
    WireReport report;
    report.user_id = 1;
    report.epsilon_prime = 1.0;
    report.trajectory_len = 2;
    core::PerturbedNgram gram;
    switch (variant) {
      case 0:  // a = 0
        gram.a = 0;
        gram.b = 0;
        gram.regions = {5};
        break;
      case 1:  // b < a
        gram.a = 2;
        gram.b = 1;
        gram.regions = {5, 6};
        break;
      default:  // b > trajectory_len
        gram.a = 1;
        gram.b = 3;
        gram.regions = {5, 6, 7};
        break;
    }
    report.ngrams.push_back(gram);
    // Encode writes the struct as-is; Decode must reject it.
    const std::string frame = *EncodeReportBatch(ReportBatch{report});
    auto decoded = DecodeReportBatch(frame);
    EXPECT_FALSE(decoded.ok()) << "variant " << variant;
  }
}

// b < a makes the encoder's (b − a + 1) underflow enormous; the length
// guard must fire rather than the loop running away. Variant 1 above
// covers it via a correct-length region list; here the decoder sees a
// region list claim larger than the payload.
TEST(WireInvalidNgramTest, RegionListPastFrameRejected) {
  WireReport report;
  report.user_id = 1;
  report.epsilon_prime = 1.0;
  report.trajectory_len = 100;
  core::PerturbedNgram gram;
  gram.a = 1;
  gram.b = 50;
  gram.regions = {1, 2};  // far fewer than b − a + 1 = 50
  report.ngrams.push_back(gram);
  const std::string frame = *EncodeReportBatch(ReportBatch{report});
  EXPECT_FALSE(DecodeReportBatch(frame).ok());
}

// ---------- batch user range (the flags-gated v2 candidate) ----------

TEST(WireUserRangeTest, RoundTripsAndPeeksWithoutDecoding) {
  Rng rng(31);
  ReportBatch batch = RandomBatch(rng, 4, 100);
  batch[2].user_id = 250;  // widen the interval past the dense block
  WireEncodeOptions options;
  options.include_user_range = true;
  const std::string frame = *EncodeReportBatch(batch, options);

  auto info = PeekFrameHeader(frame);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_TRUE(info->has_user_range());
  EXPECT_EQ(info->frame_bytes, frame.size());

  // The routing peek needs only header + range prefix, not the payload.
  auto range = PeekUserRange(
      frame.substr(0, kWireHeaderBytes + kWireUserRangeBytes));
  ASSERT_TRUE(range.ok()) << range.status();
  ASSERT_TRUE(range->has_value());
  EXPECT_EQ((*range)->min_user_id, 100u);
  EXPECT_EQ((*range)->max_user_id, 251u);  // exclusive, tight

  auto decoded = DecodeReportBatch(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, batch);
}

TEST(WireUserRangeTest, UnflaggedFrameHasNoRange) {
  Rng rng(32);
  const std::string frame = *EncodeReportBatch(RandomBatch(rng, 2, 7));
  auto info = PeekFrameHeader(frame);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->has_user_range());
  auto range = PeekUserRange(frame);
  ASSERT_TRUE(range.ok()) << range.status();
  EXPECT_FALSE(range->has_value());
}

TEST(WireUserRangeTest, EmptyBatchDeclaresEmptyRange) {
  WireEncodeOptions options;
  options.include_user_range = true;
  const std::string frame = *EncodeReportBatch(ReportBatch{}, options);
  EXPECT_EQ(frame.size(),
            kWireHeaderBytes + kWireUserRangeBytes + kWireTrailerBytes);
  auto range = PeekUserRange(frame);
  ASSERT_TRUE(range.ok()) << range.status();
  ASSERT_TRUE(range->has_value());
  EXPECT_EQ((*range)->min_user_id, 0u);
  EXPECT_EQ((*range)->max_user_id, 0u);
  auto decoded = DecodeReportBatch(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->empty());
  // The empty interval is a subset of every shard range — an empty
  // keep-alive batch passes any server's membership check.
  EXPECT_TRUE((*range)->ContainedIn(WireUserRange{100, 200}));
  EXPECT_FALSE((WireUserRange{50, 60}.ContainedIn(WireUserRange{100, 200})));
  EXPECT_TRUE((WireUserRange{100, 150}.ContainedIn(WireUserRange{100, 200})));
}

// Re-checksums `frame` after a tamper so the CRC is not what rejects it.
void Rechecksum(std::string& frame) {
  const std::string_view payload(frame.data() + kWireHeaderBytes,
                                 frame.size() - kWireHeaderBytes -
                                     kWireTrailerBytes);
  const uint32_t crc = Crc32(payload);
  for (size_t i = 0; i < 4; ++i) {
    frame[frame.size() - 4 + i] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
}

TEST(WireUserRangeTest, ReportOutsideDeclaredRangeRejected) {
  Rng rng(33);
  WireEncodeOptions options;
  options.include_user_range = true;
  std::string frame = *EncodeReportBatch(RandomBatch(rng, 3, 20), options);
  // Shrink the declared max below the users actually present.
  for (size_t i = 0; i < 8; ++i) {
    frame[kWireHeaderBytes + 8 + i] = (i == 0) ? 21 : 0;  // max = 21
  }
  Rechecksum(frame);
  auto decoded = DecodeReportBatch(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("user range"),
            std::string::npos);
}

TEST(WireUserRangeTest, InvertedRangeRejected) {
  WireEncodeOptions options;
  options.include_user_range = true;
  std::string frame = *EncodeReportBatch(ReportBatch{}, options);
  frame[kWireHeaderBytes] = 9;  // min = 9 > max = 0
  Rechecksum(frame);
  EXPECT_FALSE(DecodeReportBatch(frame).ok());
  auto range = PeekUserRange(frame);
  EXPECT_FALSE(range.ok());
}

TEST(WireUserRangeTest, MaxUserIdRefusedAtEncodeNotWrapped) {
  // u64's last id has no exclusive upper bound; the encoder must fail
  // cleanly rather than emit a wrapped [min, 0) frame its own decoder
  // rejects as inverted.
  WireReport report;
  report.user_id = ~uint64_t{0};
  report.trajectory_len = 1;
  report.ngrams.push_back(core::PerturbedNgram{1, 1, {0}});
  WireEncodeOptions options;
  options.include_user_range = true;
  auto frame = EncodeReportBatch(ReportBatch{report}, options);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  // Without the range the same report still travels (round-trip test
  // PreservesExtremeFieldValues covers the decode).
  EXPECT_TRUE(EncodeReportBatch(ReportBatch{report}).ok());
}

TEST(WireUserRangeTest, FlaggedFrameWithoutRoomForRangeRejected) {
  // A flagged header whose payload cannot hold the 16-byte prefix must
  // fail at the header, before any payload read.
  std::string frame = *EncodeReportBatch(ReportBatch{});
  frame[6] = 1;  // set the user-range flag; payload_bytes stays 0
  auto info = PeekFrameHeader(frame);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument);
}

// ---------- sequence identity and acks (wire v3) ----------

TEST(WireSequenceTest, RoundTripsAndPeeksWithoutDecoding) {
  Rng rng(41);
  const ReportBatch batch = RandomBatch(rng, 3, 60);
  WireEncodeOptions options;
  options.sequence = WireSequence{.stream_id = 7, .seq = 42};
  const std::string frame = *EncodeReportBatch(batch, options);

  auto info = PeekFrameHeader(frame);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_TRUE(info->has_sequence());

  // The dedup peek needs only header + sequence prefix, not the payload.
  auto sequence =
      PeekSequence(frame.substr(0, kWireHeaderBytes + kWireSequenceBytes));
  ASSERT_TRUE(sequence.ok()) << sequence.status();
  ASSERT_TRUE(sequence->has_value());
  EXPECT_EQ((*sequence)->stream_id, 7u);
  EXPECT_EQ((*sequence)->seq, 42u);

  auto decoded = DecodeReportBatch(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, batch);
}

TEST(WireSequenceTest, ComposesWithUserRangePrefixInOrder) {
  Rng rng(43);
  const ReportBatch batch = RandomBatch(rng, 2, 10);
  WireEncodeOptions options;
  options.include_user_range = true;
  options.sequence = WireSequence{.stream_id = 1, .seq = 1};
  const std::string frame = *EncodeReportBatch(batch, options);

  // Sequence sits first at its fixed offset; the range follows it, and
  // both peeks find their field with the other flag present.
  auto sequence = PeekSequence(frame);
  ASSERT_TRUE(sequence.ok()) << sequence.status();
  ASSERT_TRUE(sequence->has_value());
  EXPECT_EQ((*sequence)->seq, 1u);
  auto range = PeekUserRange(frame);
  ASSERT_TRUE(range.ok()) << range.status();
  ASSERT_TRUE(range->has_value());
  EXPECT_EQ((*range)->min_user_id, 10u);

  auto decoded = DecodeReportBatch(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, batch);
}

TEST(WireSequenceTest, UnsequencedFrameHasNoSequence) {
  Rng rng(44);
  const std::string frame = *EncodeReportBatch(RandomBatch(rng, 2, 7));
  auto info = PeekFrameHeader(frame);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->has_sequence());
  auto sequence = PeekSequence(frame);
  ASSERT_TRUE(sequence.ok()) << sequence.status();
  EXPECT_FALSE(sequence->has_value());
}

TEST(WireSequenceTest, ZeroSeqRefusedAtEncodeAndDecode) {
  // seq 0 is reserved ("nothing acked yet"); a frame claiming it would
  // confuse every dedup map downstream, so both directions reject it.
  WireEncodeOptions options;
  options.sequence = WireSequence{.stream_id = 3, .seq = 0};
  EXPECT_FALSE(EncodeReportBatch(ReportBatch{}, options).ok());

  options.sequence->seq = 5;
  std::string frame = *EncodeReportBatch(ReportBatch{}, options);
  for (size_t i = 0; i < 8; ++i) {
    frame[kWireHeaderBytes + 8 + i] = 0;  // stamp seq = 0 on the wire
  }
  Rechecksum(frame);
  EXPECT_FALSE(DecodeReportBatch(frame).ok());
  EXPECT_FALSE(PeekSequence(frame).ok());
}

TEST(WireSequenceTest, FlaggedFrameWithoutRoomForSequenceRejected) {
  std::string frame = *EncodeReportBatch(ReportBatch{});
  frame[6] = 2;  // set the sequence flag; payload_bytes stays 0
  auto info = PeekFrameHeader(frame);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireAckTest, RoundTrips) {
  const std::string frame = EncodeAckFrame(123456789);
  EXPECT_EQ(frame.size(), kAckFrameBytes);
  auto ack = DecodeAckFrame(frame);
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(*ack, 123456789u);
  // ack_seq 0 is a valid ack: "nothing durable yet".
  EXPECT_EQ(*DecodeAckFrame(EncodeAckFrame(0)), 0u);
  EXPECT_EQ(*DecodeAckFrame(EncodeAckFrame(~uint64_t{0})), ~uint64_t{0});
}

TEST(WireAckTest, EveryCorruptedByteRejected) {
  // Magic guards bytes [0,4), the CRC covers [4,16), and the CRC field
  // itself must match — so no single flipped byte can pass.
  const std::string good = EncodeAckFrame(42);
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    EXPECT_FALSE(DecodeAckFrame(bad).ok()) << "byte " << i;
  }
  EXPECT_FALSE(DecodeAckFrame(good.substr(0, good.size() - 1)).ok());
  EXPECT_FALSE(DecodeAckFrame(good + 'x').ok());
}

// ---------- streams and files ----------

TEST(WireStreamTest, MultiFrameStreamRoundTrips) {
  Rng rng(11);
  std::vector<ReportBatch> batches;
  for (size_t i = 0; i < 5; ++i) {
    batches.push_back(RandomBatch(rng, 1 + i, i * 100));
  }

  std::stringstream stream;
  WireWriter writer(&stream);
  for (const auto& batch : batches) {
    ASSERT_TRUE(writer.WriteBatch(batch).ok());
  }
  EXPECT_EQ(writer.batches_written(), batches.size());

  WireReader reader(&stream);
  for (size_t i = 0; i < batches.size(); ++i) {
    ReportBatch got;
    bool done = false;
    ASSERT_TRUE(reader.Next(&got, &done).ok()) << "batch " << i;
    ASSERT_FALSE(done) << "batch " << i;
    EXPECT_EQ(got, batches[i]) << "batch " << i;
  }
  ReportBatch got;
  bool done = false;
  ASSERT_TRUE(reader.Next(&got, &done).ok());
  EXPECT_TRUE(done);
  EXPECT_EQ(reader.batches_read(), batches.size());
}

TEST(WireStreamTest, StreamCutInsideFrameIsCorruptionNotEof) {
  Rng rng(13);
  const std::string frame = *EncodeReportBatch(RandomBatch(rng, 2, 0));
  std::stringstream cut(frame.substr(0, frame.size() - 2));
  WireReader reader(&cut);
  ReportBatch got;
  bool done = false;
  auto status = reader.Next(&got, &done);
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(done);
}

TEST(WireStreamTest, RawFrameReaderReturnsVerbatimFrames) {
  Rng rng(19);
  std::vector<std::string> frames;
  std::stringstream stream;
  WireEncodeOptions ranged;
  ranged.include_user_range = true;
  for (size_t i = 0; i < 4; ++i) {
    // Mix flagged and unflagged frames in one stream.
    auto frame = EncodeReportBatch(RandomBatch(rng, 1 + i, i * 50),
                                   i % 2 ? ranged : WireEncodeOptions{});
    ASSERT_TRUE(frame.ok());
    stream << *frame;
    frames.push_back(std::move(*frame));
  }

  RawFrameReader reader(&stream);
  for (size_t i = 0; i < frames.size(); ++i) {
    std::string frame;
    bool done = false;
    ASSERT_TRUE(reader.Next(&frame, &done).ok()) << "frame " << i;
    ASSERT_FALSE(done);
    EXPECT_EQ(frame, frames[i]) << "frame " << i;  // byte-for-byte
  }
  std::string frame;
  bool done = false;
  ASSERT_TRUE(reader.Next(&frame, &done).ok());
  EXPECT_TRUE(done);
  EXPECT_EQ(reader.frames_read(), frames.size());
}

TEST(WireStreamTest, RawFrameReaderRejectsCutAndGarbage) {
  Rng rng(23);
  const std::string good = *EncodeReportBatch(RandomBatch(rng, 2, 0));
  {
    std::stringstream cut(good.substr(0, good.size() - 1));
    RawFrameReader reader(&cut);
    std::string frame;
    bool done = false;
    EXPECT_FALSE(reader.Next(&frame, &done).ok());
    EXPECT_FALSE(done);
  }
  {
    std::stringstream garbage("this is not a TLWB stream at all!");
    RawFrameReader reader(&garbage);
    std::string frame;
    bool done = false;
    auto status = reader.Next(&frame, &done);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("magic"), std::string::npos);
  }
}

TEST(WireFileTest, WriteReadRoundTrip) {
  Rng rng(17);
  std::vector<ReportBatch> batches;
  for (size_t i = 0; i < 3; ++i) {
    batches.push_back(RandomBatch(rng, 4, i * 10));
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "trajldp_wire_test.bin")
          .string();
  ASSERT_TRUE(WriteReportBatches(path, batches).ok());
  auto read = ReadReportBatches(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, batches);
  std::remove(path.c_str());
}

TEST(WireFileTest, MissingFileIsCleanError) {
  auto read = ReadReportBatches("/nonexistent/trajldp_nope.bin");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

// ---------- mutation: one reassembler, two transports ----------
//
// Seeded bit flips, truncations, length-field splices and deleted bytes
// over plain, ranged and sequenced frames. An istream (RawFrameReader)
// and a socket fed 1–32 byte chunks (net::ConnectionState) must give the
// same frames, end and error text (CI runs this suite under ASan/UBSan).

/// The frames a transport emitted, then "end" or the error's ToString().
using Outcome = std::vector<std::string>;

void Mutate(Rng& rng, const std::vector<size_t>& starts, std::string* bytes) {
  const size_t pos = rng.UniformUint64(bytes->size());
  const uint32_t max = kWireMaxPayloadBytes;
  const uint32_t lengths[] = {0, 1, max - 1, max, max + 1, 0xFFFFFFFFu,
                              static_cast<uint32_t>(rng.NextUint64())};
  const uint32_t length = lengths[rng.UniformUint64(7)];
  const size_t field = starts[rng.UniformUint64(starts.size())] + 12;
  switch (rng.UniformUint64(4)) {
    case 0:  // bit flip
      (*bytes)[pos] ^= static_cast<char>(1 << rng.UniformUint64(8));
      break;
    case 1:  // truncation
      bytes->resize(pos);
      break;
    case 2:  // splice of one frame's payload-length field
      for (size_t i = 0; i < 4; ++i) {
        (*bytes)[field + i] = static_cast<char>(length >> (8 * i));
      }
      break;
    default:  // deleted byte
      bytes->erase(pos, 1);
  }
}

Outcome ReadFromIstream(const std::string& bytes) {
  std::istringstream in(bytes);
  RawFrameReader reader(&in);
  Outcome out;
  for (bool done = false; !done;) {
    std::string frame;
    const Status status = reader.Next(&frame, &done);
    out.push_back(!status.ok() ? status.ToString() : done ? "end" : frame);
    if (!status.ok()) break;
  }
  return out;
}

Outcome ReadFromSocket(const std::string& bytes, Rng chunks) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  using Event = net::ConnectionState::ReadEvent;
  net::ConnectionState state{net::Socket(fds[0])};
  net::Socket writer(fds[1]);
  Outcome out;
  for (size_t sent = 0; writer.valid();) {
    const size_t chunk =
        std::min<size_t>(1 + chunks.UniformUint64(32), bytes.size() - sent);
    EXPECT_EQ(::send(writer.fd(), bytes.data() + sent, chunk, 0),
              static_cast<ssize_t>(chunk));
    sent += chunk;
    if (sent == bytes.size()) writer.Close();  // the FIN follows the bytes
    for (;;) {  // handle what the bytes sent so far allow
      auto event = state.PumpRead();
      if (event.ok() && *event == Event::kWouldBlock) break;
      if (event.ok() && *event == Event::kFrameReady) {
        out.push_back(state.TakeFrame());
        continue;
      }
      // A clean FIN between frames, or an error, ends the stream.
      out.push_back(event.ok() ? "end" : event.status().ToString());
      return out;
    }
  }
  ADD_FAILURE() << "no end after the writer closed";
  return out;
}

TEST(FrameMutationTest, BothTransportsAgreeOnEveryMutatedStream) {
  constexpr uint64_t kCases = 1000;
  size_t disagreements = 0;
  size_t frames = 0;
  size_t errors = 0;
  for (uint64_t c = 0; c < kCases; ++c) {
    Rng rng = Rng(20261017).Substream(c);
    std::string stream;
    std::vector<size_t> starts;
    for (uint64_t f = 0; f < 4; ++f) {  // plain, ranged, sequenced, both
      WireEncodeOptions options;
      options.include_user_range = f % 2 == 1;
      if (f >= 2) options.sequence = WireSequence{7, f - 1};
      starts.push_back(stream.size());
      stream += *EncodeReportBatch(
          RandomBatch(rng, rng.UniformUint64(4), 100 * f), options);
    }
    Mutate(rng, starts, &stream);
    const Outcome from_istream = ReadFromIstream(stream);
    const Outcome from_socket = ReadFromSocket(stream, rng.Substream(1));
    if (from_socket != from_istream && ++disagreements <= 3) {
      ADD_FAILURE() << "case " << c << ": istream ended '"
                    << from_istream.back() << "', socket '"
                    << from_socket.back() << "'";
    }
    if (from_istream.back() != "end") ++errors;
    for (size_t f = 0; f + 1 < from_istream.size(); ++f, ++frames) {
      const std::string& frame = from_istream[f];
      auto info = PeekFrameHeader(frame);
      ASSERT_TRUE(info.ok()) << info.status();
      EXPECT_EQ(info->frame_bytes, frame.size());
      (void)DecodeReportBatch(frame);
      (void)PeekSequence(frame);
      (void)PeekUserRange(frame);
      (void)VerifyFrameChecksum(frame);
    }
  }
  EXPECT_EQ(disagreements, 0u) << "of " << kCases << " cases";
  EXPECT_GT(frames, kCases);  // the harness is live: frames get through
  EXPECT_GT(errors, 0u);
}

}  // namespace
}  // namespace trajldp::io
