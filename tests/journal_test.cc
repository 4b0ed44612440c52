// FrameJournal durability semantics: recovery of torn and corrupt
// tails, replay order, fsync policies. The property that matters for
// exactly-once ingest: whatever a crash leaves on disk, Open() recovers
// EXACTLY the prefix of complete records, with a clean Status.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/journal.h"
#include "io/wire.h"

namespace trajldp::io {
namespace {

namespace fs = std::filesystem;

struct Record {
  uint64_t stream_id;
  uint64_t seq;
  std::string payload;
};

std::string TempPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

// On-disk record size: 24-byte header + payload + 4-byte CRC.
size_t RecordBytes(const Record& record) {
  return 24 + record.payload.size() + 4;
}

std::vector<Record> ThreeRecords() {
  return {{1, 1, "frame-one-payload"},
          {1, 2, "frame-two-which-is-a-bit-longer"},
          {2, 1, "frame-three"}};
}

void WriteJournal(const std::string& path, const std::vector<Record>& records,
                  FrameJournal::Options options = {}) {
  fs::remove(path);
  auto journal = FrameJournal::Open(path, options);
  ASSERT_TRUE(journal.ok()) << journal.status();
  for (const Record& record : records) {
    ASSERT_TRUE(
        journal->Append(record.stream_id, record.seq, record.payload).ok());
  }
  ASSERT_TRUE(journal->Close().ok());
}

std::vector<Record> ReplayAll(const FrameJournal& journal) {
  std::vector<Record> out;
  EXPECT_TRUE(journal
                  .Replay([&](uint64_t stream_id, uint64_t seq,
                              std::string_view frame) {
                    out.push_back(
                        Record{stream_id, seq, std::string(frame)});
                    return Status::Ok();
                  })
                  .ok());
  return out;
}

void ExpectSameRecords(const std::vector<Record>& got,
                       const std::vector<Record>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].stream_id, want[i].stream_id) << "record " << i;
    EXPECT_EQ(got[i].seq, want[i].seq) << "record " << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << "record " << i;
  }
}

TEST(JournalTest, NewFileOpensEmpty) {
  const std::string path = TempPath("journal_new.log");
  fs::remove(path);
  auto journal = FrameJournal::Open(path, {});
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_EQ(journal->recovery_info().records, 0u);
  EXPECT_EQ(journal->recovery_info().truncated_bytes, 0u);
  EXPECT_EQ(journal->records(), 0u);
  EXPECT_TRUE(ReplayAll(*journal).empty());
}

TEST(JournalTest, RoundTripAcrossReopen) {
  const std::string path = TempPath("journal_roundtrip.log");
  const auto records = ThreeRecords();
  WriteJournal(path, records);

  auto journal = FrameJournal::Open(path, {});
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_EQ(journal->recovery_info().records, 3u);
  EXPECT_EQ(journal->recovery_info().truncated_bytes, 0u);
  ExpectSameRecords(ReplayAll(*journal), records);

  // The recovered journal accepts appends; a further reopen sees both.
  ASSERT_TRUE(journal->Append(3, 7, "appended-after-recovery").ok());
  ASSERT_TRUE(journal->Close().ok());
  auto reopened = FrameJournal::Open(path, {});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->records(), 4u);
}

// The satellite property sweep: truncate the journal at EVERY byte
// offset of the final record (from "header missing entirely" to "one
// byte of CRC missing"). Recovery must always yield exactly the two
// complete records, with a clean Status, and leave the file ending at
// the valid prefix so later appends are well-formed.
TEST(JournalTest, TornTailRecoveryAtEveryByteOffset) {
  const std::string path = TempPath("journal_torn_master.log");
  const auto records = ThreeRecords();
  WriteJournal(path, records);
  const uint64_t full = fs::file_size(path);
  const uint64_t prefix2 = full - RecordBytes(records[2]);

  const std::string torn = TempPath("journal_torn_case.log");
  for (uint64_t cut = prefix2; cut <= full; ++cut) {
    fs::remove(torn);
    fs::copy_file(path, torn);
    fs::resize_file(torn, cut);

    auto journal = FrameJournal::Open(torn, {});
    ASSERT_TRUE(journal.ok()) << "cut at " << cut << ": "
                              << journal.status();
    const size_t expected = cut == full ? 3u : 2u;
    EXPECT_EQ(journal->recovery_info().records, expected)
        << "cut at " << cut;
    EXPECT_EQ(journal->recovery_info().valid_bytes,
              cut == full ? full : prefix2)
        << "cut at " << cut;
    EXPECT_EQ(journal->recovery_info().truncated_bytes,
              cut == full ? 0u : cut - prefix2)
        << "cut at " << cut;
    ExpectSameRecords(
        ReplayAll(*journal),
        std::vector<Record>(records.begin(), records.begin() + expected));

    // Appending over the recovered tail must produce a valid journal.
    ASSERT_TRUE(journal->Append(9, 1, "post-recovery").ok());
    ASSERT_TRUE(journal->Close().ok());
    auto reopened = FrameJournal::Open(torn, {});
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened->records(), expected + 1) << "cut at " << cut;
    EXPECT_EQ(reopened->recovery_info().truncated_bytes, 0u)
        << "cut at " << cut;
  }
}

TEST(JournalTest, CorruptTailByteDropsOnlyThatRecord) {
  const std::string path = TempPath("journal_corrupt_tail.log");
  const auto records = ThreeRecords();
  WriteJournal(path, records);
  const uint64_t full = fs::file_size(path);
  const uint64_t prefix2 = full - RecordBytes(records[2]);

  // Flip one payload byte of the final record: length intact, CRC not.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(prefix2 + 24 + 2));
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(prefix2 + 24 + 2));
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(prefix2 + 24 + 2));
    file.put(static_cast<char>(byte ^ 0x40));
  }
  auto journal = FrameJournal::Open(path, {});
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_EQ(journal->recovery_info().records, 2u);
  EXPECT_EQ(journal->recovery_info().truncated_bytes,
            full - prefix2);
  ExpectSameRecords(ReplayAll(*journal),
                    {records.begin(), records.begin() + 2});
}

TEST(JournalTest, MidFileCorruptionKeepsOnlyThePrecedingPrefix) {
  // Standard WAL semantics: a bad record ENDS the durable extent even
  // when later bytes happen to parse — nothing after the first bad
  // record is trusted or replayed.
  const std::string path = TempPath("journal_corrupt_mid.log");
  const auto records = ThreeRecords();
  WriteJournal(path, records);
  const uint64_t prefix1 = RecordBytes(records[0]);

  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(prefix1 + 24));  // record 1 payload
    file.put('X');
  }
  auto journal = FrameJournal::Open(path, {});
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_EQ(journal->recovery_info().records, 1u);
  ExpectSameRecords(ReplayAll(*journal),
                    {records.begin(), records.begin() + 1});
  EXPECT_EQ(fs::file_size(path), prefix1);
}

TEST(JournalTest, SyncPoliciesAllPersist) {
  for (const auto sync : {FrameJournal::SyncPolicy::kEveryRecord,
                          FrameJournal::SyncPolicy::kEveryBytes}) {
    const std::string path = TempPath(
        "journal_sync_" +
        std::to_string(static_cast<int>(sync)) + ".log");
    FrameJournal::Options options;
    options.sync = sync;
    options.sync_every_bytes = 64;  // trip the byte policy mid-run
    const auto records = ThreeRecords();
    WriteJournal(path, records, options);
    auto journal = FrameJournal::Open(path, {});
    ASSERT_TRUE(journal.ok());
    ExpectSameRecords(ReplayAll(*journal), records);
  }
}

// ---------- compaction ----------

TEST(JournalCompactTest, DropsThroughWatermarkWritesMarkerKeepsLiveSuffix) {
  const std::string path = TempPath("journal_compact_basic.log");
  fs::remove(path);
  auto journal = FrameJournal::Open(path, {});
  ASSERT_TRUE(journal.ok()) << journal.status();
  // Stream 1: seqs 1..4; stream 2: seq 1. Watermark stream 1 at 3.
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    ASSERT_TRUE(
        journal->Append(1, seq, "s1-frame-" + std::to_string(seq)).ok());
  }
  ASSERT_TRUE(journal->Append(2, 1, "s2-frame-1").ok());

  auto info = journal->Compact({{1, 3}});
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->records_dropped, 3u);  // stream 1 seqs 1..3
  EXPECT_EQ(info->records_kept, 2u);     // stream 1 seq 4, stream 2 seq 1
  EXPECT_EQ(info->markers_written, 1u);
  EXPECT_GT(info->bytes_before, info->bytes_after);
  EXPECT_EQ(journal->compactions(), 1u);
  EXPECT_EQ(journal->valid_bytes(), info->bytes_after);

  // Replay order: markers first (empty payload, seq = watermark), then
  // the kept records in their original append order.
  const auto replayed = ReplayAll(*journal);
  ExpectSameRecords(replayed,
                    {{1, 3, ""}, {1, 4, "s1-frame-4"}, {2, 1, "s2-frame-1"}});
}

TEST(JournalCompactTest, KeepsUnsequencedRecordsAndUnnamedStreams) {
  const std::string path = TempPath("journal_compact_keep.log");
  fs::remove(path);
  auto journal = FrameJournal::Open(path, {});
  ASSERT_TRUE(journal.ok()) << journal.status();
  ASSERT_TRUE(journal->Append(1, 1, "s1-acked").ok());
  ASSERT_TRUE(journal->Append(0, 0, "raw-unsequenced").ok());
  ASSERT_TRUE(journal->Append(7, 2, "s7-no-watermark").ok());

  auto info = journal->Compact({{1, 1}});
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->records_dropped, 1u);
  // seq == 0 (never acked, replay feeds it back raw) and streams absent
  // from the watermark map must survive verbatim.
  ExpectSameRecords(ReplayAll(*journal),
                    {{1, 1, ""}, {0, 0, "raw-unsequenced"},
                     {7, 2, "s7-no-watermark"}});
}

TEST(JournalCompactTest, SurvivesReopenAndAcceptsAppends) {
  const std::string path = TempPath("journal_compact_reopen.log");
  fs::remove(path);
  {
    auto journal = FrameJournal::Open(path, {});
    ASSERT_TRUE(journal.ok()) << journal.status();
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(journal->Append(5, seq, "frame-" + std::to_string(seq)).ok());
    }
    ASSERT_TRUE(journal->Compact({{5, 2}}).ok());
    // The compacted journal is a normal journal: appends keep working.
    ASSERT_TRUE(journal->Append(5, 4, "frame-4").ok());
    ASSERT_TRUE(journal->Close().ok());
  }
  // The rename was durable: a fresh Open sees marker + live suffix +
  // post-compaction appends, with no torn tail.
  auto reopened = FrameJournal::Open(path, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->recovery_info().truncated_bytes, 0u);
  ExpectSameRecords(ReplayAll(*reopened),
                    {{5, 2, ""}, {5, 3, "frame-3"}, {5, 4, "frame-4"}});
}

TEST(JournalCompactTest, LeavesNoTempFileAndSkipsZeroWatermarks) {
  const std::string path = TempPath("journal_compact_tmp.log");
  fs::remove(path);
  auto journal = FrameJournal::Open(path, {});
  ASSERT_TRUE(journal.ok()) << journal.status();
  ASSERT_TRUE(journal->Append(1, 1, "only-frame").ok());

  auto info = journal->Compact({{1, 0}, {9, 0}});
  ASSERT_TRUE(info.ok()) << info.status();
  // A zero watermark licenses nothing: no marker, nothing dropped.
  EXPECT_EQ(info->markers_written, 0u);
  EXPECT_EQ(info->records_dropped, 0u);
  ExpectSameRecords(ReplayAll(*journal), {{1, 1, "only-frame"}});
  EXPECT_FALSE(fs::exists(path + ".compact"));
}

TEST(JournalCompactTest, DoesNotAdvanceTheFaultByteMeter) {
  // The crash harness arms fault_kill_after_bytes to die mid-APPEND;
  // compaction rewriting the whole file must not count against that
  // meter, or a compacting server would die at an uncontrolled point.
  const std::string path = TempPath("journal_compact_fault.log");
  fs::remove(path);
  FrameJournal::Options options;
  options.fault_kill_after_bytes = 1u << 20;  // far beyond these appends
  auto journal = FrameJournal::Open(path, options);
  ASSERT_TRUE(journal.ok()) << journal.status();
  for (uint64_t seq = 1; seq <= 8; ++seq) {
    ASSERT_TRUE(journal->Append(1, seq, std::string(100, 'x')).ok());
  }
  // Each compaction rewrites ~the full extent; ten of them would blow
  // well past the meter if rewrite bytes counted as appends.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(journal->Compact({}).ok());  // nothing dropped, full rewrite
  }
  ASSERT_TRUE(journal->Append(1, 9, "still-alive").ok());
  EXPECT_EQ(journal->records(), 9u);
}

TEST(JournalTest, OversizedLengthFieldTreatedAsCorruption) {
  const std::string path = TempPath("journal_hostile_len.log");
  const auto records = ThreeRecords();
  WriteJournal(path, records);
  const uint64_t prefix2 =
      fs::file_size(path) - RecordBytes(records[2]);
  {
    // Declare a ~4 GiB payload in the last record's length field: the
    // scan must reject it from the header, never sizing a buffer.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(prefix2 + 4));
    for (int i = 0; i < 4; ++i) file.put(static_cast<char>(0xFF));
  }
  auto journal = FrameJournal::Open(path, {});
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_EQ(journal->recovery_info().records, 2u);
}

// ---------- seeded mutation of recovery ----------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Whatever one mutation does to a journal — a flipped bit, a truncation,
// a spliced length field, a deleted byte — Open() must succeed, keep
// exactly the records that end before the first damaged byte, cut the
// file to them, and leave nothing for a second Open() to truncate.
TEST(JournalMutationTest, OpenKeepsLongestValidPrefix) {
  // The recovery scan's payload bound: one complete wire frame.
  constexpr uint64_t kLimit =
      kWireHeaderBytes + kWireMaxPayloadBytes + kWireTrailerBytes;
  const uint64_t kSplices[] = {0, 1, kLimit - 1, kLimit, kLimit + 1,
                               0xFFFFFFFFu};
  const std::string master = TempPath("journal_mutation_master.log");
  const std::string path = TempPath("journal_mutation_case.log");
  // Only Close() fsyncs: a thousand cases stay fast.
  FrameJournal::Options quiet;
  quiet.sync = FrameJournal::SyncPolicy::kEveryBytes;
  quiet.sync_every_bytes = std::numeric_limits<size_t>::max();

  for (uint64_t seed = 0; seed < 1000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Sequenced and unsequenced (seq 0) records around one compaction
    // marker: an empty payload carrying its stream's high-water mark.
    const size_t count = 2 + rng.UniformUint64(6);
    const size_t marker = rng.UniformUint64(count);
    std::vector<Record> records;
    std::vector<uint64_t> ends;  // end offset of each record
    uint64_t next_seq = 1;
    for (size_t i = 0; i < count; ++i) {
      Record record{1 + rng.UniformUint64(3), 0, ""};
      if (i == marker || rng.UniformUint64(3) != 0) record.seq = next_seq++;
      if (i != marker) {
        record.payload.resize(1 + rng.UniformUint64(40));
        for (char& c : record.payload) {
          c = static_cast<char>(rng.UniformUint64(256));
        }
      }
      ends.push_back((ends.empty() ? 0 : ends.back()) + RecordBytes(record));
      records.push_back(std::move(record));
    }
    WriteJournal(master, records, quiet);
    const std::string original = ReadFile(master);
    ASSERT_EQ(original.size(), ends.back());

    std::string mutated = original;
    switch (rng.UniformUint64(4)) {
      case 0:  // flip one bit
        mutated[rng.UniformUint64(mutated.size())] ^=
            static_cast<char>(1u << rng.UniformUint64(8));
        break;
      case 1:  // truncate
        mutated.resize(rng.UniformUint64(mutated.size()));
        break;
      case 2: {  // splice one record's payload-length field
        const size_t k = rng.UniformUint64(count);
        const size_t choice = rng.UniformUint64(std::size(kSplices) + 1);
        const uint64_t value = choice < std::size(kSplices)
                                   ? kSplices[choice]
                                   : rng.UniformUint64(uint64_t{1} << 32);
        const size_t field = (k == 0 ? 0 : ends[k - 1]) + 4;
        for (int b = 0; b < 4; ++b) {
          mutated[field + b] = static_cast<char>((value >> (8 * b)) & 0xFF);
        }
        break;
      }
      default:  // delete one byte
        mutated.erase(rng.UniformUint64(mutated.size()), 1);
        break;
    }
    // The first damaged byte: where the mutated file first differs from
    // the original, or where the shorter of the two ends.
    const size_t common = std::min(original.size(), mutated.size());
    const size_t damaged =
        std::mismatch(original.begin(), original.begin() + common,
                      mutated.begin())
            .first -
        original.begin();
    size_t survivors = 0;
    while (survivors < count && ends[survivors] <= damaged) ++survivors;
    const uint64_t valid = survivors == 0 ? 0 : ends[survivors - 1];
    const std::vector<Record> kept(records.begin(),
                                   records.begin() + survivors);

    WriteFile(path, mutated);
    {
      auto journal = FrameJournal::Open(path, quiet);
      ASSERT_TRUE(journal.ok()) << journal.status();
      EXPECT_EQ(journal->recovery_info().records, survivors);
      EXPECT_EQ(journal->recovery_info().valid_bytes, valid);
      EXPECT_EQ(journal->recovery_info().truncated_bytes,
                mutated.size() - valid);
      EXPECT_EQ(fs::file_size(path), valid);
      ExpectSameRecords(ReplayAll(*journal), kept);
    }
    auto reopened = FrameJournal::Open(path, quiet);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(reopened->records(), survivors);
    EXPECT_EQ(reopened->recovery_info().truncated_bytes, 0u);
    ExpectSameRecords(ReplayAll(*reopened), kept);
  }
}

}  // namespace
}  // namespace trajldp::io
