#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/aligned_arena.h"
#include "common/bounded_queue.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/status_or.h"
#include "common/table_printer.h"

namespace trajldp {
namespace {

// ---------- Status ----------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  const Status st = Status::InvalidArgument("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, EachCodeHasDistinctName) {
  std::set<std::string_view> names;
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kResourceExhausted, StatusCode::kInternal,
        StatusCode::kUnimplemented}) {
    names.insert(StatusCodeName(code));
  }
  EXPECT_EQ(names.size(), 8u);
}

TEST(StatusTest, StreamOperator) {
  std::ostringstream os;
  os << Status::NotFound("x");
  EXPECT_EQ(os.str(), "NotFound: x");
}

TEST(StatusTest, GtestPrintsACodeByName) {
  // Without a printer, a failed EXPECT_EQ on two codes shows their bytes.
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kResourceExhausted, StatusCode::kInternal,
        StatusCode::kUnimplemented}) {
    EXPECT_EQ(::testing::PrintToString(code), StatusCodeName(code));
  }
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::Ok();
}

Status UsesReturnNotOk(int x) {
  TRAJLDP_RETURN_NOT_OK(FailIfNegative(x));
  return Status::Ok();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(UsesReturnNotOk(1).ok());
  EXPECT_EQ(UsesReturnNotOk(-1).code(), StatusCode::kInvalidArgument);
}

// ---------- StatusOr ----------

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> so(42);
  ASSERT_TRUE(so.ok());
  EXPECT_EQ(*so, 42);
  EXPECT_EQ(so.value_or(0), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> so(Status::NotFound("missing"));
  ASSERT_FALSE(so.ok());
  EXPECT_EQ(so.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(so.value_or(-7), -7);
}

TEST(StatusOrTest, OkStatusBecomesInternalError) {
  StatusOr<int> so(Status::Ok());
  EXPECT_FALSE(so.ok());
  EXPECT_EQ(so.status().code(), StatusCode::kInternal);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> so(std::make_unique<int>(5));
  ASSERT_TRUE(so.ok());
  std::unique_ptr<int> owned = std::move(so).value();
  EXPECT_EQ(*owned, 5);
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, SplitDecorrelatesStreams) {
  Rng parent(7);
  Rng child = parent.Split();
  // The child stream should not replay the parent's stream.
  Rng parent_copy(7);
  parent_copy.Split();
  EXPECT_EQ(parent.NextUint64(), parent_copy.NextUint64());
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.NextUint64() == parent.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(6);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(RngTest, UniformUint64Unbiased) {
  // Mean of U{0..9} should be near 4.5.
  Rng rng(8);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.UniformUint64(10));
  EXPECT_NEAR(sum / n, 4.5, 0.05);
}

// ---------- Rng rejection primitives ----------

// The xoshiro256++ step lives in the header; these words pin it, so that
// no move or rewrite of the step can change a single draw.
TEST(RngRejectionTest, NextUint64WordsArePinned) {
  Rng rng(42);
  EXPECT_EQ(rng.NextUint64(), 0xD0764D4F4476689FULL);
  EXPECT_EQ(rng.NextUint64(), 0x519E4174576F3791ULL);
  EXPECT_EQ(rng.NextUint64(), 0xFBE07CFB0C24ED8CULL);
  EXPECT_EQ(rng.NextUint64(), 0xB37D9F600CD835B8ULL);
  Rng other(7);
  EXPECT_EQ(other.UniformUint64(1000), 661u);
  EXPECT_EQ(other.UniformUint64((uint64_t{1} << 63) + 1),
            4013571156380768369ULL);
}

// UniformUint64 against its definition: raw words below 2^64 mod bound
// are rejected and the first accepted word is reduced modulo the bound.
TEST(RngRejectionTest, UniformEqualsAcceptedWordModuloBound) {
  const uint64_t bounds[] = {1,
                             2,
                             3,
                             1000,
                             (uint64_t{1} << 32) + 1,
                             (uint64_t{1} << 63) + 1,
                             ~uint64_t{0}};
  for (const uint64_t bound : bounds) {
    const uint64_t threshold = (0ULL - bound) % bound;
    Rng uniform(bound), raw(bound);
    size_t raw_words = 0;
    constexpr int kDraws = 2000;
    for (int i = 0; i < kDraws; ++i) {
      uint64_t word;
      do {
        word = raw.NextUint64();
        ++raw_words;
      } while (word < threshold);
      ASSERT_EQ(uniform.UniformUint64(bound), word % bound)
          << "bound " << bound << " draw " << i;
    }
    // Both generators end in the same state.
    EXPECT_EQ(raw.NextUint64(), uniform.NextUint64()) << "bound " << bound;
    if (bound == (uint64_t{1} << 63) + 1) {
      // Half of all raw words fall below this threshold: the retry
      // branch ran.
      EXPECT_GT(raw_words, static_cast<size_t>(kDraws) * 3 / 2);
    }
  }
}

TEST(RngTest, GumbelMoments) {
  // Gumbel(0,1): mean = Euler–Mascheroni γ ≈ 0.5772, var = π²/6.
  Rng rng(9);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gumbel();
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5772, 0.02);
  EXPECT_NEAR(var, M_PI * M_PI / 6.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(10);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 3.0, 0.03);
  EXPECT_NEAR(sq / n - mean * mean, 4.0, 0.1);
}

TEST(RngTest, BernoulliEdgesAndRate) {
  Rng rng(12);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(13);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const size_t k = rng.Discrete(weights);
    ASSERT_LT(k, 3u);
    ++counts[k];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.01);
}

TEST(RngTest, DiscreteDegenerateInputs) {
  Rng rng(14);
  EXPECT_EQ(rng.Discrete({}), 0u);  // empty → size() == 0
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_EQ(rng.Discrete(zeros), zeros.size());
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(15);
  const auto perm = rng.Permutation(50);
  std::set<size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

// ---------- math_util ----------

TEST(MathUtilTest, LogSumExpMatchesDirect) {
  const std::vector<double> xs = {0.1, -2.0, 3.5};
  double direct = 0.0;
  for (double x : xs) direct += std::exp(x);
  EXPECT_NEAR(LogSumExp(xs), std::log(direct), 1e-12);
}

TEST(MathUtilTest, LogSumExpStableForLargeInputs) {
  const std::vector<double> xs = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(xs), 1000.0 + std::log(2.0), 1e-9);
  EXPECT_TRUE(std::isinf(LogSumExp({})));
}

TEST(MathUtilTest, SoftmaxSumsToOne) {
  const auto probs = Softmax({1.0, 2.0, 3.0});
  double sum = 0.0;
  for (double p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_LT(probs[0], probs[1]);
  EXPECT_LT(probs[1], probs[2]);
}

TEST(MathUtilTest, MeanAndStdDev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(StdDev(xs), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({1.0}), 0.0);
}

TEST(MathUtilTest, ZipfWeightsDecreasing) {
  const auto w = ZipfWeights(5, 1.0);
  ASSERT_EQ(w.size(), 5u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  for (size_t i = 1; i < w.size(); ++i) EXPECT_LT(w[i], w[i - 1]);
}

TEST(MathUtilTest, Clamp) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

// ---------- TablePrinter ----------

TEST(TablePrinterTest, AlignsAndPads) {
  TablePrinter table({"name", "value"});
  table.AddRow({"x", "1.00"});
  table.AddRow({"longer-name"});  // missing cell renders empty
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter table({"a", "b"});
  table.AddRow({"1", "2"});
  std::ostringstream os;
  table.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TablePrinterTest, FmtPrecision) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(2.0, 0), "2");
}

// ---------- BoundedQueue ----------

TEST(BoundedQueueTest, FifoOrderSingleThread) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  EXPECT_TRUE(queue.Push(3));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_EQ(queue.Pop(), 2);
  EXPECT_EQ(queue.Pop(), 3);
}

TEST(BoundedQueueTest, ZeroCapacityPromotedToOne) {
  BoundedQueue<int> queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  int item = 1;
  EXPECT_EQ(queue.TryPush(item), QueuePushResult::kOk);
  EXPECT_EQ(queue.TryPush(item), QueuePushResult::kFull);
}

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
  BoundedQueue<int> queue(2);
  int items[] = {1, 2, 3};
  EXPECT_EQ(queue.TryPush(items[0]), QueuePushResult::kOk);
  EXPECT_EQ(queue.TryPush(items[1]), QueuePushResult::kOk);
  EXPECT_EQ(queue.TryPush(items[2]), QueuePushResult::kFull);
  (void)queue.Pop();
  EXPECT_EQ(queue.TryPush(items[2]), QueuePushResult::kOk);
}

TEST(BoundedQueueTest, CloseDrainsThenSignalsEnd) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(7));
  queue.Close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.Push(8));        // rejected after close
  EXPECT_EQ(queue.Pop(), 7);          // still drains
  EXPECT_EQ(queue.Pop(), std::nullopt);
  EXPECT_EQ(queue.Pop(), std::nullopt);  // idempotent
}

TEST(BoundedQueueTest, PushBlocksUntilConsumerMakesRoom) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.Push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(2));  // blocks until the pop below
    second_pushed.store(true);
  });
  // The producer cannot finish while the queue is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  EXPECT_EQ(queue.Pop(), 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(queue.Pop(), 2);
}

TEST(BoundedQueueTest, CloseUnblocksWaitingProducerAndConsumer) {
  BoundedQueue<int> full(1);
  ASSERT_TRUE(full.Push(1));
  std::thread producer([&] { EXPECT_FALSE(full.Push(2)); });
  BoundedQueue<int> empty(1);
  std::thread consumer([&] { EXPECT_EQ(empty.Pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  full.Close();
  empty.Close();
  producer.join();
  consumer.join();
}

TEST(BoundedQueueTest, TryPushOnFullQueueKeepsItem) {
  BoundedQueue<std::string> queue(1);
  ASSERT_TRUE(queue.Push("first"));
  std::string item = "second";
  EXPECT_EQ(queue.TryPush(item), QueuePushResult::kFull);
  EXPECT_EQ(item, "second");  // the caller keeps the item to retry
  EXPECT_EQ(queue.size(), 1u);
  // After the consumer makes room, the very same item goes through.
  EXPECT_EQ(queue.Pop(), "first");
  EXPECT_EQ(queue.TryPush(item), QueuePushResult::kOk);
  EXPECT_EQ(queue.Pop(), "second");
}

TEST(BoundedQueueTest, TryPushReportsClosedNotFull) {
  BoundedQueue<int> queue(1);
  queue.Close();
  int item = 3;
  EXPECT_EQ(queue.TryPush(item), QueuePushResult::kClosed);
}

TEST(BoundedQueueTest, ManyProducersOneConsumerDeliverEverything) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  BoundedQueue<int> queue(3);  // deliberately tiny: forces backpressure
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(queue.Push(p * kPerProducer + i));
      }
    });
  }
  std::thread closer([&] {
    for (auto& t : producers) t.join();
    queue.Close();
  });
  std::set<int> received;
  while (auto item = queue.Pop()) received.insert(*item);
  closer.join();
  EXPECT_EQ(received.size(),
            static_cast<size_t>(kProducers * kPerProducer));
}

// ---------- AlignedArena ----------

TEST(AlignedArenaTest, BytesForRoundsUpToWholeCacheLines) {
  EXPECT_EQ(AlignedArena::BytesFor<double>(0), 0u);
  EXPECT_EQ(AlignedArena::BytesFor<double>(1), AlignedArena::kAlign);
  EXPECT_EQ(AlignedArena::BytesFor<double>(8), AlignedArena::kAlign);
  EXPECT_EQ(AlignedArena::BytesFor<double>(9), 2 * AlignedArena::kAlign);
  EXPECT_EQ(AlignedArena::BytesFor<int32_t>(16), AlignedArena::kAlign);
  EXPECT_EQ(AlignedArena::BytesFor<int32_t>(17), 2 * AlignedArena::kAlign);
}

TEST(AlignedArenaTest, EveryCarveStartsOnItsOwnCacheLine) {
  AlignedArena arena;
  arena.Reset(AlignedArena::BytesFor<double>(3) +
              AlignedArena::BytesFor<int32_t>(5) +
              AlignedArena::BytesFor<double>(100));
  double* a = arena.Carve<double>(3);
  int32_t* b = arena.Carve<int32_t>(5);
  double* c = arena.Carve<double>(100);
  for (void* p : {static_cast<void*>(a), static_cast<void*>(b),
                  static_cast<void*>(c)}) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % AlignedArena::kAlign, 0u);
  }
  // Carves are laid out back to back in rounded units and are disjoint.
  EXPECT_EQ(reinterpret_cast<unsigned char*>(b),
            reinterpret_cast<unsigned char*>(a) +
                AlignedArena::BytesFor<double>(3));
  EXPECT_EQ(reinterpret_cast<unsigned char*>(c),
            reinterpret_cast<unsigned char*>(b) +
                AlignedArena::BytesFor<int32_t>(5));
  EXPECT_EQ(arena.used(), arena.capacity());
}

TEST(AlignedArenaTest, CarvedMemoryIsWritableAcrossTheWholeSpan) {
  AlignedArena arena;
  arena.Reset(AlignedArena::BytesFor<double>(1000));
  double* data = arena.Carve<double>(1000);
  for (size_t i = 0; i < 1000; ++i) data[i] = static_cast<double>(i);
  for (size_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(data[i], static_cast<double>(i));
  }
}

TEST(AlignedArenaTest, ResetReusesStorageGrowOnly) {
  AlignedArena arena;
  arena.Reset(AlignedArena::BytesFor<double>(64));
  (void)arena.Carve<double>(64);
  EXPECT_EQ(arena.used(), AlignedArena::BytesFor<double>(64));

  // A smaller Reset keeps the high-water buffer but re-arms the bump
  // pointer; the carve is aligned and usable again.
  arena.Reset(AlignedArena::BytesFor<double>(8));
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.capacity(), AlignedArena::BytesFor<double>(8));
  double* again = arena.Carve<double>(8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(again) % AlignedArena::kAlign, 0u);
  again[7] = 1.5;
  EXPECT_EQ(again[7], 1.5);
}

}  // namespace
}  // namespace trajldp
