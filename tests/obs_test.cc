#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/socket.h"
#include "obs/admin_server.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/snapshot_writer.h"

namespace trajldp::obs {
namespace {

bool WaitFor(const std::function<bool()>& condition,
             std::chrono::seconds timeout = std::chrono::seconds(30)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!condition()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// ------------------------------------------------------------ registry

TEST(MetricsRegistryTest, GetIsIdempotentPerNameAndLabels) {
  Registry registry;
  Counter* a = registry.GetCounter("frames_total", "frames");
  Counter* b = registry.GetCounter("frames_total", "frames");
  EXPECT_EQ(a, b);
  Counter* shard0 =
      registry.GetCounter("frames_total", "frames", {{"shard", "0"}});
  EXPECT_NE(a, shard0);
  EXPECT_EQ(registry.num_metrics(), 2u);
}

TEST(MetricsRegistryTest, LabelsAreCanonicalizedByKey) {
  Registry registry;
  Counter* a = registry.GetCounter("c_total", "help",
                                   {{"b", "2"}, {"a", "1"}});
  Counter* b = registry.GetCounter("c_total", "help",
                                   {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.num_metrics(), 1u);
}

TEST(MetricsRegistryTest, TypeConflictReturnsBlackhole) {
  Registry registry;
  Counter* counter = registry.GetCounter("x", "first registration wins");
  counter->Add(7);
  // Same name, different type: a usable (non-null) instrument whose
  // writes vanish — a telemetry name clash must never crash a server.
  Gauge* gauge = registry.GetGauge("x", "conflicting");
  ASSERT_NE(gauge, nullptr);
  gauge->Set(123.0);
  RegistrySnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.metrics.size(), 1u);
  EXPECT_EQ(snapshot.metrics[0].type, MetricType::kCounter);
  EXPECT_DOUBLE_EQ(snapshot.metrics[0].value, 7.0);
}

TEST(MetricsRegistryTest, HistogramBoundsConflictReturnsBlackhole) {
  Registry registry;
  Histogram* first = registry.GetHistogram("h", "help", {1.0, 2.0});
  // Equal bounds in any order are the same series...
  Histogram* same = registry.GetHistogram("h", "help", {2.0, 1.0});
  EXPECT_EQ(first, same);
  // ...different bounds are a conflict: observations must not land in
  // the wrong buckets, so they land nowhere.
  Histogram* conflict = registry.GetHistogram("h", "help", {1.0, 2.0, 3.0});
  ASSERT_NE(conflict, nullptr);
  EXPECT_NE(conflict, first);
  conflict->Observe(1.5);
  const RegistrySnapshot snapshot = registry.Snapshot();
  const MetricSnapshot* m = snapshot.Find("h");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 0u);
}

// ----------------------------------------------------------- histogram

TEST(MetricsHistogramTest, BucketBoundsAreInclusiveUpperBounds) {
  Histogram hist({1.0, 2.0, 5.0});
  hist.Observe(0.0);   // <= 1   -> bucket 0
  hist.Observe(1.0);   // == 1   -> bucket 0 (le is inclusive)
  hist.Observe(1.001); // <= 2   -> bucket 1
  hist.Observe(2.0);   // == 2   -> bucket 1
  hist.Observe(5.0);   // == 5   -> bucket 2
  hist.Observe(5.001); // > 5    -> +Inf overflow
  const std::vector<std::uint64_t> buckets = hist.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(hist.Count(), 6u);
  EXPECT_DOUBLE_EQ(hist.Sum(), 0.0 + 1.0 + 1.001 + 2.0 + 5.0 + 5.001);
}

TEST(MetricsHistogramTest, BoundsAreSortedAndDeduplicated) {
  Histogram hist({5.0, 1.0, 2.0, 2.0});
  EXPECT_EQ(hist.bounds(), (std::vector<double>{1.0, 2.0, 5.0}));
}

TEST(MetricsHistogramTest, EmptyBoundsFallBackToDefaultLatency) {
  Histogram hist({});
  EXPECT_EQ(hist.bounds(), DefaultLatencyBounds());
}

// --------------------------------------------------------- concurrency

TEST(MetricsConcurrencyTest, SnapshotUnderConcurrentIncrements) {
  Registry registry;
  Counter* counter = registry.GetCounter("spin_total", "concurrent adds");
  Histogram* hist =
      registry.GetHistogram("spin_seconds", "concurrent observes", {0.5});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        counter->Add(1);
        hist->Observe(i % 2 == 0 ? 0.25 : 0.75);
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Scrape while the writers run: every snapshot must be internally
  // sane (never above the final total) and monotonically nondecreasing.
  std::uint64_t last = 0;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  for (int i = 0; i < 50; ++i) {
    const RegistrySnapshot snapshot = registry.Snapshot();
    const MetricSnapshot* m = snapshot.Find("spin_total");
    ASSERT_NE(m, nullptr);
    const auto value = static_cast<std::uint64_t>(m->value);
    EXPECT_GE(value, last);
    EXPECT_LE(value, expected);
    last = value;
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(), expected);
  EXPECT_EQ(hist->Count(), expected);
  const std::vector<std::uint64_t> buckets = hist->BucketCounts();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0], expected / 2);  // 0.25 observations
  EXPECT_EQ(buckets[1], expected / 2);  // 0.75 overflow
}

// --------------------------------------------------------------- merge

TEST(MetricsMergeTest, MergeSumsMatchingSeriesAndUnionsRest) {
  Registry shard0;
  Registry shard1;
  shard0.GetCounter("shared_total", "shared")->Add(5);
  shard1.GetCounter("shared_total", "shared")->Add(7);
  shard0.GetCounter("only0_total", "only shard 0")->Add(1);
  shard1.GetCounter("only1_total", "only shard 1")->Add(2);
  RegistrySnapshot merged = shard0.Snapshot();
  ASSERT_TRUE(merged.MergeFrom(shard1.Snapshot()).ok());
  EXPECT_DOUBLE_EQ(merged.Find("shared_total")->value, 12.0);
  EXPECT_DOUBLE_EQ(merged.Find("only0_total")->value, 1.0);
  EXPECT_DOUBLE_EQ(merged.Find("only1_total")->value, 2.0);
}

TEST(MetricsMergeTest, KShardMergeRendersIdenticallyInAnyOrder) {
  // Three shard registries with overlapping and disjoint series; merging
  // their snapshots in any order must render byte-identically — that is
  // what makes a K-shard scrape deterministic.
  auto build = [](int shard) {
    auto registry = std::make_unique<Registry>();
    registry->GetCounter("frames_total", "frames")->Add(10 + shard);
    registry
        ->GetCounter("per_shard_total", "per shard",
                     {{"shard", std::to_string(shard)}})
        ->Add(shard + 1);
    Histogram* h =
        registry->GetHistogram("lat_seconds", "latency", {0.1, 1.0});
    for (int i = 0; i <= shard; ++i) h->Observe(0.05 + 0.5 * i);
    return registry;
  };
  auto r0 = build(0);
  auto r1 = build(1);
  auto r2 = build(2);

  RegistrySnapshot forward = r0->Snapshot();
  ASSERT_TRUE(forward.MergeFrom(r1->Snapshot()).ok());
  ASSERT_TRUE(forward.MergeFrom(r2->Snapshot()).ok());

  RegistrySnapshot backward = r2->Snapshot();
  ASSERT_TRUE(backward.MergeFrom(r0->Snapshot()).ok());
  ASSERT_TRUE(backward.MergeFrom(r1->Snapshot()).ok());

  EXPECT_EQ(RenderPrometheus(forward), RenderPrometheus(backward));
  EXPECT_DOUBLE_EQ(forward.Find("frames_total")->value, 33.0);
  const MetricSnapshot* lat = forward.Find("lat_seconds");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 6u);  // 1 + 2 + 3 observations
}

TEST(MetricsMergeTest, MergeRejectsTypeConflicts) {
  Registry a;
  Registry b;
  a.GetCounter("x", "counter here")->Add(1);
  b.GetGauge("x", "gauge there")->Set(2.0);
  RegistrySnapshot merged = a.Snapshot();
  EXPECT_FALSE(merged.MergeFrom(b.Snapshot()).ok());
}

TEST(MetricsMergeTest, MergeRejectsHistogramBoundsConflicts) {
  Registry a;
  Registry b;
  a.GetHistogram("h", "help", {1.0})->Observe(0.5);
  b.GetHistogram("h", "help", {2.0})->Observe(0.5);
  RegistrySnapshot merged = a.Snapshot();
  EXPECT_FALSE(merged.MergeFrom(b.Snapshot()).ok());
}

// ---------------------------------------------------------- exposition

TEST(MetricsExpositionTest, EscapesLabelValues) {
  EXPECT_EQ(EscapeLabelValue("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
}

TEST(MetricsExpositionTest, RendersByteExactPrometheusText) {
  Registry registry;
  registry
      .GetCounter("test_counter_total", "Counts things",
                  {{"path", "a\"b\\c\nd"}})
      ->Add(3);
  registry.GetGauge("test_gauge", "A gauge")->Set(2.5);
  Histogram* hist =
      registry.GetHistogram("test_hist_seconds", "A histogram", {0.001, 1.0});
  hist->Observe(0.0005);
  hist->Observe(0.5);
  hist->Observe(2.0);
  const std::string expected =
      "# HELP test_counter_total Counts things\n"
      "# TYPE test_counter_total counter\n"
      "test_counter_total{path=\"a\\\"b\\\\c\\nd\"} 3\n"
      "# HELP test_gauge A gauge\n"
      "# TYPE test_gauge gauge\n"
      "test_gauge 2.5\n"
      "# HELP test_hist_seconds A histogram\n"
      "# TYPE test_hist_seconds histogram\n"
      "test_hist_seconds_bucket{le=\"0.001\"} 1\n"
      "test_hist_seconds_bucket{le=\"1\"} 2\n"
      "test_hist_seconds_bucket{le=\"+Inf\"} 3\n"
      "test_hist_seconds_sum 2.5005\n"
      "test_hist_seconds_count 3\n";
  EXPECT_EQ(RenderPrometheus(registry.Snapshot()), expected);
}

TEST(MetricsExpositionTest, HelpAndTypeEmittedOncePerAdjacentName) {
  Registry registry;
  registry.GetCounter("multi_total", "help", {{"shard", "0"}})->Add(1);
  registry.GetCounter("multi_total", "help", {{"shard", "1"}})->Add(2);
  const std::string text = RenderPrometheus(registry.Snapshot());
  size_t first = text.find("# HELP multi_total");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# HELP multi_total", first + 1), std::string::npos);
  EXPECT_NE(text.find("multi_total{shard=\"0\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("multi_total{shard=\"1\"} 2\n"), std::string::npos);
}

// ---------------------------------------------------------------- hooks

TEST(MetricsHooksTest, HookRefreshesGaugesPerSnapshotUntilRemoved) {
  Registry registry;
  Gauge* depth = registry.GetGauge("depth", "queue depth");
  std::atomic<int> source{17};
  const std::size_t hook = registry.AddHook(
      [&] { depth->Set(static_cast<double>(source.load())); });
  EXPECT_DOUBLE_EQ(registry.Snapshot().Find("depth")->value, 17.0);
  source = 42;
  EXPECT_DOUBLE_EQ(registry.Snapshot().Find("depth")->value, 42.0);
  registry.RemoveHook(hook);
  source = 99;
  // Stale: nothing refreshes the gauge any more.
  EXPECT_DOUBLE_EQ(registry.Snapshot().Find("depth")->value, 42.0);
}

// --------------------------------------------------------- admin server

std::string HttpRequest(uint16_t port, const std::string& request) {
  auto socket = net::TcpConnect("127.0.0.1", port);
  if (!socket.ok()) return "";
  if (!net::SendAll(*socket, request).ok()) return "";
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(socket->fd(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  return response;
}

TEST(AdminServerTest, ServesMetricsAndStatusz) {
  Registry registry;
  registry.GetCounter("demo_total", "demo counter")->Add(4);
  auto server = AdminServer::Start(&registry);
  ASSERT_TRUE(server.ok()) << server.status().message();

  const std::string metrics = HttpRequest(
      (*server)->port(), "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("demo_total 4\n"), std::string::npos);

  const std::string statusz = HttpRequest(
      (*server)->port(), "GET /statusz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(statusz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(statusz.find("application/json"), std::string::npos);
  EXPECT_NE(statusz.find("\"name\":\"demo_total\""), std::string::npos);

  EXPECT_NE(HttpRequest((*server)->port(),
                        "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n")
                .find("404"),
            std::string::npos);
  EXPECT_NE(HttpRequest((*server)->port(),
                        "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
                .find("405"),
            std::string::npos);
  (*server)->Shutdown();
}

TEST(AdminServerTest, ScrapeObservesConcurrentIncrements) {
  Registry registry;
  Counter* counter = registry.GetCounter("live_total", "live");
  auto server = AdminServer::Start(&registry);
  ASSERT_TRUE(server.ok()) << server.status().message();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) counter->Add(1);
  });
  ASSERT_TRUE(WaitFor([&] { return counter->Value() > 1000; }));
  const std::string response = HttpRequest(
      (*server)->port(), "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  stop = true;
  writer.join();
  (*server)->Shutdown();
  // Anchor to the sample line — "live_total " also appears in # HELP.
  const size_t pos = response.find("\nlive_total ");
  ASSERT_NE(pos, std::string::npos);
  // The scraped value parses and is positive.
  const double scraped = std::stod(response.substr(pos + 12));
  EXPECT_GT(scraped, 0.0);
}

// A hook parks the admin loop in a first scrape while a second client
// sends its request and half-closes, so the server reads the request
// and the FIN in one wakeup; the request must still be answered.
TEST(AdminServerTest, AnswersARequestThatArrivesWithItsFin) {
  Registry registry;
  std::atomic<bool> first{true};
  std::promise<void> parked;
  std::promise<void> release;
  std::future<void> released = release.get_future();
  registry.AddHook([&] {
    if (!first.exchange(false)) return;
    parked.set_value();
    released.wait();
  });
  auto server = AdminServer::Start(&registry);
  ASSERT_TRUE(server.ok()) << server.status().message();
  const std::string request = "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n";
  auto first_scrape = net::TcpConnect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(first_scrape.ok() && net::SendAll(*first_scrape, request).ok());
  parked.get_future().wait();
  auto second = net::TcpConnect("127.0.0.1", (*server)->port());
  const bool sent = second.ok() && net::SendAll(*second, request).ok();
  if (sent) second->ShutdownWrite();
  release.set_value();
  ASSERT_TRUE(sent);
  char reply[4096] = {};
  ASSERT_GT(::recv(second->fd(), reply, sizeof(reply) - 1, MSG_WAITALL), 0);
  EXPECT_NE(std::string(reply).find("HTTP/1.1 200 OK"), std::string::npos);
  (*server)->Shutdown();
}

// The answer the admin server owes `request` when it arrives whole and
// is then half-closed: its status code, or 0 for no bytes at all.
int ExpectedStatus(const std::string& request) {
  if (request.size() > 8192) return 400;
  if (request.find("\r\n\r\n") == std::string::npos) return 0;
  const std::string line = request.substr(0, request.find("\r\n"));
  const size_t method_end = line.find(' ');
  if (method_end == std::string::npos) return 400;
  const size_t path_end = line.find(' ', method_end + 1);
  if (path_end == std::string::npos) return 400;
  if (line.substr(0, method_end) != "GET") return 405;
  const std::string path =
      line.substr(method_end + 1, path_end - method_end - 1);
  return path == "/metrics" || path == "/statusz" ? 200 : 404;
}

// One seeded mutation of a valid scrape: flip a bit, truncate, delete a
// byte, insert a delimiter-like byte, or pad a header so the request
// lands within two bytes of the 8 KiB cap.
std::string MutateRequest(Rng& rng, std::string request) {
  switch (rng.UniformUint64(5)) {
    case 0: {
      const size_t at = rng.UniformUint64(request.size());
      const int bit = static_cast<int>(rng.UniformUint64(8));
      request[at] = static_cast<char>(request[at] ^ (1 << bit));
      break;
    }
    case 1:
      request.resize(rng.UniformUint64(request.size()));
      break;
    case 2:
      request.erase(rng.UniformUint64(request.size()), 1);
      break;
    case 3: {
      static constexpr char kBytes[] = {'\r', '\n', ' ', '\0', 'x', '/'};
      const size_t at = rng.UniformUint64(request.size() + 1);
      request.insert(at, 1, kBytes[rng.UniformUint64(sizeof(kBytes))]);
      break;
    }
    default: {
      const size_t target = 8190 + rng.UniformUint64(5);
      const size_t fill = target - request.size() - 9;  // "X-Pad: " + CRLF
      request.insert(request.find("\r\n") + 2,
                     "X-Pad: " + std::string(fill, 'a') + "\r\n");
      break;
    }
  }
  return request;
}

TEST(AdminServerMutationTest, AnswersEveryMutatedScrapeLikeTheReference) {
  Registry registry;
  registry.GetCounter("mutation_total", "mutation counter")->Add(7);
  auto server = AdminServer::Start(&registry);
  ASSERT_TRUE(server.ok()) << server.status().message();
  const uint16_t port = (*server)->port();
  const std::string scrapes[] = {
      "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n",
      "GET /statusz HTTP/1.1\r\nHost: t\r\n\r\n"};
  size_t mismatches = 0;
  std::set<int> seen;
  for (uint64_t c = 0; c < 1000; ++c) {
    Rng rng = Rng(20261017).Substream(c);
    const std::string request =
        MutateRequest(rng, scrapes[rng.UniformUint64(2)]);
    const int expected = ExpectedStatus(request);
    seen.insert(expected);

    auto socket = net::TcpConnect("127.0.0.1", port);
    ASSERT_TRUE(socket.ok()) << socket.status();
    ASSERT_TRUE(net::SendAll(*socket, request).ok());
    socket->ShutdownWrite();
    std::string response;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(socket->fd(), buf, sizeof(buf), 0);
      if (n <= 0) break;
      response.append(buf, static_cast<size_t>(n));
    }

    // Exactly one response, whose Content-Length is its body's length.
    bool ok = false;
    if (expected == 0) {
      ok = response.empty();
    } else {
      const std::string status_line =
          "HTTP/1.1 " + std::to_string(expected) + " ";
      const std::string length_field = "\r\nContent-Length: ";
      const size_t head_end = response.find("\r\n\r\n");
      const size_t length_at = response.find(length_field);
      if (response.starts_with(status_line) &&
          head_end != std::string::npos && length_at < head_end) {
        const size_t length =
            std::stoul(response.substr(length_at + length_field.size()));
        ok = response.size() == head_end + 4 + length;
      }
    }
    if (!ok && ++mismatches <= 3) {
      ADD_FAILURE() << "case " << c << ": expected " << expected << " for a "
                    << request.size() << "-byte request, got '"
                    << response.substr(0, 64) << "'";
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of 1000 cases";
  // Every branch of the reference ran.
  EXPECT_EQ(seen, (std::set<int>{0, 200, 400, 404, 405}));

  const std::string clean = HttpRequest(port, scrapes[0]);
  EXPECT_NE(clean.find("\nmutation_total 7\n"), std::string::npos);
  (*server)->Shutdown();
}

// ------------------------------------------------------ snapshot writer

TEST(SnapshotWriterTest, WritesPeriodicSnapshotsWithPreamble) {
  Registry registry;
  registry.GetCounter("written_total", "writes")->Add(9);
  const std::string path =
      ::testing::TempDir() + "obs_snapshot_writer_test.prom";
  std::ostringstream captured;
  PeriodicSnapshotWriter::Options options;
  options.interval = std::chrono::milliseconds(10);
  options.path = path;
  options.stream = &captured;
  options.preamble = [] { return std::string("# preamble line"); };
  {
    PeriodicSnapshotWriter writer(&registry, options);
    ASSERT_TRUE(WaitFor([&] { return writer.snapshots_written() >= 2; }));
    writer.Stop();
    EXPECT_GE(writer.snapshots_written(), 3u);  // >= 2 periodic + final
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  const std::string text = contents.str();
  EXPECT_EQ(text.rfind("# preamble line\n", 0), 0u);
  EXPECT_NE(text.find("written_total 9\n"), std::string::npos);
  EXPECT_NE(captured.str().find("written_total 9\n"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace trajldp::obs
