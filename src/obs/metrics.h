#ifndef TRAJLDP_OBS_METRICS_H_
#define TRAJLDP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status_or.h"

namespace trajldp::obs {

/// \brief Lock-free metrics registry (docs/OBSERVABILITY.md).
///
/// The write side is the whole point: a hot-path `Counter::Add` or
/// `Histogram::Observe` is one relaxed fetch_add on a cache-line-owned
/// stripe, so instruments stay on by default — the
/// `metrics_overhead_ratio` gate in `BENCH_net.json` holds telemetered
/// ingest within 1.05x of the untelemetered run. The read side
/// (`Registry::Snapshot`) is slow-path and mutex-guarded; snapshots from
/// K shards `MergeFrom` into one deterministic view, mirroring
/// `StreamAnalytics::Merge`.

struct Label {
  std::string key;
  std::string value;

  friend bool operator==(const Label& a, const Label& b) {
    return a.key == b.key && a.value == b.value;
  }
  friend bool operator<(const Label& a, const Label& b) {
    return a.key != b.key ? a.key < b.key : a.value < b.value;
  }
};

using Labels = std::vector<Label>;

namespace internal {

inline constexpr std::size_t kStripes = 16;

/// Stable per-thread stripe slot, assigned round-robin on first use so
/// K pool workers land on K distinct stripes instead of hashing into
/// collisions.
std::size_t ThreadStripe();

/// fetch_add for atomic<double> without requiring C++20 library
/// support: a relaxed compare-exchange loop.
inline void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

struct alignas(64) StripedU64 {
  std::atomic<std::uint64_t> v{0};
};

struct alignas(64) StripedF64 {
  std::atomic<double> v{0.0};
};

}  // namespace internal

/// Monotonic counter. Add() is wait-free (one relaxed fetch_add on the
/// caller's stripe); Value() sums the stripes.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(std::uint64_t n = 1) {
    stripes_[internal::ThreadStripe()].v.fetch_add(n,
                                                   std::memory_order_relaxed);
  }

  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const auto& stripe : stripes_) {
      total += stripe.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::array<internal::StripedU64, internal::kStripes> stripes_;
};

/// Last-write-wins double gauge. Typically refreshed by a registry
/// collection hook rather than on the hot path.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) { internal::AtomicAddDouble(value_, delta); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with Prometheus `le` (inclusive upper bound)
/// semantics: an observation lands in the first bucket whose bound is
/// >= the value, or the implicit +Inf overflow bucket. Observe() is two
/// relaxed stripe updates plus a branchless-ish binary search over a
/// handful of bounds.
class Histogram {
 public:
  /// `bounds` are sorted and deduplicated; an empty list falls back to
  /// DefaultLatencyBounds().
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts, size bounds()+1; the last
  /// entry is the +Inf overflow bucket.
  std::vector<std::uint64_t> BucketCounts() const;
  std::uint64_t Count() const;
  double Sum() const;

 private:
  std::vector<double> bounds_;
  std::size_t stride_ = 0;  // bounds_.size() + 1 (overflow bucket)
  // kStripes x stride_ flat cell matrix; sized once, never reallocated.
  std::vector<std::atomic<std::uint64_t>> cells_;
  std::array<internal::StripedF64, internal::kStripes> sums_;
};

/// Exponential-ish latency bounds from 1us to 5s — wide enough for a
/// decode span and an fsync on the same scale.
std::vector<double> DefaultLatencyBounds();

enum class MetricType { kCounter, kGauge, kHistogram };

/// One series, frozen at snapshot time. Histograms carry per-bucket
/// (non-cumulative) counts; the exposition layer cumulates.
struct MetricSnapshot {
  MetricType type = MetricType::kCounter;
  std::string name;
  std::string help;
  Labels labels;  // canonicalized (sorted by key)
  double value = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  double sum = 0.0;
  std::uint64_t count = 0;
};

/// A registry's series, mergeable across shards. MergeFrom sums
/// matching series (same name+labels+type) and unions the rest; Sort
/// then yields an order-independent, byte-stable rendering — merging
/// K shard snapshots in any order renders identically.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  Status MergeFrom(const RegistrySnapshot& other);
  void Sort();
  const MetricSnapshot* Find(std::string_view name,
                             const Labels& labels = {}) const;
};

/// Owns metrics and hands out stable pointers. Get* is idempotent:
/// the same (name, labels) returns the same instrument; a type or
/// bucket-bounds conflict returns a process-wide blackhole instrument
/// (writes vanish, nothing crashes) rather than aborting a server over
/// a telemetry name clash.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help,
                      Labels labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  Labels labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds, Labels labels = {});

  /// Registers a collection hook run at the start of every Snapshot()
  /// (outside the registry lock, so hooks may call Get*/set gauges).
  /// Used to refresh pull-style gauges — queue depth, journal bytes,
  /// cache stats — without polluting hot paths. Returns a handle for
  /// RemoveHook.
  std::size_t AddHook(std::function<void()> hook);
  void RemoveHook(std::size_t id);

  RegistrySnapshot Snapshot() const;

  std::size_t num_metrics() const;

 private:
  struct Entry {
    MetricType type;
    std::string name;
    std::string help;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;       // registration order
  std::map<std::string, std::size_t> index_;          // key -> entries_ idx
  std::vector<std::pair<std::size_t, std::function<void()>>> hooks_;
  std::size_t next_hook_id_ = 1;
};

}  // namespace trajldp::obs

#endif  // TRAJLDP_OBS_METRICS_H_
