#ifndef TRAJLDP_BENCH_SUITE_SUITE_H_
#define TRAJLDP_BENCH_SUITE_SUITE_H_

// Shared plumbing of the collector benchmark (bench/suite/README.md): run
// options, the result a run prints, bench-side spans, and the process and
// registry readings the metrics are computed from.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status_or.h"
#include "obs/metrics.h"

namespace trajldp::suite {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every size so a workload finishes in a few seconds.
  bool smoke = false;
  /// Where --trace writes its span file.
  std::string trace_path;
  /// Scratch directory (journals) inside the checkout.
  std::string scratch_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the output verdict and every metric.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Marks the run's output wrong and says why on stderr.
  void Fail(const std::string& why);
};

// ------------------------------------------------------------ spans

/// The layer boundaries the benchmark times from its own code.
enum class Layer : uint8_t {
  kDeviceUnit,  // city_perturb: one user's perturb + encode
  kPerturb,     // CollectorPipeline::PerturbInto
  kEncode,      // io::EncodeReportBatch
  kHandoff,     // PushEncoded / SendFrame / SendBatch call
  kSink,        // the collector's sink call for one release
  kPassFrame,   // layer pass: one frame through every layer
  kCrc,         // io::VerifyFrameChecksum
  kDecode,      // io::DecodeReportBatch
  kValidate,     // CollectorPipeline::ValidateReport
  kReconstruct,  // CollectorPipeline::ReconstructReportInto
  kConsume,      // StreamAnalytics::Consume
  kCount,
};

const char* LayerName(Layer layer);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// User id, or frame index for frame-level spans.
  uint64_t id = 0;
  /// Index of the parent span in the same log, -1 for a root.
  int32_t parent = -1;
  Layer layer = Layer::kCount;
};

/// Spans of one thread, kept in memory until the run ends. A disabled
/// log reads no clock and stores nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  int32_t Begin(Layer layer, uint64_t id, int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({NowNs(), 0, id, parent, layer});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }
  /// A root span timed by the caller.
  void Add(Layer layer, uint64_t id, int64_t start_ns, int64_t end_ns) {
    if (enabled_) spans_.push_back({start_ns, end_ns, id, -1, layer});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Per-layer durations gathered from any number of span logs.
struct LayerTimes {
  /// Durations in microseconds, per layer.
  std::vector<double> us[static_cast<size_t>(Layer::kCount)];

  void AddLog(const SpanLog& log);
  const std::vector<double>& of(Layer layer) const {
    return us[static_cast<size_t>(layer)];
  }
  double Mean(Layer layer) const;
  double Sum(Layer layer) const;
};

/// Writes every span of `logs` (one log per thread) as JSON.
Status WriteTrace(const std::string& path, const std::string& workload,
                  uint64_t seed, const std::vector<const SpanLog*>& logs);

// ---------------------------------------------------------- readings

/// Process user + system CPU seconds (getrusage).
double CpuSeconds();

/// What a timed phase reports: medians over one-second windows when the
/// phase spans at least three, else the whole phase.
struct PhaseRate {
  double units_per_s = 0.0;
  double cpu_ms_per_unit = 0.0;
  size_t windows = 0;
  /// The slowest and fastest window's rate (0 without windows).
  double slowest = 0.0;
  double fastest = 0.0;
};

/// Reads (time, process CPU, units done) once a second on its own thread
/// while a timed phase runs. Other tenants of the host load its memory
/// and cores in bursts of a few seconds; a median over windows lets such
/// a burst move one window instead of the run's result.
class ProgressSampler {
 public:
  explicit ProgressSampler(std::function<uint64_t()> done);
  ~ProgressSampler();
  ProgressSampler(const ProgressSampler&) = delete;
  ProgressSampler& operator=(const ProgressSampler&) = delete;

  /// Stops sampling and reports the medians over the windows that ended
  /// by `end_ns`, or `whole` when fewer than three did.
  PhaseRate Finish(int64_t end_ns, const PhaseRate& whole);

 private:
  struct Sample {
    int64_t ns = 0;
    double cpu_s = 0.0;
    uint64_t done = 0;
  };
  void Loop();

  const std::function<uint64_t()> done_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::thread thread_;
};
/// Resident set size (VmRSS) and its peak (VmHWM), in MB.
double RssMb();
double PeakRssMb();
/// Lowers VmHWM to the current RSS (writes 5 to /proc/self/clear_refs).
/// Where the kernel refuses, the peak keeps counting from process start.
void ResetPeakRss();

/// Runs `work` in a forked copy of this process and returns how long it
/// took there. The copy starts from this process's memory as it is now,
/// so repeated calls all start from the same state, and nothing `work`
/// allocates is left behind here. The process must be single-threaded;
/// the call waits until the copy has exited.
StatusOr<double> TimeInChild(const std::function<Status()>& work);
/// Generator threads a workload may use: min(4, hardware threads).
size_t GeneratorThreads();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The registry reading of one series; zeroed when the series is absent.
obs::MetricSnapshot Series(const obs::RegistrySnapshot& snapshot,
                           const std::string& name);
/// Quantile of the observations a histogram gained between two
/// snapshots, interpolated linearly inside the bucket it falls in.
double HistogramQuantile(const obs::MetricSnapshot& before,
                         const obs::MetricSnapshot& after, double q);

}  // namespace trajldp::suite

#endif  // TRAJLDP_BENCH_SUITE_SUITE_H_
