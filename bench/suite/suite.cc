#include "suite.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <numeric>
#include <thread>

namespace trajldp::suite {

void RunResult::Fail(const std::string& why) {
  correct = false;
  std::cerr << "OUTPUT CHECK FAILED: " << why << "\n";
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kDeviceUnit: return "device.unit";
    case Layer::kPerturb: return "core.perturb";
    case Layer::kEncode: return "io.wire.encode";
    case Layer::kHandoff: return "net.client.send";
    case Layer::kSink: return "core.collector.sink";
    case Layer::kPassFrame: return "pass.frame";
    case Layer::kCrc: return "io.wire.crc";
    case Layer::kDecode: return "io.wire.decode";
    case Layer::kValidate: return "core.validate";
    case Layer::kReconstruct: return "core.reconstruct";
    case Layer::kConsume: return "analytics.consume";
    case Layer::kCount: break;
  }
  return "unknown";
}

void LayerTimes::AddLog(const SpanLog& log) {
  for (const Span& span : log.spans()) {
    us[static_cast<size_t>(span.layer)].push_back(
        static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  }
}

double LayerTimes::Sum(Layer layer) const {
  const auto& v = of(layer);
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double LayerTimes::Mean(Layer layer) const {
  const auto& v = of(layer);
  return v.empty() ? 0.0 : Sum(layer) / static_cast<double>(v.size());
}

Status WriteTrace(const std::string& path, const std::string& workload,
                  uint64_t seed, const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write trace file " + path);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ",\n \"columns\": [\"layer\", \"thread\", \"id\", \"start_ns\", "
         "\"end_ns\", \"parent\"],\n \"spans\": [";
  // Times are rebased to the earliest span; parents become global indices.
  int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  size_t base = 0;
  bool first = true;
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t]->spans()) {
      out << (first ? "\n  " : ",\n  ") << "[\"" << LayerName(s.layer)
          << "\", " << t << ", " << s.id << ", " << s.start_ns - origin
          << ", " << s.end_ns - origin << ", "
          << (s.parent < 0 ? -1
                           : static_cast<int64_t>(base) + s.parent)
          << "]";
      first = false;
    }
    base += logs[t]->spans().size();
  }
  out << "\n]}\n";
  out.close();
  if (!out) return Status::Internal("failed writing trace file " + path);
  return Status::Ok();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

ProgressSampler::ProgressSampler(std::function<uint64_t()> done)
    : done_(std::move(done)), thread_([this] { Loop(); }) {}

ProgressSampler::~ProgressSampler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void ProgressSampler::Loop() {
  const auto start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  for (int k = 0; !stop_; ++k) {
    samples_.push_back({NowNs(), CpuSeconds(), done_()});
    cv_.wait_until(lock, start + std::chrono::seconds(k + 1),
                   [this] { return stop_; });
  }
}

PhaseRate ProgressSampler::Finish(int64_t end_ns, const PhaseRate& whole) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::vector<double> rates;
  std::vector<double> cpu_ms;
  for (size_t i = 1; i < samples_.size() && samples_[i].ns <= end_ns; ++i) {
    const Sample& a = samples_[i - 1];
    const Sample& b = samples_[i];
    const auto done = static_cast<double>(b.done - a.done);
    rates.push_back(done / (static_cast<double>(b.ns - a.ns) / 1e9));
    if (done > 0.0) cpu_ms.push_back((b.cpu_s - a.cpu_s) * 1e3 / done);
  }
  if (rates.size() < 3) return whole;
  const auto [slowest, fastest] = std::minmax_element(rates.begin(), rates.end());
  return {Median(rates), Median(cpu_ms), rates.size(), *slowest, *fastest};
}

namespace {

/// The number on a "Field:  N" line of /proc/self/status.
double StatusField(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::atof(line.c_str() + field.size());
    }
  }
  return 0.0;
}

}  // namespace

double RssMb() { return StatusField("VmRSS:") / 1024.0; }
double PeakRssMb() { return StatusField("VmHWM:") / 1024.0; }

StatusOr<double> TimeInChild(const std::function<Status()>& work) {
  if (StatusField("Threads:") != 1.0) {
    return Status::Internal("forking needs a single-threaded process");
  }
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("pipe failed");
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    const int64_t start = NowNs();
    const Status status = work();
    const double seconds =
        status.ok() ? static_cast<double>(NowNs() - start) / 1e9 : -1.0;
    if (!status.ok()) std::cerr << "forked copy failed: " << status << "\n";
    const bool sent = write(fds[1], &seconds, sizeof(seconds)) ==
                      static_cast<ssize_t>(sizeof(seconds));
    // _exit, not exit: static destructors and stream flushes here would
    // repeat work that belongs to the parent.
    _exit(status.ok() && sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1.0;
  const ssize_t got = read(fds[0], &seconds, sizeof(seconds));
  close(fds[0]);
  int wstatus = 0;
  while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (got != static_cast<ssize_t>(sizeof(seconds)) || seconds < 0.0 ||
      !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("the forked copy failed");
  }
  return seconds;
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

size_t GeneratorThreads() {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<size_t>(4, hw);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

obs::MetricSnapshot Series(const obs::RegistrySnapshot& snapshot,
                           const std::string& name) {
  const obs::MetricSnapshot* found = snapshot.Find(name);
  return found != nullptr ? *found : obs::MetricSnapshot{};
}

double HistogramQuantile(const obs::MetricSnapshot& before,
                         const obs::MetricSnapshot& after, double q) {
  std::vector<double> counts(after.buckets.size(), 0.0);
  double total = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t prior = i < before.buckets.size() ? before.buckets[i] : 0;
    counts[i] = static_cast<double>(after.buckets[i] - prior);
    total += counts[i];
  }
  if (total <= 0.0) return 0.0;
  const double rank = q * total;
  double seen = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0.0 && seen + counts[i] >= rank) {
      const double lo = i == 0 ? 0.0 : after.bounds[i - 1];
      // The overflow bucket has no upper bound; report its lower edge.
      if (i >= after.bounds.size()) return lo;
      const double hi = after.bounds[i];
      return lo + (hi - lo) * (rank - seen) / counts[i];
    }
    seen += counts[i];
  }
  return after.bounds.empty() ? 0.0 : after.bounds.back();
}

}  // namespace trajldp::suite
