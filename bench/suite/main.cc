// The collector benchmark (bench/suite/README.md). One process runs one
// workload for one seed and prints every metric by name and unit; its
// last stdout line is the run's JSON result:
//
//   trajldp_suite --workload W --seed S [--seconds T] [--trace 0|1]
//                 [--smoke] [--json OUT]
//
// Run from the repository root: journals go under .bench_build/scratch
// and --trace writes its spans to .bench_build/traces/W-S.json.
//
// Exit code 0: outputs correct. 1: an output check failed (the JSON line
// still says which run it was). 2: the run could not complete.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "suite.h"
#include "workloads.h"

namespace trajldp::suite {
namespace {

const char* const kUsage =
    "usage: trajldp_suite --workload "
    "city_perturb|city_collect|lattice_loopback|lattice_exactly_once\n"
    "         --seed S [--seconds T] [--trace 0|1] [--smoke] [--json OUT]\n";

std::string Number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string ResultJson(const RunResult& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
        << Number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

bool ParseArgs(int argc, char** argv, Options* options, std::string* json) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--workload") {
      const char* v = value();
      if (v == nullptr) return false;
      options->workload = v;
    } else if (flag == "--seed") {
      const char* v = value();
      if (v == nullptr) return false;
      options->seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      const char* v = value();
      if (v == nullptr) return false;
      options->seconds = std::atof(v);
    } else if (flag == "--trace") {
      // `--trace` alone means on; `--trace 0|1` sets it.
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                           std::strcmp(argv[i + 1], "1") == 0)) {
        options->trace = std::strcmp(argv[++i], "1") == 0;
      } else {
        options->trace = true;
      }
    } else if (flag == "--smoke") {
      options->smoke = true;
    } else if (flag == "--json") {
      const char* v = value();
      if (v == nullptr) return false;
      *json = v;
    } else {
      return false;
    }
  }
  return have_seed && !options->workload.empty() && options->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Options options;
  options.scratch_dir = ".bench_build/scratch";
  std::string json_path;
  if (!ParseArgs(argc, argv, &options, &json_path)) {
    std::cerr << kUsage;
    return 2;
  }
  if (options.smoke) options.seconds = std::min(options.seconds, 0.25);
  options.trace_path = ".bench_build/traces/" + options.workload + "-" +
                       std::to_string(options.seed) + ".json";
  if (options.trace) {
    std::filesystem::create_directories(
        std::filesystem::path(options.trace_path).parent_path());
  }
  std::cout << "workload " << options.workload << ", seed " << options.seed
            << ", " << options.seconds << " s"
            << (options.trace ? ", traced" : "")
            << (options.smoke ? ", smoke" : "") << "\n";

  RunResult result;
  Status status;
  if (options.workload == "city_perturb") {
    status = RunCityPerturb(options, &result);
  } else if (options.workload == "city_collect") {
    status = RunCityCollect(options, &result);
  } else if (options.workload == "lattice_loopback") {
    status = RunLattice(options, /*exactly_once=*/false, &result);
  } else if (options.workload == "lattice_exactly_once") {
    status = RunLattice(options, /*exactly_once=*/true, &result);
  } else {
    std::cerr << "unknown workload " << options.workload << "\n" << kUsage;
    return 2;
  }
  if (!status.ok()) {
    std::cerr << "run failed: " << status << "\n";
    return 2;
  }
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.Fail("metric " + m.name + " is not finite");
    }
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const std::string json = ResultJson(result);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json << "\n";
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 2;
    }
  }
  std::cout << json << std::endl;
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace trajldp::suite

int main(int argc, char** argv) { return trajldp::suite::Main(argc, argv); }
