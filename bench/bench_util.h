#ifndef TRAJLDP_BENCH_BENCH_UTIL_H_
#define TRAJLDP_BENCH_BENCH_UTIL_H_

// Shared plumbing for the reproduction benches: dataset construction with
// env-scalable sizes, method running, and consistent output formatting.
//
// Every bench prints (a) the regenerated table/figure series in the
// paper's layout and (b) a "shape check" note recalling what the paper
// reports, so diffs against the publication are one glance away.
// TRAJLDP_BENCH_SCALE (default 1.0) scales trajectory counts.
//
// The perf benches' timing gates share one method, RunPairedGate:
// paired rounds after a warm-up, judged on the median ratio
// (docs/PERF.md §Timing gates).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "eval/dataset.h"
#include "eval/experiment.h"

namespace trajldp::bench {

/// Default workload sizes (paper: |P| = 2000, |T| ≈ 5000–10000 — scaled
/// down so the full suite runs in minutes; shapes are stable under scale).
inline constexpr size_t kDefaultPois = 2000;
inline constexpr size_t kDefaultTrajectories = 300;

inline eval::DatasetOptions ScaledOptions(size_t num_pois,
                                          size_t num_trajectories,
                                          uint64_t seed = 7) {
  eval::DatasetOptions options;
  options.num_pois = num_pois;
  options.num_trajectories = eval::ScaledCount(num_trajectories);
  options.seed = seed;
  return options;
}

inline void PrintHeader(const std::string& title,
                        const std::string& paper_ref) {
  std::cout << "==============================================================="
               "=\n"
            << title << "\n(" << paper_ref << ")\n"
            << "==============================================================="
               "=\n";
}

inline void PrintShapeCheck(const std::string& note) {
  std::cout << "\nShape check vs. paper:\n" << note << "\n\n";
}

// ------------------------------------------------------------ timing gates

/// One leg of a timing gate. It does its own untimed set-up and returns
/// the seconds its gate compares: the timed section's wall time, or one
/// stage's seconds.
using TimedLeg = std::function<StatusOr<double>()>;

inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// A timing gate: the per-round ratio numerator seconds / denominator
/// seconds, judged on its median over paired rounds against a fixed
/// threshold.
struct TimingGate {
  std::string key;       ///< JSON key of the median; _min/_max beside it
  double threshold = 0.0;
  bool at_least = true;  ///< pass when median >= threshold, else <=

  // Filled by RunPairedGate.
  std::vector<double> ratios{};      ///< per timed round, in run order
  double numerator_seconds = 0.0;    ///< the leg's median over the rounds
  double denominator_seconds = 0.0;  ///< the leg's median over the rounds

  double min() const {
    return *std::min_element(ratios.begin(), ratios.end());
  }
  double median() const { return Median(ratios); }
  double max() const {
    return *std::max_element(ratios.begin(), ratios.end());
  }
  bool pass() const {
    return at_least ? median() >= threshold : median() <= threshold;
  }

  void Print() const {
    std::printf("%s: %.3fx median (min %.3fx, max %.3fx over %zu rounds) "
                "(gate %s %gx): %s\n  rounds:",
                key.c_str(), median(), min(), max(), ratios.size(),
                at_least ? ">=" : "<=", threshold, pass() ? "PASS" : "FAIL");
    for (const double ratio : ratios) std::printf(" %.3f", ratio);
    std::printf("\n");
  }

  /// Three lines of a hand-written JSON object, each ending in a comma:
  /// "<key>" (the median), "<key>_min" and "<key>_max".
  void WriteJson(std::ostream& out) const {
    out << "  \"" << key << "\": " << median() << ",\n"
        << "  \"" << key << "_min\": " << min() << ",\n"
        << "  \"" << key << "_max\": " << max() << ",\n";
  }
};

/// Runs the two legs for one untimed warm-up round (first-touch costs —
/// page faults, cold caches, thread start-up — land there), then for
/// `rounds` timed rounds. The leg that runs first alternates from round
/// to round, so slow drift hits both legs alike. Fills the gate's
/// per-round ratios and leg medians; the first failing leg's Status
/// aborts the gate.
inline Status RunPairedGate(int rounds, const TimedLeg& numerator,
                            const TimedLeg& denominator, TimingGate& gate) {
  gate.ratios.clear();
  std::vector<double> numerator_seconds;
  std::vector<double> denominator_seconds;
  for (int round = 0; round <= rounds; ++round) {
    const bool numerator_first = round % 2 == 0;
    auto first = numerator_first ? numerator() : denominator();
    if (!first.ok()) return first.status();
    auto second = numerator_first ? denominator() : numerator();
    if (!second.ok()) return second.status();
    if (round == 0) continue;  // the warm-up
    const double top = numerator_first ? *first : *second;
    const double bottom = numerator_first ? *second : *first;
    numerator_seconds.push_back(top);
    denominator_seconds.push_back(bottom);
    gate.ratios.push_back(top / bottom);
  }
  gate.numerator_seconds = Median(std::move(numerator_seconds));
  gate.denominator_seconds = Median(std::move(denominator_seconds));
  return Status::Ok();
}

}  // namespace trajldp::bench

#endif  // TRAJLDP_BENCH_BENCH_UTIL_H_
