#ifndef TRAJLDP_BENCH_SUITE_WORKLOADS_H_
#define TRAJLDP_BENCH_SUITE_WORKLOADS_H_

// The four workloads (bench/suite/README.md has why each exists). Each
// builds its inputs, sets up five times, three on the city (all but one
// in forked copies; setup_s is the median), warming up on user ids
// disjoint from the timed ones, runs a closed loop for
// Options::seconds, then checks its outputs outside the timed window. With Options::trace the timed loop is split
// into an untraced and a traced half, set-up runs once, and the
// per-layer metrics replace the end-to-end ones.

#include "common/status.h"
#include "suite.h"

namespace trajldp::suite {

/// Device side only: perturb + encode on the generator threads.
Status RunCityPerturb(const Options& options, RunResult* result);
/// The city's reports pushed in memory into a StreamingCollector.
Status RunCityCollect(const Options& options, RunResult* result);
/// Lattice reports over loopback TCP into an IngestServer; with
/// `exactly_once` the client is sequenced and the server journals.
Status RunLattice(const Options& options, bool exactly_once,
                  RunResult* result);

}  // namespace trajldp::suite

#endif  // TRAJLDP_BENCH_SUITE_WORKLOADS_H_
