#!/usr/bin/env bash
# Entry point of the collector benchmark (bench/suite/README.md). Run it
# from the repository root:
#
#   bench/suite/run.sh --workload W --seed S [--seconds T] [--trace 0|1]
#                      [--smoke] [--json OUT]
#       Builds the library and the benchmark into .bench_build (Release),
#       runs one workload and prints every metric by name and unit. The
#       last stdout line is the run's JSON result; the exit code is
#       non-zero when an output check failed.
#   bench/suite/run.sh --repeat N [--workload W] [--seed S] [--seconds T]
#                      [--trace 0|1] [--json OUT]
#       N runs of each workload (seeds S, S+1, ...) and their median,
#       quartiles, min and max; flags spreads wider than a metric's bound.
#   bench/suite/run.sh compare PARENT.json CHANGE.json
#       The gain and no-regression rules over two --repeat files.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"

if [[ "${1:-}" == compare ]]; then
  shift
  exec python3 "$here/repeat.py" compare "$@"
fi
for arg in "$@"; do
  if [[ "$arg" == --repeat ]]; then
    exec python3 "$here/repeat.py" repeat "$@"
  fi
done

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no library sources under $root; run from a full checkout" >&2
  exit 2
fi

cd "$root"
build=.bench_build
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    generator=()
    if command -v ninja > /dev/null; then generator=(-G Ninja); fi
    cmake -S bench/suite -B "$build" "${generator[@]}"
  fi
  cmake --build "$build" -j "$(nproc)"
} >&2
exec "$build/trajldp_suite" "$@"
