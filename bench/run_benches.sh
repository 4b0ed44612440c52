#!/usr/bin/env bash
# Perf-tracking harness: builds and runs the micro-kernel bench plus the
# batched-release bench, and emits machine-readable JSON so future PRs
# have a perf trajectory to regress against.
#
#   bench/run_benches.sh [output-dir]
#
# Outputs (in output-dir, default the repo root):
#   BENCH_batch.json — batched perturbation engine: users/s, per-ngram
#                      latency, single-thread speedup vs the seed path,
#                      thread scaling, and the bit-identical check.
#   BENCH_e2e.json   — end-to-end batched pipeline (perturb → candidates
#                      → optimal reconstruction → POI resampling):
#                      users/s per path, Table-3-style stage split,
#                      speedup vs the seed sequential loop, the POI
#                      stage speedup against the paper loop, thread
#                      scaling, and the bit-identical check.
#   BENCH_stream.json — streaming wire-format ingest through the
#                      StreamingCollector: users/s across batch size ×
#                      queue depth × shard count, the batch-engine
#                      baseline, and the sharded bit-identical check.
#   BENCH_analytics.json — streaming aggregate analytics (hotspots, PRQ
#                      sketch, windowed top-k) folded at the collector
#                      sink: the K ∈ {1, 2, 4} merged-shard-equals-
#                      batch-eval gate, the sub-2× peak-RSS gate vs
#                      ingest-only, aggregate footprint, and users/s
#                      with and without analytics.
#   BENCH_net.json   — the same frames over loopback TCP through
#                      net::ReportClient → net::IngestServer: users/s
#                      in-memory vs loopback (gate: within 2×), raw
#                      loopback vs journaled exactly-once ingest with
#                      batched fsync (gate: within 2×, fsync-per-record
#                      reported), a 10k-simultaneous-connection churn
#                      leg against the epoll reactor (gate: target held
#                      AND merged output bit-identical), and the
#                      bit-identical check.
#   BENCH_micro.json — google-benchmark JSON for the hot kernels
#                      (haversine, Gumbel, EM select, path sampler,
#                      Viterbi DP).
#
# Every timing gate is the median of paired rounds (docs/PERF.md
# §Timing gates): its key carries the median, with <key>_min and
# <key>_max beside it.
#
# After the runs, every BENCH_*.json is checked for its gate keys; a
# missing file or key FAILS the harness loudly instead of silently
# shipping artifacts without their gates.
#
# Env:
#   BUILD_DIR                  build tree (default: build)
#   TRAJLDP_BENCH_USERS        batch-bench user count (default: 10000)
#   TRAJLDP_BENCH_E2E_USERS    e2e-bench user count (default: 5000)
#   TRAJLDP_BENCH_STREAM_USERS stream-bench user count (default: 5000)
#   TRAJLDP_BENCH_ANALYTICS_USERS analytics-bench user count (default:
#                              5000)
#   TRAJLDP_BENCH_NET_USERS    net-bench user count (default: 5000)
#   TRAJLDP_BENCH_NET_CHURN_CONNS churn-leg connection target (default:
#                              10000)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"
out_dir="${1:-$repo_root}"
mkdir -p "$out_dir"

if [[ ! -d "$build_dir" ]]; then
  cmake -B "$build_dir" -S "$repo_root"
fi
cmake --build "$build_dir" --target bench_batch_release bench_batch_e2e \
  bench_stream_ingest bench_stream_analytics bench_net_ingest \
  bench_micro_kernels

echo "=== bench_batch_release ==="
"$build_dir/bench_batch_release" --json "$out_dir/BENCH_batch.json"

echo "=== bench_batch_e2e ==="
"$build_dir/bench_batch_e2e" --json "$out_dir/BENCH_e2e.json"

echo "=== bench_stream_ingest ==="
"$build_dir/bench_stream_ingest" --json "$out_dir/BENCH_stream.json"

echo "=== bench_stream_analytics ==="
"$build_dir/bench_stream_analytics" --json "$out_dir/BENCH_analytics.json"

echo "=== bench_net_ingest ==="
"$build_dir/bench_net_ingest" --json "$out_dir/BENCH_net.json"

echo "=== bench_micro_kernels ==="
"$build_dir/bench_micro_kernels" \
  --benchmark_format=console \
  --benchmark_out="$out_dir/BENCH_micro.json" \
  --benchmark_out_format=json

echo "=== gate-key check ==="
python3 - "$out_dir" <<'EOF'
import json
import sys

out_dir = sys.argv[1]
# Every artifact and the keys downstream gates read from it. A bench
# that stops emitting one of these must fail HERE, not ship an artifact
# that a CI gate later "passes" by not finding its input.
required = {
    "BENCH_batch.json": ["bit_identical"],
    "BENCH_e2e.json": ["bit_identical"],
    "BENCH_stream.json": ["bit_identical", "best_stream_users_per_sec"],
    # ISSUE 9: streaming analytics must carry the sharded-equals-batch
    # gate and the peak-memory reading the CI gate reads.
    "BENCH_analytics.json": [
        "analytics_equal_to_batch_eval",
        "analytics_peak_bytes",
        "analytics_peak_ratio",
        "peak_reset_supported",
    ],
    "BENCH_net.json": [
        "bit_identical",
        "loopback_within_2x",
        "journaled_within_2x",
        "journaled_users_per_sec",
        "churn_concurrent_connections",
        "churn_bit_identical",
        # ISSUE 10: always-on telemetry must prove it is close to free
        # (ratio gate ≤ 1.05×) and that /metrics answered under the
        # churn leg's connection load.
        "metrics_within_1_05x",
        "churn_metrics_scrape_ok",
    ],
    "BENCH_micro.json": ["benchmarks"],
}
# The timing gates: each is a median over paired rounds and must carry
# its spread, so a bench that stops pairing fails here.
timing_gates = {
    "BENCH_batch.json": ["speedup_single_thread"],
    "BENCH_e2e.json": ["poi_stage_speedup", "speedup_vs_seed_loop"],
    "BENCH_net.json": [
        "inmem_over_loopback",
        "loopback_over_journaled",
        "metrics_overhead_ratio",
    ],
}
for name, gates in timing_gates.items():
    required[name] += [
        gate + suffix for gate in gates for suffix in ("", "_min", "_max")
    ]
failures = []
for name, keys in required.items():
    path = f"{out_dir}/{name}"
    try:
        with open(path) as f:
            bench = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        failures.append(f"{name}: {error}")
        continue
    for key in keys:
        if key not in bench:
            failures.append(f"{name}: gate key '{key}' missing")
if failures:
    print("MISSING BENCH GATES:")
    for failure in failures:
        print(f"  {failure}")
    sys.exit(1)
print("all bench artifacts carry their gate keys")
EOF

echo "wrote $out_dir/BENCH_batch.json, $out_dir/BENCH_e2e.json, $out_dir/BENCH_stream.json, $out_dir/BENCH_analytics.json, $out_dir/BENCH_net.json, and $out_dir/BENCH_micro.json"
