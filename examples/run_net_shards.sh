#!/usr/bin/env bash
# Multi-process loopback shard harness: launches K collector processes
# on ephemeral loopback ports, streams every device report to them over
# TCP routed by core::ShardPlan, merges the K release files, and
# bit-compares against the single-process
# BatchReleaseEngine::ReleaseAllFull. Exit 0 iff identical.
#
#   examples/run_net_shards.sh [K] [USERS] [SEED] [MODE]
#
# MODE:
#   plain  (default) raw clients, no journal — the ISSUE 5 harness.
#   crash  the exactly-once leg: every shard journals its frames,
#          clients run sequenced (--ack), and shard 0 is SIGKILLed
#          mid-append by the journal fault hook, then restarted on the
#          SAME port with the SAME journal. The restart replays the
#          journal, the client resends its unacked suffix, the dedup
#          layers drop the overlap — and the merged output must STILL be
#          bit-identical to the in-process engine.
#   crash-compact
#          crash, but every shard also runs journal compaction at a
#          deliberately tiny threshold (so compactions fire repeatedly
#          mid-stream) with releases persisted incrementally to
#          out+".partial". Shard 0's SIGKILL lands AFTER compactions
#          have already dropped acked records from its journal, so the
#          restart must rebuild from journal replay + preloaded partial
#          releases combined — the recovery path compaction makes
#          possible. Output must still be bit-identical.
#
# Either mode runs the sender under a watchdog: if any serve process
# dies while reports are still streaming (other than shard 0's one
# scheduled death in crash mode), the harness fails fast naming the dead
# shard and dumping its log, instead of hanging until timeout.
#
# Env:
#   BUILD_DIR  build tree holding net_shard_harness (default: build)
set -euo pipefail

k="${1:-2}"
users="${2:-80}"
seed="${3:-42}"
mode="${4:-plain}"
if [[ "$mode" != plain && "$mode" != crash && "$mode" != crash-compact ]]; then
  echo "error: MODE must be 'plain', 'crash', or 'crash-compact', got '$mode'" >&2
  exit 1
fi
# Tiny threshold so compaction fires several times even in a small run.
compact_bytes=1500

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"
bin="$build_dir/net_shard_harness"
if [[ ! -x "$bin" ]]; then
  echo "error: $bin not built (cmake --build $build_dir --target net_shard_harness)" >&2
  exit 1
fi

work="$(mktemp -d)"
pids=()
send_pid=""
cleanup() {
  # Servers exit on their own in the happy path; reap stragglers on any
  # early error so the harness never leaks processes.
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  [[ -n "$send_pid" ]] && kill "$send_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

dump_log() {
  sed "s/^/  shard $1 | /" "$work/shard.$1.log" >&2 || true
}

# launch_shard S [extra serve args...] — records the pid in pids[S] and
# sends the shard's output to its own log for post-mortems.
launch_shard() {
  local s="$1"
  shift
  "$bin" serve --shard "$s" --num-shards "$k" --users "$users" \
    --seed "$seed" --out "$work/releases.$s" "$@" \
    >>"$work/shard.$s.log" 2>&1 &
  pids[$s]=$!
}

echo "=== launching $k collector process(es) [mode: $mode] ==="
for ((s = 0; s < k; s++)); do
  extra=(--port 0 --port-file "$work/port.$s")
  if [[ "$mode" == plain ]]; then
    # Telemetry leg: each shard publishes a /metrics admin endpoint and
    # stays alive after draining until we touch its hold file, so the
    # scrape below sees final counters. Crash modes skip this — shard 0
    # is SIGKILLed and its admin port would dangle.
    extra+=(--admin-port-file "$work/admin-port.$s"
      --admin-hold-file "$work/admin-hold.$s")
  else
    extra+=(--journal "$work/journal.$s")
    if [[ "$mode" == crash-compact ]]; then
      extra+=(--compact-bytes "$compact_bytes")
      # Kill later than plain crash mode so compaction has demonstrably
      # run (and dropped acked records) before the SIGKILL lands.
      [[ $s -eq 0 ]] && extra+=(--kill-after-bytes 4000)
    else
      # Shard 0 dies by SIGKILL mid-append, early in its stream.
      [[ $s -eq 0 ]] && extra+=(--kill-after-bytes 1000)
    fi
  fi
  launch_shard "$s" "${extra[@]}"
done

# Each server publishes its ephemeral port via atomic rename.
ports=""
for ((s = 0; s < k; s++)); do
  for _ in $(seq 1 600); do
    [[ -s "$work/port.$s" ]] && break
    # A server that died during startup will never publish its port.
    kill -0 "${pids[$s]}" 2>/dev/null || {
      echo "error: shard $s exited before publishing a port" >&2
      dump_log "$s"
      exit 1
    }
    sleep 0.05
  done
  [[ -s "$work/port.$s" ]] || {
    echo "error: shard $s never published a port" >&2
    dump_log "$s"
    exit 1
  }
  [[ -z "$ports" ]] || ports+=","
  ports+="$(cat "$work/port.$s")"
done
echo "shard ports: $ports"

echo "=== streaming device reports ==="
send_args=(send --num-shards "$k" --users "$users" --seed "$seed"
  --ports "$ports")
if [[ "$mode" != plain ]]; then
  # Small sequenced batches so shard 0's stream spans many frames, with
  # the kill landing between acks.
  send_args+=(--ack 1 --batch-size 4)
fi
"$bin" "${send_args[@]}" >"$work/send.log" 2>&1 &
send_pid=$!

declare -a reaped
if [[ "$mode" != plain ]]; then
  echo "=== waiting for the journal fault hook to SIGKILL shard 0 ==="
  set +e
  wait "${pids[0]}"
  kill_status=$?
  set -e
  if [[ $kill_status -ne 137 ]]; then
    echo "error: shard 0 exited $kill_status, expected 137 (SIGKILL)" >&2
    dump_log 0
    exit 1
  fi
  restart_extra=()
  [[ "$mode" == crash-compact ]] && restart_extra=(--compact-bytes "$compact_bytes")
  echo "shard 0 killed mid-append (exit 137); restarting on port $(cat "$work/port.0") with its journal"
  launch_shard 0 --port "$(cat "$work/port.0")" --journal "$work/journal.0" \
    "${restart_extra[@]}"
fi

# Watchdog: while the sender streams, a serve process exiting non-zero
# is a dead shard the clients would otherwise retry against until their
# attempt budgets drain — fail fast and name it. (Exit 0 is a shard
# whose single client already closed cleanly; that is the happy path.)
while kill -0 "$send_pid" 2>/dev/null; do
  for ((s = 0; s < k; s++)); do
    [[ -n "${reaped[$s]:-}" ]] && continue
    if ! kill -0 "${pids[$s]}" 2>/dev/null; then
      set +e
      wait "${pids[$s]}"
      st=$?
      set -e
      reaped[$s]=$st
      if [[ $st -ne 0 ]]; then
        echo "error: shard $s died (exit $st) while reports were streaming" >&2
        dump_log "$s"
        exit 1
      fi
    fi
  done
  sleep 0.1
done
set +e
wait "$send_pid"
send_status=$?
set -e
send_pid=""
if [[ $send_status -ne 0 ]]; then
  echo "error: send failed (exit $send_status)" >&2
  sed 's/^/  send | /' "$work/send.log" >&2 || true
  exit "$send_status"
fi
sed 's/^/  send | /' "$work/send.log"

if [[ "$mode" == plain ]]; then
  echo "=== scraping /metrics on every shard ==="
  for ((s = 0; s < k; s++)); do
    for _ in $(seq 1 600); do
      [[ -s "$work/admin-port.$s" ]] && break
      sleep 0.05
    done
    [[ -s "$work/admin-port.$s" ]] || {
      echo "error: shard $s never published an admin port" >&2
      dump_log "$s"
      exit 1
    }
    admin_port="$(cat "$work/admin-port.$s")"
    # Fail on a missing or zero core series: a registry that renders but
    # counts nothing means the pipeline silently stopped reporting.
    python3 - "$admin_port" "$s" <<'PY' || { dump_log "$s"; exit 1; }
import sys, time, urllib.request

port, shard = sys.argv[1], sys.argv[2]
required = [
    "trajldp_ingest_frames_total",
    "trajldp_ingest_connections_accepted_total",
    "trajldp_collector_reports_released_total",
    "trajldp_collector_epsilon_spent",
]
# The harness mechanism's ε: the ledger must read exactly 5 × released,
# an integer that renders exactly.
EPSILON = 5

def scrape():
    body = urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=10).read().decode()
    series = {}
    for line in body.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        series[name.split("{")[0]] = float(value)
    return series

# The shard cannot exit before the hold file appears, but its worker
# may still be draining — poll until every core series is positive and
# the ledger agrees with the release count (a mid-drain scrape can read
# the two one release apart). The deadline ends before the shard's own
# 30 s admin hold, so a failure names its series.
deadline = time.monotonic() + 20
while True:
    series = scrape()
    missing = [n for n in required if n not in series]
    if missing:
        sys.exit(f"shard {shard}: /metrics is missing {missing[0]}")
    released = series["trajldp_collector_reports_released_total"]
    spent = series["trajldp_collector_epsilon_spent"]
    stale = [n for n in required if series[n] <= 0]
    if not stale and spent == EPSILON * released:
        break
    if time.monotonic() >= deadline:
        if stale:
            sys.exit(f"shard {shard}: {stale[0]} is still "
                     f"{series[stale[0]]}, expected > 0")
        sys.exit(f"shard {shard}: trajldp_collector_epsilon_spent is "
                 f"{spent}, expected {EPSILON} x {released:.0f} released")
    time.sleep(0.1)
print(f"shard {shard}: /metrics OK "
      f"(frames={series['trajldp_ingest_frames_total']:.0f}, "
      f"released={released:.0f}, epsilon_spent={spent:.0f})")
PY
    # Release the shard: it holds its admin endpoint (and process) open
    # until this file appears.
    touch "$work/admin-hold.$s"
  done
fi

echo "=== waiting for shard processes to drain and exit ==="
status=0
for ((s = 0; s < k; s++)); do
  if [[ -n "${reaped[$s]:-}" ]]; then
    st=${reaped[$s]}
  else
    set +e
    wait "${pids[$s]}"
    st=$?
    set -e
  fi
  if [[ $st -ne 0 ]]; then
    echo "error: shard $s failed (exit $st)" >&2
    dump_log "$s"
    status=$st
  fi
done
pids=()
[[ $status -eq 0 ]] || exit "$status"
for ((s = 0; s < k; s++)); do
  sed "s/^/  shard $s | /" "$work/shard.$s.log"
done

echo "=== merging $k release file(s) and bit-comparing ==="
files=""
for ((s = 0; s < k; s++)); do
  [[ -z "$files" ]] || files+=","
  files+="$work/releases.$s"
done
"$bin" verify --num-shards "$k" --users "$users" --seed "$seed" \
  --in "$files"
echo "K=$k multi-process loopback harness [$mode]: OK"
