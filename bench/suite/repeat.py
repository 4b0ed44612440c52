#!/usr/bin/env python3
"""Repeat and compare tooling of the collector benchmark.

  repeat.py repeat --repeat N [--workload W] [--seed S] [--seconds T]
                   [--trace 0|1] [--smoke] [--json OUT]
      Runs each workload (or W) N times with seeds S, S+1, ... through
      bench/suite/run.sh and prints, per metric, the median, quartiles,
      min and max. An end-to-end metric whose spread (IQR / median) is
      wider than its bound in BENCHMARK.json is flagged. A run whose
      output check failed is kept and counted, and makes the exit code 1.
      With --json the runs and the summary are written to OUT after every
      run; runs already in OUT are kept and the new ones appended, so
      calling it with --repeat 1 on two checkouts in turn builds
      alternating pairs.

  repeat.py compare PARENT.json CHANGE.json
      Applies the gain rule and each end-to-end metric's no-regression
      bound to two files written by `repeat`, one row per workload. Layer
      metrics (files of --trace 1 runs) get the gain rule only. Exits 1
      when a metric regressed.

Quartiles are statistics.quantiles(values, n=4), the method the bounds in
BENCHMARK.json were checked with.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# The gain rule (bench/suite/README.md, "Comparing two commits").
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(values):
    p25, p75 = quartiles(values)
    median = statistics.median(values)
    return {
        "median": median,
        "p25": p25,
        "p75": p75,
        "min": min(values),
        "max": max(values),
        "spread": (p75 - p25) / abs(median) if median else 0.0,
        "n": len(values),
    }


def host():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def run_once(workload, seed, seconds, trace, smoke):
    """One run through run.sh. A run whose output check failed (exit 1)
    is recorded with correct=false; None when the run did not complete."""
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"run failed ({proc.returncode}): {' '.join(cmd)}",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "units": {k: v["unit"] for k, v in result["metrics"].items()},
    }


def summary_of(runs):
    table = {}
    for workload, entries in runs.items():
        names = entries[0]["metrics"].keys()
        table[workload] = {
            name: dict(summarize([e["metrics"][name] for e in entries]),
                       unit=entries[0]["units"][name])
            for name in names
        }
    return table


def print_summary(table, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    flagged = 0
    for workload, metrics in table.items():
        print(f"== {workload}")
        print(f"  {'metric':38s} {'median':>12s} {'p25':>12s} {'p75':>12s}"
              f" {'min':>12s} {'max':>12s} {'IQR/med':>8s}")
        for name, s in metrics.items():
            flag = ""
            if name in bounds and s["spread"] > bounds[name]:
                flag = f"  SPREAD > bound {bounds[name]}"
                flagged += 1
            print(f"  {name:38s} {s['median']:12.6g} {s['p25']:12.6g}"
                  f" {s['p75']:12.6g} {s['min']:12.6g} {s['max']:12.6g}"
                  f" {s['spread']:8.4f} {s['unit']}{flag}")
    return flagged


def write_doc(path, doc):
    if path:
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


def cmd_repeat(argv):
    parser = argparse.ArgumentParser(prog="run.sh --repeat")
    parser.add_argument("--repeat", type=int, required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--json")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]

    settings = {"seconds": seconds, "trace": args.trace, "smoke": args.smoke}
    doc = dict(settings, host=host(), runs={})
    if args.json and os.path.exists(args.json):
        with open(args.json) as f:
            doc = json.load(f)
        if any(doc.get(k) != v for k, v in settings.items()):
            sys.exit(f"{args.json} holds runs of other settings")
    for i in range(args.repeat):
        for workload in workloads:
            entry = run_once(workload, args.seed + i, seconds, args.trace,
                             args.smoke)
            if entry is None:
                write_doc(args.json, doc)
                return 2
            doc["runs"].setdefault(workload, []).append(entry)
            write_doc(args.json, doc)
            print(f"{workload} seed {entry['seed']}: "
                  f"{'correct' if entry['correct'] else 'WRONG OUTPUT'}",
                  flush=True)
    doc["summary"] = summary_of(doc["runs"])
    flagged = print_summary(doc["summary"], bench)
    write_doc(args.json, doc)
    wrong = sum(not e["correct"] for es in doc["runs"].values() for e in es)
    if wrong:
        print(f"{wrong} runs had wrong outputs")
    if flagged:
        print(f"{flagged} end-to-end spreads exceed their bound")
    return 1 if wrong else 0


def verdict(parent, change, better, bound):
    """The verdict for one (metric, workload) pair and the median gap.
    Layer metrics have no bound (None): they get gain, better or ok."""
    lower = better == "lower"
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    # Positive `worse` means the change is worse, as a share of the parent.
    worse = (c_med - p_med) / abs(p_med) if p_med else 0.0
    if not lower:
        worse = -worse

    pairs = list(zip(parent, change))
    wins = sum((c < p) if lower else (c > p) for p, c in pairs)
    p25, p75 = quartiles(parent)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(c_med - p_med) > p75 - p25 and worse < 0):
        return "gain", worse
    all_better = (max(change) < min(parent)) if lower else (
        min(change) > max(parent))
    if all_better:
        return "better", worse
    if bound is None:
        return "ok", worse
    spread = (p75 - p25) / abs(p_med) if p_med else 0.0
    if spread > bound:
        return "unresolved", worse
    if worse > bound:
        return "REGRESSION", worse
    return "ok", worse


def cmd_compare(argv):
    parser = argparse.ArgumentParser(prog="run.sh compare")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    with open(args.parent) as f:
        parent = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    for key in ("seconds", "trace", "smoke"):
        if parent.get(key) != change.get(key):
            sys.exit(f"the two files were run with different --{key}")

    regressions = 0
    print("verdicts: gain (the gain rule holds), better (every change run "
          "beats every parent run), ok (within bound), unresolved (parent "
          "spread wider than the bound), REGRESSION; gap = change vs parent "
          "median, + is worse")
    for workload in parent["runs"]:
        if workload not in change["runs"]:
            continue
        p_runs = parent["runs"][workload]
        c_runs = change["runs"][workload]
        cells = []
        for metric in bench["end_to_end"] + bench["per_layer"]:
            name = metric["name"]
            p = [r["metrics"][name] for r in p_runs if name in r["metrics"]]
            c = [r["metrics"][name] for r in c_runs if name in r["metrics"]]
            if not p or not c:
                continue
            v, worse = verdict(p, c, metric["better"], metric.get("bound"))
            regressions += v == "REGRESSION"
            cells.append(f"{name} {v} {100 * worse:+.1f}%")
        pairs = min(len(p_runs), len(c_runs))
        print(f"{workload} ({pairs} pairs): " + "; ".join(cells))
    return 1 if regressions else 0


def main():
    if len(sys.argv) < 2 or sys.argv[1] not in ("repeat", "compare"):
        sys.exit(__doc__)
    command = cmd_repeat if sys.argv[1] == "repeat" else cmd_compare
    return command(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
