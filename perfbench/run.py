#!/usr/bin/env python3
"""Firmament repository benchmark.

    python3 perfbench/run.py --workload steady-churn --seed 1 --seconds 30 --trace 0

Run from the repository root. It builds the benchmark worker
(perfbench/pbench.exe) and the firmament_serve daemon with dune, then starts
WORKERS worker processes one after another. Each worker generates
its inputs from the seed, sets up (its set-up time is one setup_s sample),
measures for an equal share of the seconds, and checks its results. Samples
are pooled across workers, so one run never rests on one process or one
input.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1. The lines before it print every metric of the workload, including
those only one workload has, and the traced run writes Chrome trace-event
JSON under .perfbench/. Exit status: 0 on a correct run, 1 when a
correctness check failed, 2 when the benchmark could not run.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

WORKLOADS = ("steady-churn", "firehose")
WORKERS = 4  # worker processes per run
OUT_DIR = ".perfbench"
WORKER_EXE = os.path.join("_build", "default", "perfbench", "pbench.exe")
SERVE_EXE = os.path.join("_build", "default", "bin", "firmament_serve.exe")

# The gated metrics: every workload measures each of them. The host runs
# in fast and slow phases of seconds each, so a run's placements form two
# modes. Every run has enough slow time for p90 to sit in the slow mode,
# but not every run has fast time, and the median falls in whichever mode
# holds more of the run; p10 and the median are printed, not gated.
END_TO_END = {
    "setup_s": "s",
    "placement_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics every workload reports (means per scheduling round over
# the window, from the in-process registry or the daemon's scrape).
PER_LAYER = {
    "sched.round_ms": "ms",
    "sched.refresh_ms": "ms",
    "sched.solve_ms": "ms",
    "sched.adopt_ms": "ms",
    "sched.extract_ms": "ms",
    "sched.prepare_ms": "ms",
    "sched.apply_ms": "ms",
    "race.solve_win_ms": "ms",
    "race.solve_wait_ms": "ms",
    "race.wins_relaxation": "count",
    "race.wins_cost_scaling": "count",
    "race.wins_repair": "count",
    "race.winner_only": "count",
    "repair.attempts": "count",
    "repair.success_frac": "ratio",
    "repair.giveups": "count",
    "relax.pushes": "count",
    "cs.pushes": "count",
    "cs.relabels": "count",
    "refine.certified": "count",
    "graph.changes_per_round": "count",
    "ingest.events_per_round": "count",
    "trace.overhead_ms": "ms",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", os.path.join("lib", "firmament"), os.path.join("bin", "firmament_serve.ml")):
        if not os.path.exists(need):
            fail("run from the repository root (missing %s)" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/pbench.exe", "./bin/firmament_serve.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed")


def traced(args, k):
    """A traced run records spans in every other worker; the rest give the
    untraced baseline for the tracing overhead."""
    return int(args.trace == 1 and k % 2 == 0)


def sub_seed(args, k):
    """Each worker draws its inputs from its own sub-seed, so one run
    averages over several inputs as well as several processes. In a traced
    run each traced worker shares its sub-seed with the untraced worker
    after it, so the two differ only in tracing."""
    return args.seed * 100 + (k // 2 if args.trace else k)


def run_worker(args, k, window):
    out = os.path.join(OUT_DIR, "w%d.json" % k)
    trace_out = os.path.join(OUT_DIR, "w%d.trace.json" % k)
    for f in (out, trace_out):
        if os.path.exists(f):
            os.remove(f)
    cmd = [WORKER_EXE, "--workload", args.workload, "--seed", str(sub_seed(args, k)),
           "--seconds", "%.3f" % window, "--trace", str(traced(args, k)), "--out", out,
           "--trace-out", trace_out, "--worker", str(k), "--dir", OUT_DIR, "--serve", SERVE_EXE]
    ladder = args.workload == "firehose" and k == WORKERS - 1
    if ladder:
        cmd.append("--ladder")
    # The daemon's queue depth is scraped during the window of a traced
    # run, by traced and untraced workers alike.
    if args.workload == "firehose" and args.trace:
        cmd.append("--sample-depth")
    # Own process group, so no daemon outlives its worker, even one that
    # timed out or died.
    p = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, start_new_session=True)
    try:
        # The ladder may drive the daemon past capacity and wait for it to
        # recover; other workers only need room for set-up and drain.
        code = p.wait(timeout=window + (120 if ladder else 45))
    except subprocess.TimeoutExpired:
        code = None
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    p.wait()
    if code is None:
        fail("worker %d timed out" % k)
    if code != 0 or not os.path.exists(out):
        fail("worker %d exited with %d" % (k, code))
    with open(out) as f:
        res = json.load(f)
    events = []
    if args.trace and os.path.exists(trace_out):
        with open(trace_out) as f:
            events = json.load(f)
    return res, events


def decile(xs, k):
    return statistics.quantiles(xs, n=10, method="inclusive")[k - 1]


def median_of(results, key):
    vals = [r[key] for r in results if r.get(key) is not None]
    return statistics.median(vals) if vals else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    window = args.seconds / WORKERS
    results, events = [], []
    for k in range(WORKERS):
        res, ev = run_worker(args, k, window)
        results.append(res)
        events.extend(ev)

    errors = [e for r in results for e in r["errors"]]
    # A phase-name consistency check: the registry's round time is the sum
    # of the phases named in out.ml. Workers in process also check the
    # phases against their own timing of each round.
    for r in results:
        if r["layers"].get("sched.phase_gap_ms") != 0:
            errors.append("the registry's scheduler phases do not sum to its round time")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    placement = [x for r in results for x in r["placement_ms"]]
    if not placement:
        errors.append("no task was placed in the window")
    values = {
        "setup_s": median_of(results, "setup_s"),
        "placement_p90_ms": decile(placement, 9) if len(placement) > 1 else None,
        "peak_rss_mb": median_of(results, "peak_rss_mb"),
    }

    # Everything this workload measures, printed by name with its unit.
    print("workload %s  seed %d  workers %d x %.2f s  trace %d"
          % (args.workload, args.seed, WORKERS, window, args.trace))
    print("  %-26s %12s  %s" % ("metric", "value", "unit"))
    for name, unit in END_TO_END.items():
        v = values[name]
        print("  %-26s %12s  %s" % (name, "n/a" if v is None else "%.4f" % v, unit))
    extra = {}
    if len(placement) > 1:
        extra["placement_p10_ms"] = (decile(placement, 1), "ms")
        extra["placement_p50_ms"] = (statistics.median(placement), "ms")
    rounds = [x for r in results for x in r.get("round_ms", [])]
    if rounds:
        extra["round_p50_ms"] = (statistics.median(rounds), "ms")
        extra["round_p90_ms"] = (decile(rounds, 9), "ms")
    recovery = [x for r in results for x in r.get("recovery_s", [])]
    if recovery:
        extra["recovery_s"] = (statistics.median(recovery), "s")
    rates = [r["max_rate_eps"] for r in results if r.get("max_rate_eps") is not None]
    if rates:
        extra["max_rate_eps"] = (statistics.median(rates), "1/s")
    for name, (v, unit) in extra.items():
        print("  %-26s %12.4f  %s" % (name, v, unit))
    print("  samples: %d placements, %d rounds, %d restores" % (len(placement), len(rounds), len(recovery)))
    for r in results:
        if "ladder" in r:
            for eps, q90, ok in r["ladder"]:
                print("  ladder %7.0f events/s  p90 %8.2f ms  %s" % (eps, q90 if q90 is not None else float("inf"), "ok" if ok else "FAIL"))
        if "fingerprint" in r:
            print("  settle fingerprint %s  winners %s" % (r["fingerprint"], json.dumps(r["winners"], sort_keys=True)))

    layers = {}
    for name in sorted({k for r in results for k in r["layers"]}):
        vals = [r["layers"][name] for r in results if r["layers"].get(name) is not None]
        if vals:
            layers[name] = statistics.median(vals)
    if args.trace:
        on = [x for k, r in enumerate(results) if traced(args, k) for x in r["placement_ms"]]
        off = [x for k, r in enumerate(results) if not traced(args, k) for x in r["placement_ms"]]
        if on and off:
            layers["trace.overhead_ms"] = statistics.median(on) - statistics.median(off)
        print("  per-layer (median over workers; means per round unless named otherwise)")
        for name, v in layers.items():
            print("    %-30s %14.4f" % (name, v))
        trace_file = os.path.join(OUT_DIR, "trace-%s-s%d.json" % (args.workload, args.seed))
        with open(trace_file, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
        print("  chrome trace: %s (%d spans)" % (trace_file, len(events)))
    for e in errors[:10]:
        print("  CHECK FAILED: " + e)
    if len(errors) > 10:
        print("  ... and %d more failed checks" % (len(errors) - 10))

    correct = not errors and all(values[n] is not None for n in END_TO_END)
    if args.trace:
        metrics = {n: {"value": layers.get(n, 0.0), "unit": u} for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
