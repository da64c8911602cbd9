#!/usr/bin/env python3
"""Build and run the UniStore benchmark.

One workload, as the BENCHMARK.json command runs it (the last line of output
is the JSON result):

    python3 perfbench/run.py --workload point_rw --seed 1 --seconds 30 --trace 0

Every workload in a fresh process, with a table of every end-to-end metric:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

The sensitivity check (each workload against the facade's baseline arm):

    python3 perfbench/run.py --sensitivity [--seed N] [--seconds S]

Run it from the root of a checkout; it builds perfbench/perfbench.exe with
dune first. Traced runs (--trace 1) write their spans as Chrome trace-event
JSON to .perfbench/spans-<workload>-<seed>.json. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join(ROOT, ".perfbench")
# flash_crowd runs here and in the sensitivity check but is not one of
# BENCHMARK.json's workloads (see README.md).
WORKLOADS = ["point_rw", "analytic", "bulk_ingest", "flash_crowd"]

# The predicted effect of each workload's baseline arm: the end-to-end
# metric it must move, and the direction, by more than the metric's bound.
SENSITIVITY = {
    "point_rw": ("no_cache", "msgs_per_op", "up"),
    "analytic": ("no_rank_config", "ops_per_host_s", "down"),
    "bulk_ingest": ("no_batch", "msgs_per_op", "up"),
    "flash_crowd": ("no_balancing", "sim_ms_p99", "up"),
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune not found")


def build():
    cmd = dune() + ["build", "--root", ROOT, "-j", "2", "./perfbench/perfbench.exe"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_one(workload, seed, seconds, trace, arm="default", echo=True):
    """Run one workload in a fresh process; return its parsed result."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--arm", arm, "--commit", commit()]
    if trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT, "spans-%s-%d.json" % (workload, seed))]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("%s exited with %d" % (workload, r.returncode))
    lines = r.stdout.strip().splitlines()
    if echo:
        sys.stdout.write(r.stdout)
        sys.stdout.flush()
    return json.loads(lines[-1])


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def run_all(seed, seconds):
    results = {w: run_one(w, seed, seconds, False, echo=False) for w in WORKLOADS}
    names = list(results[WORKLOADS[0]]["metrics"])
    print("%-22s" % "metric" + "".join("%16s" % w for w in WORKLOADS))
    for n in names:
        unit = results[WORKLOADS[0]]["metrics"][n]["unit"]
        print("%-22s" % ("%s (%s)" % (n, unit))
              + "".join("%16.6g" % results[w]["metrics"][n]["value"] for w in WORKLOADS))
    for key in ("correct", "attempted", "failed"):
        print("%-22s" % key + "".join("%16s" % results[w][key] for w in WORKLOADS))
    return all(r["correct"] for r in results.values())


def sensitivity(seed, seconds):
    """Each workload in the order default, baseline, baseline, default, so
    a host whose speed drifts steadily through the four runs moves both
    arms' means alike."""
    spec = bounds()
    ok = True
    for w in WORKLOADS:
        arm, metric, direction = SENSITIVITY[w]
        runs = {"default": [], "baseline": []}
        for a in ("default", "baseline", "baseline", "default"):
            runs[a].append(run_one(w, seed, seconds, False, arm=a, echo=False)["metrics"][metric]["value"])
        base = sum(runs["default"]) / 2
        other = sum(runs["baseline"]) / 2
        change = (other - base) / base
        moved = change > spec[metric]["bound"] if direction == "up" else -change > spec[metric]["bound"]
        ok = ok and moved
        print("%-12s %-15s %-15s default %-12.6g %-13s %-12.6g change %+7.1f%%  bound %4.0f%%  %s" % (
            w, metric, "should go " + direction, base, arm, other, 100 * change,
            100 * spec[metric]["bound"], "PASS" if moved else "FAIL"))
    return ok


def main():
    p = argparse.ArgumentParser(description="UniStore benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="every workload, one table")
    p.add_argument("--sensitivity", action="store_true", help="baseline-arm sensitivity check")
    a = p.parse_args()
    if not (a.workload or a.all or a.sensitivity):
        p.error("give --workload, --all or --sensitivity")
    build()
    if a.sensitivity:
        sys.exit(0 if sensitivity(a.seed, a.seconds) else 1)
    if a.all:
        sys.exit(0 if run_all(a.seed, a.seconds) else 1)
    run_one(a.workload, a.seed, a.seconds, a.trace == 1)


if __name__ == "__main__":
    main()
