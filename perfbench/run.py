#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload transfer-open --seed 1 --seconds 30 --trace 0

Builds the benchmark package (perfbench/Cargo.toml) in release mode into
$CARGO_TARGET_DIR (default .bench_build) and runs the workload as two
phases, each in a fresh process: its transfer phase (typed transfers to
durable TCP replicas) for five sixths of --seconds, then the sim-isolate
phase (the fault-injected simulator) for the rest. It prints one
information record holding each phase's record, then the result object,
which merges the phases' metrics: set-up times add up, peak RSS is the
larger of the two, span counts add up, and every other metric comes from
the one phase that measures it. The merged metrics must be exactly the
ones BENCHMARK.json lists for the run's kind (end-to-end when untraced,
per-layer when traced).

Durable stores live under .perfbench-tmp/ and are removed when a phase
ends; traced runs leave their span logs under .perfbench-out/.

Exits non-zero without a result if the build fails, a phase prints no
result, or the merged metrics do not match BENCHMARK.json; exits non-zero
with "correct": false if a correctness check fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("transfer-open", "transfer-heavy")
SIM_PHASE = "sim-isolate"
# Share of --seconds given to the transfer phase; the sim phase gets the rest.
TRANSFER_SHARE = 5 / 6
# Both phases must end well inside the 180 s a run is allowed.
DEADLINE_S = 170
# How a metric both phases print is combined; any other shared name is an error.
COMBINE = {"setup_s": sum, "peak_rss_mb": max, "trace.spans": sum}


class RunError(Exception):
    """A phase or the merge failed in a way that leaves no result to print."""


def run_phase(exe, phase, args, seconds, deadline):
    """Runs one phase in a fresh process; returns (exit code, info, result)."""
    scratch = os.path.join(".perfbench-tmp", "run-%d-%s" % (os.getpid(), phase))
    cmd = [exe, "--phase", phase, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", args.trace, "--scratch", scratch]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("phase %s exceeded the %d s deadline" % (phase, DEADLINE_S))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.splitlines()
    try:
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
        result["metrics"]
    except (IndexError, KeyError, TypeError, ValueError):
        raise RunError("phase %s (exit %d) printed no result" % (phase, proc.returncode))
    return proc.returncode, info, result


def merge(results, expected):
    """One result object from the phases' results, checked against `expected`."""
    metrics = {}
    for result in results:
        for name, m in result["metrics"].items():
            if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                raise RunError("metric %s has no value" % name)
            if name not in metrics:
                metrics[name] = dict(m)
            elif name in COMBINE and metrics[name]["unit"] == m["unit"]:
                metrics[name]["value"] = COMBINE[name]([metrics[name]["value"], m["value"]])
            else:
                raise RunError("both phases print %s" % name)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        raise RunError("metrics %s do not match BENCHMARK.json's %s" % (got, expected))
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: metrics[name] for name in expected},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in manifest[kind]}

    # Allocation counting slows every allocation in the process, so only
    # the traced sim phase, which reports sim.allocs_per_event, pays for it.
    release = os.path.join(target, "release")
    sim_exe = "perfbench-alloc" if args.trace == "1" else "perfbench"
    transfer_s = args.seconds * TRANSFER_SHARE
    phases = [(os.path.join(release, "perfbench"), args.workload, transfer_s),
              (os.path.join(release, sim_exe), SIM_PHASE, args.seconds - transfer_s)]
    deadline = time.monotonic() + DEADLINE_S
    codes, infos, results = [], {}, []
    try:
        for exe, phase, seconds in phases:
            code, info, result = run_phase(exe, phase, args, seconds, deadline)
            codes.append(code)
            infos[phase] = info
            results.append(result)
        merged = merge(results, expected)
    except RunError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 3
    print(json.dumps({"info": infos}))
    print(json.dumps(merged))
    sys.stdout.flush()
    return next((c for c in codes if c != 0), 0 if merged["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
