#!/usr/bin/env python3
"""Self-tests of medsync-bench. Run from the repository root:

    python3 perfbench/selftest.py

Every check runs every workload run.py knows (the ones BENCHMARK.json gates
and the ones run by hand) at --tiny size through run.py:
  1. each workload, untraced and traced, succeeds and prints every
     end-to-end and per-layer metric BENCHMARK.json names, and nothing else,
     and an untraced run's detail record holds the same end-to-end figures
     unscaled;
  2. a tampered oracle input (one row of a peer's shared view deleted behind
     the protocol's back) makes each workload exit nonzero, correct=false;
  3. counts (and the simulated protocol latencies) repeat exactly across two
     traced runs of one seed, as does the first episode's state fingerprint,
     on the simulated workloads (loopback4 runs on wall-clock blocks);
  4. soak16's event-by-event replay reaches the same state fingerprint as
     core::RunGeneratedSoak.
Exits nonzero on the first failed check.
"""

import json
import os
import subprocess
import sys

from run import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SIMULATED = ("rounds32", "bigview4k", "soak16")
EXACT_UNITS = ("count", "ratio", "B", "KiB")
EXACT_NAMES = ("core.protocol_latency_s_p50", "core.protocol_latency_s_p90")


def run(workload, seed, trace, *flags):
    """Returns (exit code, detail, result) of one tiny run.py run."""
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--tiny", *flags]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"] if len(lines) >= 2 else {}
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, detail, result


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    gated = [w["name"] for w in spec["workloads"]]
    workloads = gated + [w for w in WORKLOADS if w not in gated]
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}

    traced = {}
    for workload in workloads:
        for trace in (0, 1):
            code, detail, result = run(workload, 7, trace)
            if code != 0 or not result.get("correct") or result["failed"]:
                fail(f"{workload} trace={trace}: exit {code}, {result}")
            printed = set(result["metrics"])
            if printed != names[trace]:
                fail(f"{workload} trace={trace}: missing "
                     f"{sorted(names[trace] - printed)}, extra "
                     f"{sorted(printed - names[trace])}")
            if trace == 0 and set(detail.get("unscaled", {})) != names[0]:
                fail(f"{workload}: detail lacks the unscaled figures")
            if trace == 1:
                traced[workload] = (detail, result)
        print(f"ok   {workload}: every named metric printed")

    for workload in workloads:
        code, _, result = run(workload, 7, 0, "--tamper")
        if code == 0 or result.get("correct", False):
            fail(f"{workload}: tampered view passed the oracles")
        print(f"ok   {workload}: tampered view fails the run (exit {code})")

    for workload in SIMULATED:
        code, detail, result = run(workload, 7, 1)
        if code != 0:
            fail(f"{workload}: second traced run failed")
        first_detail, first = traced[workload]
        if detail["fingerprints"][0] != first_detail["fingerprints"][0]:
            fail(f"{workload}: first-episode fingerprint differs across runs")
        for name, metric in first["metrics"].items():
            if metric["unit"] in EXACT_UNITS or name in EXACT_NAMES:
                again = result["metrics"][name]["value"]
                if again != metric["value"]:
                    fail(f"{workload}: {name} {metric['value']} then {again}")
        print(f"ok   {workload}: counts repeat exactly for a seed")

    for seed in (3, 4):
        code, _, result = run("soak16", seed, 0, "--soak-reference")
        if code != 0 or not result.get("correct"):
            fail(f"soak16 seed {seed}: replay differs from RunGeneratedSoak")
    print("ok   soak16: event-by-event replay matches RunGeneratedSoak")
    return 0


if __name__ == "__main__":
    sys.exit(main())
