#!/usr/bin/env python3
"""Compares medsync-bench result sets.

A result set is a text file holding the concatenated stdout of run.py runs
(each run prints a stamp line, then its result line), e.g.

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload rounds32 --seed $seed \\
          --seconds 35 --trace 0 >> parent.txt
    done

    compare.py PARENT CHANGE    one row per workload: each end-to-end metric
                                of BENCHMARK.json judged by the pairs rule
    compare.py --spread SET     run-to-run spread of one set against the bounds

The pairs rule: the i-th parent run and the i-th change run of a workload
form a pair, and pairs should alternate which side ran first (a warning is
printed when they do not). A metric counts as a gain only when the change
wins at least nine tenths of the pairs, ties counting for neither, and the
medians differ by more than the parent's interquartile range. It is a
regression when the change's median is worse than the parent's by more
than the metric's bound, and unresolved when either side's spread
(IQR / median) exceeds the bound, unless every change run beats every
parent run.
"""

import argparse
import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
STAMP_KEYS = ("nproc", "cpu_model", "build_type", "compiler")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(path):
    """Returns [(stamp, result)] in file order."""
    runs = []
    stamp = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "stamp" in record:
                stamp = record["stamp"]
            elif "correct" in record:
                runs.append((stamp or {}, record))
                stamp = None
    return runs


def by_workload(runs):
    grouped = {}
    for stamp, result in runs:
        workload = stamp.get("workload", "?")
        grouped.setdefault(workload, []).append((stamp, result))
    return grouped


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def metric_values(runs, name):
    return [r["metrics"][name]["value"] for _, r in runs
            if r.get("correct") and name in r.get("metrics", {})]


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def judge(parent, change, metric):
    """Verdict for one metric of one workload, with its figures."""
    direction, bound = metric["better"], metric["bound"]
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    sign = -1 if direction == "lower" else 1
    gain = sign * (c_med - p_med) / p_med if p_med else 0.0
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if (wins >= 0.9 * len(pairs) and abs(c_med - p_med) > (p_q3 - p_q1)
            and gain > 0):
        verdict = "gain"
    elif -gain > bound:
        verdict = "regression"
    elif max(spread(parent), spread(change)) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within-bound"
    return verdict, gain, wins, len(pairs)


def check_alternation(parent, change, workload):
    parent_first = [ps.get("started_at", 0) < cs.get("started_at", 0)
                    for (ps, _), (cs, _) in zip(parent, change)]
    if any(a == b for a, b in zip(parent_first, parent_first[1:])):
        print(f"warning: {workload} pairs do not alternate which side ran "
              f"first", file=sys.stderr)


def check_stamps(parent, change):
    for key in STAMP_KEYS:
        values = {str(s.get(key)) for s, _ in parent + change}
        if len(values) > 1:
            print(f"warning: runs differ in {key}: {sorted(values)}",
                  file=sys.stderr)


def compare(parent_path, change_path, spec):
    parent = by_workload(load_runs(parent_path))
    change = by_workload(load_runs(change_path))
    status = 0
    gated = [w["name"] for w in spec["workloads"]]
    for workload in gated + sorted(set(parent) - set(gated)):
        if workload not in parent or workload not in change:
            continue
        p_runs, c_runs = parent[workload], change[workload]
        check_stamps(p_runs, c_runs)
        check_alternation(p_runs, c_runs, workload)
        failed = sum(r["failed"] for _, r in c_runs) - sum(
            r["failed"] for _, r in p_runs)
        cells = []
        for metric in spec["end_to_end"]:
            p = metric_values(p_runs, metric["name"])
            c = metric_values(c_runs, metric["name"])
            if not p or not c:
                cells.append(f"{metric['name']}=missing")
                continue
            verdict, gain, wins, n = judge(p, c, metric)
            if verdict == "gain" and failed > 0:
                verdict = "gain-void(more failures)"
            if verdict == "regression":
                status = 1
            cells.append(f"{metric['name']}={verdict}({gain:+.1%},{wins}/{n})")
        print(f"{workload:<10} " + "  ".join(cells))
    return status


def report_spread(path, spec):
    status = 0
    for workload, runs in by_workload(load_runs(path)).items():
        bad = [r for _, r in runs if not r.get("correct")]
        cells = []
        for metric in spec["end_to_end"]:
            values = metric_values(runs, metric["name"])
            if len(values) < 2:
                cells.append(f"{metric['name']}=n/a")
                continue
            s = spread(values)
            mark = "" if s <= metric["bound"] / 3 else (
                "!" if s <= metric["bound"] else "!!")
            if s > metric["bound"] and metric["name"] != "setup_s":
                status = 1
            cells.append(f"{metric['name']}={statistics.median(values):.4g}"
                         f"[{s:.1%}/{metric['bound']:.0%}]{mark}")
        print(f"{workload:<10} n={len(runs)} failed_runs={len(bad)}  "
              + "  ".join(cells))
    return status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--spread", metavar="SET",
                        help="report one set's spread instead of comparing")
    parser.add_argument("sets", nargs="*", metavar="PARENT CHANGE")
    args = parser.parse_args()
    spec = load_spec()
    if args.spread:
        return report_spread(args.spread, spec)
    if len(args.sets) != 2:
        parser.error("give PARENT and CHANGE result sets")
    return compare(args.sets[0], args.sets[1], spec)


if __name__ == "__main__":
    sys.exit(main())
