#!/usr/bin/env python3
"""medsync-bench entry point: builds medsync_bench and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. The first run configures and builds
perfbench/ (and with it ../src) in Release mode under .bench_build, or
under $CARGO_TARGET_DIR when that is set; later runs only check that the
build is current.

Output, on stdout:
  * a stamp line: {"stamp": {...}, "detail": {...}} with nproc, CPU model,
    build type, compiler, git commit (when the tree is a git checkout), a
    digest of the sources, the seed and the start time, and the detail
    record of medsync_bench (episodes, fingerprints, sample counts);
  * as the last line: {"correct", "attempted", "failed", "metrics"}.

Exit status is 0 only when the build succeeded, the build is optimized and
unsanitized, and every correctness oracle passed. A failed build or a
refused build prints no result.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("rounds32", "bigview4k", "soak16", "loopback4")
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")
# Slack beyond --seconds for the last episode, the probes and exit.
RUN_SLACK_S = 150


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def build():
    """Configures (once) and builds medsync_bench; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "medsync_bench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            log(f"build step failed: {' '.join(step)}")
            return None
    return os.path.join(out, "medsync_bench")


def cmake_cache():
    cache = {}
    with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
        for line in f:
            match = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$",
                             line.rstrip("\n"))
            if match:
                cache[match.group(1)] = match.group(2)
    return cache


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True)
    return result.stdout.strip() if result.returncode == 0 else None


def source_digest():
    """SHA-256 over the paths and bytes of src/ and perfbench/ sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def stamp(cache, args):
    flags = " ".join(v for k, v in cache.items()
                     if k.startswith("CMAKE_CXX_FLAGS"))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": cache.get("CMAKE_CXX_COMPILER", ""),
        "sanitized": "-fsanitize" in flags,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_at": time.time(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workload sizes, for self-tests")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one view before the oracles (must fail)")
    parser.add_argument("--soak-reference", action="store_true",
                        help="soak16: cross-check against RunGeneratedSoak")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    cache = cmake_cache()
    info = stamp(cache, args)
    if info["build_type"] not in OPTIMIZED_BUILD_TYPES or info["sanitized"]:
        log(f"refusing to report timings from build type "
            f"'{info['build_type']}' (sanitized: {info['sanitized']})")
        return 3

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for flag in ("tiny", "tamper", "soak_reference"):
        if getattr(args, flag):
            command.append("--" + flag.replace("_", "-"))
    timeout = args.seconds + RUN_SLACK_S
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"medsync_bench exceeded {timeout:.0f} s")
        return 1
    lines = result.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"medsync_bench printed no result (exit {result.returncode})")
        return 1

    print(json.dumps({"stamp": info, "detail": record.get("detail", {})}))
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({key: record[key] for key in keys}))
    return 0 if result.returncode == 0 and record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
