#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 15 --trace 0

Configures and builds perfbench/ (the ffsm library, the shard worker and
the perfbench driver, Release) into .bench_build/perfbench, runs one
workload and relays the driver's output. The last line of standard output
is the result: one JSON object with correct, attempted, failed and metrics.
Trace files and per-run reports land in .bench_out/.

Seeds: 1 is the default; 7919 is held out, so a claim made on other seeds
can be rechecked on a seed its author did not tune on.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("serve-cold", "serve-warm-wire", "serve-evict", "dataplane")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds incrementally; build output goes to
    standard error so the result stays the last line of standard output."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail("the library sources (src/, CMakeLists.txt) are missing")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                          str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j",
                      str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                fail("build failed")


def provenance():
    """The git commit when there is one, and a digest of every source file
    the benchmark builds, which identifies the code in a plain checkout."""
    commit = "none"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / tree).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return commit, digest.hexdigest()


def stop_group(pgid):
    """Kills whatever the driver left in its process group (a shard worker
    orphaned by a crash) and waits briefly for it to go."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    commit, source_sha = provenance()
    command = [str(BUILD / "bin" / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(OUT), "--commit", commit,
               "--source-sha", source_sha]
    driver = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        stdout, _ = driver.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(driver.pid)
        driver.wait()
        fail(f"{args.workload} ran past {RUN_TIMEOUT_S} s", 1)
    finally:
        stop_group(driver.pid)

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(stdout)
        fail(f"driver exited {driver.returncode} without a result", 1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if list(result["metrics"]) != expected_metrics(args.trace):
        fail("the driver's metrics differ from BENCHMARK.json", 1)
    print(lines[-1], flush=True)
    return driver.returncode


if __name__ == "__main__":
    sys.exit(main())
