#!/usr/bin/env python3
"""Run one workload of the dpaxos benchmark and print its result.

    python3 perfbench/run.py --workload leader-put --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run builds the servers and the
driver from source into .bench_build/ (RelWithDebInfo, -O3, as the
repository's own build); later runs reuse that build. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1. A line before it, starting with "# info",
records the host shape and the run's parameters. The exit code is
non-zero if the build fails, a correctness check fails, or the driver
reports another set of metrics than BENCHMARK.json lists.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_driver"],
        check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench_driver")


def run_driver(binary, args, work_dir):
    """Run the driver in its own process group, so a timeout also takes
    down every server it spawned; returns its stdout."""
    proc = subprocess.Popen(
        [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
         "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
         "--work-dir=" + work_dir],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("driver did not finish in %d s" % DRIVER_TIMEOUT_S)
    finally:
        # Anything left in the group (a server the driver failed to reap)
        # is stopped before the benchmark exits.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError("driver exited with code %d" % proc.returncode)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2
    expected = spec["per_layer" if args.trace else "end_to_end"]
    expected_units = {m["name"]: m["unit"] for m in expected}

    binary = build()
    work_dir = os.path.join(WORK, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(RESULTS, exist_ok=True)

    out = run_driver(binary, args, work_dir)
    result = json.loads(out.strip().splitlines()[-1])
    with open(os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    shutil.rmtree(work_dir, ignore_errors=True)

    for violation in result["violations"]:
        log("correctness: " + violation)
    metrics = result["metrics"]
    ok = result["correct"]
    if set(metrics) != set(expected_units):
        log("driver metrics %s differ from BENCHMARK.json %s" % (
            sorted(metrics), sorted(expected_units)))
        ok = False
    for name, unit in expected_units.items():
        if name in metrics and metrics[name]["unit"] != unit:
            log("metric %s has unit %s, BENCHMARK.json says %s" % (
                name, metrics[name]["unit"], unit))
            ok = False

    print("# info " + json.dumps(result["info"], sort_keys=True))
    print(json.dumps({
        "correct": ok,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in sorted(metrics)},
    }), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, RuntimeError, OSError,
            ValueError, KeyError) as err:
        log("benchmark failed: %s" % err)
        sys.exit(1)
