#!/usr/bin/env python3
"""Runs one workload of the hypertune benchmark (see htbench/README.md).

    python3 htbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark and the hypertune_cli server as a Release build in
$CARGO_TARGET_DIR (default .bench_build); later runs only rebuild what
changed. Prints a host fingerprint, the workload's human-readable lines,
and, as the last line, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list. Exits nonzero when the
build fails, the build is not Release, or a correctness check fails.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-durable", "serve-heartbeat", "sweep-grid", "sim-traced")


def fail(message):
    print("htbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "htbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (" + " ".join(step[:2]) + ")")


def cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def fingerprint(build_dir):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout
        version = out.splitlines()[0] if out else ""
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=ROOT).stdout.strip() or "none"
    digest = hashlib.sha256()
    for top in ("src", "tools", "htbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as data:
                    digest.update(data.read())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "compiler": version,
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "git_rev": rev,
        "source_sha256": digest.hexdigest()[:16],
        "kernel": platform.release(),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)
    host = fingerprint(build_dir)
    if host["build_type"] != "Release":
        fail("refusing to report numbers from a %r build" % host["build_type"])
    print("host: " + json.dumps(host, sort_keys=True), flush=True)

    work = os.path.join(build_dir, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    binary = os.path.join(build_dir, "htbench")
    cli = os.path.join(build_dir, "hypertune", "tools", "hypertune_cli")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cli", cli, "--tables",
               os.path.join(ROOT, "tools", "golden", "tables"), "--work", work]
    # The workload runs in its own process group, so any server or peer it
    # spawned is gone when this script exits, even after a crash.
    run = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                           start_new_session=True)
    try:
        stdout, _ = run.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(run.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        run.wait()
    if stdout is None:
        fail("workload timed out")
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        fail("workload printed no result (exit %d)" % run.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in result["metrics"]:
            value = result["metrics"][name]["value"]
        elif args.trace:
            value = 0.0  # the layer does no work on this workload
        else:
            fail("workload did not report %s" % name)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    extra = sorted(set(result["metrics"]) - set(metrics))
    if extra:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(extra))
    print(json.dumps({"correct": bool(result["correct"]) and run.returncode == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if result["correct"] and run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
