#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload sweep|serve|native --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The benchmark binary (perfbench/src) is
built with CMake in Release mode under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs rebuild only what changed.

Standard output: the binary's context lines, one `host: {...}` line with
the host record taken before and after the run (nproc, CPU model, build
type, load average, /proc/stat steal ticks), and last one JSON line with
exactly the keys correct, attempted, failed and metrics. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones. The full record,
and for traced runs the span list, are also written under
$CARGO_TARGET_DIR/perfbench/results/.

A bad flag, workload or value exits 2 with a one-line message; so does a
build the binary refuses to measure (unoptimised, or with a sanitizer),
whose exit code 2 is passed through. A checkout
without the library sources, a failed build or a failed run exits 1
without printing a result.
"""
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep", "serve", "native")
FLAGS = ("workload", "seed", "seconds", "trace")
RUN_TIMEOUT_S = 170


def die(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    args = {}
    i = 0
    while i < len(argv):
        a = argv[i]
        if not a.startswith("--"):
            die(2, f"unexpected argument '{a}' (flags: --{' --'.join(FLAGS)})")
        name, eq, value = a[2:].partition("=")
        if name not in FLAGS:
            die(2, f"unknown flag --{name} (flags: --{' --'.join(FLAGS)})")
        if not eq:
            i += 1
            if i == len(argv):
                die(2, f"flag --{name} needs a value")
            value = argv[i]
        if name in args:
            die(2, f"flag --{name} given twice")
        args[name] = value
        i += 1
    for name in FLAGS:
        if name not in args:
            die(2, f"missing --{name}")
    if args["workload"] not in WORKLOADS:
        die(2, f"unknown workload '{args['workload']}' "
               f"(workloads: {', '.join(WORKLOADS)})")
    for name in ("seed", "seconds"):
        if not args[name].isdigit():
            die(2, f"--{name} expects a non-negative integer, "
                   f"got '{args[name]}'")
    if not 1 <= int(args["seconds"]) <= 60:
        die(2, "--seconds must be within 1..60")
    if args["trace"] not in ("0", "1"):
        die(2, f"--trace expects 0 or 1, got '{args['trace']}'")
    return args


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "exp", "sweep.hpp")):
        die(1, f"library sources not found under {ROOT}/src; run from the "
               "root of a full checkout")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    log = sys.stderr
    # The compiler's scratch files stay inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(cache):
        r = subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                            "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log, env=env)
        if r.returncode != 0:
            die(1, "cmake configure failed")
    r = subprocess.run(["cmake", "--build", out, "-j", "2"],
                       stdout=log, stderr=log, env=env)
    if r.returncode != 0:
        die(1, "build failed")
    return os.path.join(out, "ndf_perfbench")


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def host_sample():
    """Load average and cumulative steal ticks (/proc/stat, all CPUs)."""
    load = read("/proc/loadavg").split()[:3]
    steal = None
    for line in read("/proc/stat").splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu" and len(fields) > 8:
            steal = int(fields[8])
    return {"time": time.time(), "loadavg": [float(x) for x in load],
            "steal_ticks": steal}


def cpu_model():
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def main():
    args = parse_args(sys.argv[1:])
    binary = build()
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{args['workload']}-seed{args['seed']}-trace{args['trace']}"
    cmd = [binary, f"--workload={args['workload']}", f"--seed={args['seed']}",
           f"--seconds={args['seconds']}", f"--trace={args['trace']}"]
    if args["trace"] == "1":
        cmd.append(f"--spans-out={os.path.join(results, tag + '.spans.json')}")

    before = host_sample()
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(1, f"benchmark binary did not finish within {RUN_TIMEOUT_S} s")
    after = host_sample()
    if run.returncode != 0:
        die(run.returncode if run.returncode in (1, 2) else 1,
            f"benchmark binary exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        die(1, "benchmark binary printed no result")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die(1, "benchmark binary result line has unexpected keys")
    build_type = next((l[len("build: "):] for l in lines
                       if l.startswith("build: ")), "unknown")

    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": build_type,
        "loadavg_before": before["loadavg"],
        "loadavg_after": after["loadavg"],
        "steal_ticks_delta": (None if before["steal_ticks"] is None else
                              after["steal_ticks"] - before["steal_ticks"]),
        "wall_s": round(after["time"] - before["time"], 3),
    }
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump({"args": args, "host": host, "context": lines[:-1],
                   "result": result}, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print("host: " + json.dumps(host))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
