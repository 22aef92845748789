#!/usr/bin/env python3
"""Determinism, Theorem 1 and timing gates for a Release build.

sweep   ndf_sweep smoke grid at --jobs=1 vs 4 (plain, --misses, explicit
        --cache=lru, traced), the Theorem 1 check of bench_cache_miss, and
        the timed gate and --stress grids. Writes BENCH_sweep_parallel.json
        and BENCH_cache_miss.json.
serve   ndf_serve --soak timed at --jobs=1 vs 4 (every same-seed rerun must
        equal the first), then --misses and traced. Writes BENCH_serve.json.
native  ndf_native --smoke, the 1-vs-4-thread scaling grid (which writes
        BENCH_native.json) and hard accounting-sanity bounds on it.

Any byte difference fails and names the file; the timed runs are also
the identity runs. Every --json must parse and every --csv row must be as
wide as its header, with one row per sweep run or served job. The sweep
gate's timed grids alternate --jobs=1 and --jobs=4 runs over 5 rounds and
compare medians, so a drift in host load hits both sides; it records each
side's spread and the host's steal ticks.
The serve gate keeps the best of 3 per side. Both gates time a fixed
single-thread calibration loop before and after their timed runs, record
it with the steal ticks under "host", and print it beside each speedup,
so a slow or loaded host shows next to the figure it moved. A speedup
below target only warns, as shared runners are too noisy for a hard
latency gate: PERF_GATE_STRICT=1 makes it fail. The stress grid runs the binary's
--stress workloads on seven machines (STRESS_MACHINES; the binary's own
grid has three) and STRESS_REPEAT sets its repeat axis (default 8, so its
serial run takes >= 1 s, about 1.2 s on a 4-vCPU Xeon; the strict nightly
run uses 14). Repeats scale only the seeded ws cells: the sweep simulates
a seed-free policy's repeats once.
"""
import argparse
import csv
import filecmp
import json
import os
import re
import statistics
import subprocess
import sys
import time

JOBS = 4  # --jobs / --threads of every parallel run
MIN_SPEEDUP = {"sweep": 2.5, "serve": 1.5, "native": 1.5}
# The timed sweep grid takes >= 1 s serially (about 1.2 s on a 4-vCPU
# Xeon, of which the workload build and condensation phases take about
# 0.15 s), so thread startup and those phases do not dominate its speedup.
# Repeats scale only the ws cells, so cheaper cells need more workloads or
# machines to keep it there.
GATE_GRID = ("--name=perf-gate",
             "--workloads=mm:n=128;lcs:n=1024;cholesky:n=128;trs:n=128;"
             "lu:n=128;gen:family=sp,depth=8,fan=4,seed=7;"
             "gen:family=sp,depth=9,fan=4,seed=11;gen:family=wavefront,n=32;"
             "gen:family=wavefront,n=96;gen:family=forkjoin,depth=64,fan=48;"
             "gen:family=diamond,depth=128,fan=24;gen:family=chain,n=4096",
             "--machines=flat16;deep4x4;deep2x4;twotier:s=2,c=8;"
             "twotier:s=4,c=4",
             "--sched=sb,ws,greedy,serial", "--sigma=0.33", "--repeat=8")
STRESS_MACHINES = ("--machines=flat16;deep4x4;deep2x4;twotier:s=2,c=8;flat8;"
                   "twotier:s=4,c=4;twotier:s=8,c=2")


def fail(msg, detail=""):
    if detail:
        print(detail, file=sys.stderr)
    sys.exit(f"FAIL: {msg}")


class Gate:
    def __init__(self, build, name):
        self.build = build
        self.out = os.path.join(build, f"{name}-gate")

    def require(self, *drivers):
        """Fails unless every driver is built, then makes the output dir."""
        for d in drivers:
            if not os.access(os.path.join(self.build, d), os.X_OK):
                fail(f"{self.build}/{d} not found or not executable — build "
                     f"it first: cmake --build {self.build} --target {d}")
        os.makedirs(self.out, exist_ok=True)

    def path(self, name):
        return os.path.join(self.out, name)

    def run(self, driver, prefix, *args, outputs=True):
        """Runs the driver with stdout in <prefix>.txt and, if `outputs`,
        --json/--csv in <prefix>.{json,csv}. Returns (wall s, peak RSS KB).
        RSS comes from wait4: one process runs every grid here, so the
        getrusage(RUSAGE_CHILDREN) high-water mark would carry one grid's
        peak into the next."""
        p = self.path(prefix)
        cmd = [os.path.join(self.build, driver), *args]
        if outputs:
            cmd += [f"--json={p}.json", f"--csv={p}.csv"]
        with open(f"{p}.txt", "w") as stdout:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=stdout)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            fail(f"{' '.join(cmd)} exited {proc.returncode}")
        if outputs:
            self.well_formed(p)
        return wall, usage.ru_maxrss

    @staticmethod
    def well_formed(p):
        """The identity checks pass a deterministic renderer bug, so each
        --json must parse and each --csv row be as wide as its header, one
        row per sweep run or per served job."""
        with open(f"{p}.json") as f:
            doc = json.load(f)
        with open(f"{p}.csv", newline="") as f:
            header, *rows = csv.reader(f)
        for i, row in enumerate(rows, 1):
            if len(row) != len(header):
                fail(f"{p}.csv row {i}: {len(row)} fields, header has "
                     f"{len(header)}")
        want = (len(doc["runs"]) if "sweep" in doc
                else sum(len(c["jobs"]) for c in doc["cells"]))
        if len(rows) != want:
            fail(f"{p}.csv has {len(rows)} rows, {p}.json {want} runs/jobs")

    def same_file(self, a, b, label):
        if filecmp.cmp(a, b, shallow=False):
            return
        with subprocess.Popen(["diff", a, b], stdout=subprocess.PIPE,
                              text=True) as diff:
            head = [line for _, line in zip(range(20), diff.stdout)]
            diff.kill()
        fail(f"{label}: {b} differs from {a}", "".join(head).rstrip())

    def identical(self, a, b, label):
        for ext in ("txt", "json", "csv"):
            self.same_file(f"{self.path(a)}.{ext}", f"{self.path(b)}.{ext}",
                           label)
        print(f"OK: {label} byte-identical")

    def pair(self, driver, name, label, *args, reps=1, median=False):
        """Runs a grid `reps` times at --jobs=1 and at --jobs=JOBS, the two
        alternating: every rerun and the parallel run must equal the first
        serial run. Returns the BENCH record (grid, raw walls, the best or,
        with `median`, the median wall and its spread, peak RSS, speedup)."""
        rec = {"grid": " ".join((driver, *args))}
        sides = ((1, "serial"), (JOBS, "parallel"))
        walls = {key: [] for _, key in sides}
        rss = {key: 0 for _, key in sides}
        for rep in range(reps):
            for jobs, key in sides:
                prefix = f"{name}-{key}" + ("-rerun" if rep else "")
                wall, peak = self.run(driver, prefix, *args, f"--jobs={jobs}")
                walls[key].append(round(wall, 4))
                rss[key] = max(rss[key], peak)
                if rep:
                    self.identical(f"{name}-{key}", prefix,
                                   f"{label} rerun {rep} at --jobs={jobs}")
        for _, key in sides:
            w = walls[key]
            rec[f"{key}_wall_runs_s"] = w
            rec[f"{key}_wall_s"] = statistics.median(w) if median else min(w)
            if median:
                # Range over median: how far apart the rounds were.
                rec[f"{key}_wall_spread"] = round(
                    (max(w) - min(w)) / rec[f"{key}_wall_s"], 3)
            rec[f"{key}_peak_rss_kb"] = rss[key]
        self.identical(f"{name}-serial", f"{name}-parallel",
                       f"{label}, --jobs=1 vs --jobs={JOBS}")
        rec["speedup"] = round(rec["serial_wall_s"] / rec["parallel_wall_s"],
                               3)
        if median:
            rec["speedup_runs"] = [round(a / b, 3) for a, b in
                                   zip(walls["serial"], walls["parallel"])]
        return rec

    def traced(self, driver, untraced, label, cats, *args):
        """--trace-out is observational: at both jobs values every output
        equals the untraced <untraced>-{serial,parallel} run, the trace is
        identical across jobs, and it holds the M/X/C phases and the X
        slice categories `cats`."""
        traces = []
        for jobs, key in ((1, "serial"), (JOBS, "parallel")):
            traces.append(self.path(f"trace-{key}.json"))
            self.run(driver, f"{untraced}-traced-{key}", *args,
                     f"--jobs={jobs}", f"--trace-out={traces[-1]}")
            self.identical(f"{untraced}-{key}", f"{untraced}-traced-{key}",
                           f"{label}, untraced vs --trace-out at "
                           f"--jobs={jobs}")
        self.same_file(*traces, f"{label}: trace across --jobs")
        print(f"OK: {label} trace byte-identical across --jobs")
        # Streamed one event per line, as src/obs/export.cpp writes them: a
        # soak trace is ~600 MB, far too big for one json.load.
        phases, slices = set(), set()
        with open(traces[0]) as f:
            for line in f:
                if line.startswith("  {"):
                    e = json.loads(line.rstrip().rstrip(","))
                    phases.add(e["ph"])
                    if e["ph"] == "X":
                        slices.add(e.get("cat"))
        if not {"C", "M", "X"} <= phases or not cats <= slices:
            fail(f"{label}: trace schema check failed for {traces[0]}: "
                 f"phases {sorted(phases)}, X categories {sorted(slices)}")
        print(f"OK: {label} trace schema sane (M/X/C phases, "
              f"{'+'.join(sorted(cats))} slices)")

    def write_bench(self, name, doc):
        with open(os.path.join(self.build, name), "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")


def speedup_verdict(results, target):
    """Prints each (tag, speedup, detail); a speedup below `target` warns,
    or fails under PERF_GATE_STRICT=1."""
    slow = []
    for tag, speedup, detail in results:
        print(f"{tag}: {detail}, speedup {speedup:.2f}x (target > {target}x)")
        if speedup < target:
            slow.append(f"{tag} speedup {speedup:.2f}x below target {target}x")
    if not slow:
        return
    msg = "; ".join(slow)
    if os.environ.get("PERF_GATE_STRICT") == "1":
        fail(msg)
    print(f"WARN: {msg} (non-fatal; PERF_GATE_STRICT=1 to enforce)")


def grid_results(recs, host):
    cal = (f"calibration {host['calibration_s_before']:.3f}s before, "
           f"{host['calibration_s_after']:.3f}s after")
    return [(label, r["speedup"],
             f"serial {r['serial_wall_s']:.3f}s, parallel({JOBS}) "
             f"{r['parallel_wall_s']:.3f}s, peak RSS "
             f"{r['parallel_peak_rss_kb']} KB, {cal}")
            for label, r in recs.items()]


TIMING = ("best of 3 runs per grid (raw per-run walls in *_wall_runs_s); "
          "peak RSS of each run via wait4 rusage")
SWEEP_ROUNDS = 5
SWEEP_TIMING = (f"median of {SWEEP_ROUNDS} alternated --jobs=1/--jobs={JOBS} "
                "rounds per grid (raw per-run walls in *_wall_runs_s, "
                "(max - min) / median in *_wall_spread, per-round speedups "
                "in speedup_runs); peak RSS of each run via wait4 rusage")


def steal_ticks():
    """The host's cumulative steal time from /proc/stat (USER_HZ ticks), or
    None where the file is missing."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" else None
    except (OSError, IndexError, ValueError):
        return None


CALIBRATION_STEPS = 2_000_000


def calibrate():
    """Best of 3 timings (s) of a fixed single-thread integer loop, about
    0.25-0.35 s on a 4-vCPU Xeon: how fast one core of the host runs now."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(CALIBRATION_STEPS):
            x = (x * 31 + i) & 0xFFFFFFFF
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    return round(best, 4)


def timed_on_host(run):
    """Returns run()'s result and the host record around it: cores, steal
    ticks and the calibration loop, each taken before and after."""
    steal0, cal0 = steal_ticks(), calibrate()
    result = run()
    cal1, steal1 = calibrate(), steal_ticks()
    return result, {
        "nproc": os.cpu_count(), "steal_ticks_before": steal0,
        "steal_ticks_after": steal1,
        "steal_ticks": None if steal0 is None or steal1 is None
        else steal1 - steal0,
        "calibration_steps": CALIBRATION_STEPS,
        "calibration_s_before": cal0, "calibration_s_after": cal1}


def gate_sweep(g):
    g.require("ndf_sweep", "bench_cache_miss")
    g.pair("ndf_sweep", "smoke", "smoke grid", "--smoke")
    g.pair("ndf_sweep", "misses", "smoke grid with --misses", "--smoke",
           "--misses")
    g.run("ndf_sweep", "misses-lru", "--smoke", "--misses", "--cache=lru",
          "--jobs=1")
    g.identical("misses-serial", "misses-lru",
                "smoke grid with --misses, default vs explicit --cache=lru")
    g.traced("ndf_sweep", "smoke", "smoke grid", {"queue", "unit"}, "--smoke")

    miss = subprocess.run([os.path.join(g.build, "bench_cache_miss"),
                           f"--json={g.build}/BENCH_cache_miss.json"],
                          stdout=subprocess.PIPE, text=True)
    lines = miss.stdout.splitlines()
    if miss.returncode:
        fail(f"Theorem 1 violated (bench_cache_miss exited "
             f"{miss.returncode}); rows outside Q* above",
             "\n".join([l for l in lines if re.search(r" NO$|VIOLATIONS", l)]
                       or lines))
    print(*lines[-2:], "OK: Theorem 1 held for all space-bounded runs "
          "(BENCH_cache_miss.json)", sep="\n")

    stress = ("--stress", STRESS_MACHINES,
              "--repeat=" + os.environ.get("STRESS_REPEAT", "8"))
    recs, host = timed_on_host(lambda: {
        "gate": g.pair("ndf_sweep", "gate", "perf grid", *GATE_GRID,
                       reps=SWEEP_ROUNDS, median=True),
        "stress": g.pair("ndf_sweep", "stress", "stress grid", *stress,
                         reps=SWEEP_ROUNDS, median=True)})
    g.write_bench("BENCH_sweep_parallel.json", {
        "bench": "sweep_parallel", "jobs": JOBS,
        "min_speedup": MIN_SPEEDUP["sweep"], "timing": SWEEP_TIMING,
        "host": host, **recs})
    speedup_verdict(grid_results(recs, host), MIN_SPEEDUP["sweep"])


def gate_serve(g):
    g.require("ndf_serve")
    rec, host = timed_on_host(
        lambda: g.pair("ndf_serve", "soak", "soak grid", "--soak", reps=3))
    g.pair("ndf_serve", "misses", "soak grid with --misses", "--soak",
           "--misses")
    g.traced("ndf_serve", "soak", "soak grid", {"job", "queue", "unit"},
             "--soak")
    g.write_bench("BENCH_serve.json", {
        "bench": "serve_soak", "jobs": JOBS,
        "min_speedup": MIN_SPEEDUP["serve"], "timing": TIMING,
        "host": host, **rec})
    speedup_verdict(grid_results({"serve soak": rec}, host),
                    MIN_SPEEDUP["serve"])


def gate_native(g):
    g.require("ndf_native")
    g.run("ndf_native", "smoke", "--smoke", outputs=False)
    with open(g.path("smoke.txt")) as f:
        print(f.read().splitlines()[-1])
    bench = os.path.join(g.build, "BENCH_native.json")
    # Spin-heavy workloads, so thread startup is noise: each takes >= ~0.5 s
    # serially at --spin=2000.
    g.run("ndf_native", "scaling",
          "--workloads=mm:n=48;gen:family=sp,depth=9,fan=4,work=32,seed=11",
          f"--threads=1,{JOBS}", "--sched=ws,sb", "--machine=deep2x4",
          "--reps=3", "--spin=2000", f"--json={bench}", outputs=False)
    with open(g.path("scaling.txt")) as f:
        print(f.read(), end="")
    with open(bench) as f:
        tables = json.load(f)["tables"]
    scaling = next(t for t in tables
                   if t["title"].startswith("native scaling"))
    rows = [dict(zip(scaling["header"], r)) for r in scaling["rows"]]

    bad = []
    for r in rows:
        tag = f'{r["workload"]} {r["mode"]} @{r["threads"]}t'
        if r["threads"] == 1 and r["steals"] != 0:
            bad.append(f"{tag}: {r['steals']} steals on one worker")
        if r["steals"] > r["strands"]:
            bad.append(f"{tag}: steals {r['steals']} > strands {r['strands']}")
        if r["steals"] > r["attempts"]:
            bad.append(f"{tag}: steals {r['steals']} > attempts "
                       f"{r['attempts']}")
        if r["mode"] == "sb" and r["threads"] > 1 and r["anchors"] == 0:
            bad.append(f"{tag}: sb run recorded no anchors")
        if not 0.0 <= r["busy_frac"] <= 1.0 + 1e-9:
            bad.append(f"{tag}: busy fraction {r['busy_frac']} outside [0,1]")
    if bad:
        fail("native accounting sanity violated:\n  " + "\n  ".join(bad))
    print(f"OK: accounting sane across {len(rows)} native runs (zero steals "
          "serial, steals <= strands <= attempts bounds, sb anchors "
          "recorded, busy fractions in [0,1])")

    speedup_verdict([(f'{r["workload"]} {r["mode"]}', r["speedup"],
                      f"{r['best_s']:.3f}s at {JOBS} threads, sim predicts "
                      f"{r['sim_speedup']:.2f}x, {r['steals']} steals")
                     for r in rows if r["threads"] == JOBS],
                    MIN_SPEEDUP["native"])
    print("OK: native gate done (BENCH_native.json)")


GATES = {"sweep": gate_sweep, "serve": gate_serve, "native": gate_native}

if __name__ == "__main__":
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("gate", choices=GATES)
    ap.add_argument("build_dir")
    a = ap.parse_args()
    GATES[a.gate](Gate(a.build_dir, a.gate))
