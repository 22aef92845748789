#!/usr/bin/env python3
"""Runs two sets of benchmark runs and says whether they agree.

    python3 perfbench/steadiness.py

Each set runs every workload of BENCHMARK.json once per seed 1..10,
through perfbench/run.py with --trace 0 and the run_seconds of
BENCHMARK.json. For every end-to-end metric it prints, per set, the
median, the quartiles and the spread (interquartile range over median, as
statistics.quantiles(values, n=4) gives them), then checks:

  * spread within the metric's bound, setup_s included ("spread" column;
    "<1/3" marks spreads under a third of the bound);
  * the second set's median within the bound of the first set's, in
    either direction ("drift" column, positive = worse);
  * the median over seeds of each seed's set-2/set-1 ratio within the
    bound, in either direction ("paired" column, positive = worse): the
    noise between runs of the same code on the same inputs, without the
    differences between seeds;
  * the simulated metrics (sim_makespan_ratio, q_ratio_max,
    slowdown_p99) identical, bit for bit, for the same seed in both sets;
  * every run correct, with no failed ops.

Every run's result line is kept in $CARGO_TARGET_DIR/perfbench/
steadiness.json (default .bench_build). Exits 0 when every check holds.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIMULATED = ("sim_makespan_ratio", "q_ratio_max", "slowdown_p99")
SETS = 2
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    if out.returncode != 0:
        sys.exit(f"steadiness: {workload} seed {seed} exited "
                 f"{out.returncode}")
    lines = out.stdout.strip().splitlines()
    host = json.loads(lines[-2][len("host: "):])
    return json.loads(lines[-1]), host


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def worse_by(new, old, better):
    """How much worse `new` is than `old`, as a share of `old`."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main():
    if len(sys.argv) > 1:
        sys.exit("usage: python3 perfbench/steadiness.py (takes no flags)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    runs = {}  # (set, workload, seed) -> (result, host)
    for s in range(SETS):
        for w in workloads:
            for seed in SEEDS:
                runs[s, w, seed] = run_once(w, seed, bench["run_seconds"])
                print(f"set {s + 1} {w} seed {seed}: done", file=sys.stderr)

    ok = True
    for w in workloads:
        print(f"\n== {w} ==")
        print(f"{'metric':20} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>5}  verdict")
        for m in bench["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            value = {(s, seed): runs[s, w, seed][0]["metrics"][name]["value"]
                     for s in range(SETS) for seed in SEEDS}
            medians = []
            for s in range(SETS):
                vals = [value[s, seed] for seed in SEEDS]
                q1, q3, sp = spread(vals)
                medians.append(statistics.median(vals))
                verdict = ["spread ok" if sp <= bound else
                           "SPREAD OVER BOUND"]
                ok &= sp <= bound
                if sp <= bound / 3:
                    verdict.append("<1/3")
                if s > 0:
                    drift = worse_by(medians[s], medians[0], better)
                    paired = statistics.median(
                        worse_by(value[s, seed], value[0, seed], better)
                        for seed in SEEDS)
                    verdict.append(f"drift {drift:+.3f}")
                    verdict.append(f"paired {paired:+.3f}")
                    if abs(drift) > bound:
                        verdict.append("DRIFT OVER BOUND")
                        ok = False
                    if abs(paired) > bound:
                        verdict.append("PAIRED OVER BOUND")
                        ok = False
                print(f"{name:20} {s + 1:>3} {medians[s]:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {sp:7.3f} {bound:5.2f}  "
                      + ", ".join(verdict))
        for seed in SEEDS:
            for name in SIMULATED:
                vals = {runs[s, w, seed][0]["metrics"][name]["value"]
                        for s in range(SETS)}
                if len(vals) != 1:
                    print(f"NOT IDENTICAL: {name} seed {seed}: {vals}")
                    ok = False
        bad = [(s, seed) for s in range(SETS) for seed in SEEDS
               if not runs[s, w, seed][0]["correct"]
               or runs[s, w, seed][0]["failed"]]
        if bad:
            print(f"FAILED OPS in runs {bad}")
            ok = False
        loads = [runs[s, w, seed][1]["loadavg_after"][0]
                 for s in range(SETS) for seed in SEEDS]
        steal = [runs[s, w, seed][1]["steal_ticks_delta"]
                 for s in range(SETS) for seed in SEEDS]
        print(f"host: load avg {min(loads):.2f}..{max(loads):.2f}, "
              f"steal ticks per run {min(steal)}..{max(steal)}")

    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"), "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "steadiness.json"), "w") as f:
        json.dump([{"set": s + 1, "workload": w, "seed": seed,
                    "result": r, "host": h}
                   for (s, w, seed), (r, h) in runs.items()], f, indent=1)
    print("\nsteady" if ok else "\nNOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
