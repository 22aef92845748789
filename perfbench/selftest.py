#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, with short runs (2 s of rounds each):
  * bad input: an unknown flag, workload or value makes run.py and the
    benchmark binary exit 2 with a one-line message and no result;
  * every end-to-end metric of BENCHMARK.json is emitted with its unit by
    a plain run of every workload, and every per-layer metric by a traced
    run, with no failed ops;
  * the simulated metrics (sim_makespan_ratio, q_ratio_max, slowdown_p99)
    repeat exactly across two runs of the same seed;
  * the serve workload's offered load serve.rho is below 1 on the seed.
Exits 0 when all pass, 1 otherwise.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
SIMULATED = ("sim_makespan_ratio", "q_ratio_max", "slowdown_p99")
SEED = 7
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(args):
    return subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def result(workload, trace):
    r = run(RUN + ["--workload", workload, "--seed", str(SEED),
                   "--seconds", "2", "--trace", str(trace)])
    if r.returncode != 0:
        check(False, f"{workload} trace={trace} runs (exit {r.returncode})")
        return None
    return json.loads(r.stdout.strip().splitlines()[-1])


def expect_usage_error(args, what):
    r = run(args)
    check(r.returncode == 2 and r.stdout == "" and
          len(r.stderr.strip().splitlines()) == 1, what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok_args = ["--workload", "serve", "--seed", "1", "--seconds", "2",
               "--trace", "0"]
    expect_usage_error(RUN + ok_args + ["--bogus", "1"],
                       "run.py rejects an unknown flag")
    expect_usage_error(RUN + ["--workload", "nope"] + ok_args[2:],
                       "run.py rejects an unknown workload")
    expect_usage_error(RUN + ok_args[:2] + ["--seed", "x"] + ok_args[4:],
                       "run.py rejects a malformed seed")
    for group, trace in (("end_to_end", 0), ("per_layer", 1)):
        want = {m["name"]: m["unit"] for m in bench[group]}
        for w in bench["workloads"]:
            res = result(w["name"], trace)
            if res is None:
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{w['name']} trace={trace} emits every "
                               f"{group} metric with its unit")
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1,
                  f"{w['name']} trace={trace} has no failed ops")
            if trace == 0:
                again = result(w["name"], 0)
                if again is not None:
                    check(all(res["metrics"][m]["value"] ==
                              again["metrics"][m]["value"]
                              for m in SIMULATED),
                          f"{w['name']} simulated metrics repeat exactly")
            if trace == 1 and w["name"] == "serve":
                check(res["metrics"]["serve.rho"]["value"] < 1.0,
                      "serve.rho is below 1 on the seed")
    # The benchmark binary exists once run.py has built it above.
    binary = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"),
                          "perfbench", "ndf_perfbench")
    expect_usage_error([binary, "--workload=serve", "--bogus=1"],
                       "binary rejects an unknown flag")
    expect_usage_error([binary, "--workload=nope"],
                       "binary rejects an unknown workload")
    expect_usage_error([binary, "--workload=serve", "--trace=2"],
                       "binary rejects a bad --trace value")

    print(f"\n{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
