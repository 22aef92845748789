#!/usr/bin/env bash
# Perf-regression gate for the parallel sweep engine.
#
# Runs the gate grid and the ndf_sweep --stress grid through the grid
# runner (src/exp/grid.hpp) at --jobs=1 (every phase on the calling
# thread) and --jobs=N (chunked thread-pool fan-out) and:
#   1. FAILS if any output (stdout table, JSON, CSV) differs byte-for-byte
#      between the two: parallel execution must be unobservable in results.
#      The identity check also covers the smoke grid with and without
#      --misses (measured LRU counters must be deterministic too), and the
#      default cache model: --misses with an explicit --cache=lru must be
#      byte-identical to no --cache flag at all (the registry must not
#      perturb the ideal-LRU default).
#   2. Records best-of-3 wall-clock for both runs, the speedup, and each
#      run's peak RSS into BENCH_sweep_parallel.json (uploaded as a CI
#      artifact, so the parallel-efficiency and memory trajectories are
#      tracked across commits).
#
# Measurement validity: both timed grids take >= 1 s serially (the old gate
# grid finished in ~20 ms, where thread startup dominates and a speedup
# number is noise), each timing is the best of 3 runs (the minimum is the
# right estimator for wall-clock on a shared runner — noise only adds), and
# peak RSS comes from resource.getrusage(RUSAGE_CHILDREN) around each child.
# Speedup below MIN_SPEEDUP is reported (and recorded) but only warns by
# default — shared CI runners are too noisy for a hard latency gate; set
# PERF_GATE_STRICT=1 to make it fail.
#
# Usage: scripts/ci_perf_gate.sh <build-dir> [jobs]
set -euo pipefail

BUILD_DIR=${1:?usage: ci_perf_gate.sh <build-dir> [jobs]}
JOBS=${2:-4}

# Fail with a diagnosis, not a bash "No such file or directory", when the
# gate is pointed at a directory that was never built (or a Debug tree
# missing the bench targets).
for bin in ndf_sweep bench_cache_miss; do
  if [[ ! -x "$BUILD_DIR/$bin" ]]; then
    echo "FAIL: $BUILD_DIR/$bin not found or not executable —" \
         "build it first: cmake --build $BUILD_DIR --target $bin" >&2
    exit 1
  fi
done
MIN_SPEEDUP=${MIN_SPEEDUP:-2.5}
# Trimmed repeat axis for the stress grid (CI uses the default; a local run
# can crank it: STRESS_REPEAT=7 is the binary's own default grid).
STRESS_REPEAT=${STRESS_REPEAT:-4}
OUT="$BUILD_DIR/perf-gate"
mkdir -p "$OUT"

GATE_ARGS=(--name=perf-gate
           --workloads='mm:n=128;lcs:n=1024;cholesky:n=128;gen:family=sp,depth=8,fan=4,seed=7;gen:family=wavefront,n=32'
           --machines='flat16;deep4x4'
           --sched=sb,ws,greedy,serial --sigma=0.33 --repeat=8)
STRESS_ARGS=(--stress "--repeat=$STRESS_REPEAT")

run_grid() { # <jobs> <prefix> [extra sweep args...]
  local jobs=$1 prefix=$2
  shift 2
  "$BUILD_DIR/ndf_sweep" "$@" --jobs="$jobs" \
      --json="$OUT/$prefix.json" --csv="$OUT/$prefix.csv" \
      > "$OUT/$prefix.txt"
}

# Best-of-3 wall-clock + peak-RSS of one grid at one jobs value; appends a
# "<label> <jobs> <t1,t2,t3> <peak_rss_kb>" line to $OUT/timings.txt — the
# raw per-run timings, not just the minimum, so the uploaded artifact shows
# how noisy the runner was when a regression is being judged.
# getrusage(RUSAGE_CHILDREN) is cumulative, so ru_maxrss after the runs is
# the max over them — exactly the peak we want to record.
time_grid() { # <jobs> <prefix> <label> [sweep args...]
  local jobs=$1 prefix=$2 label=$3
  shift 3
  python3 - "$label" "$jobs" "$OUT/timings.txt" \
      "$BUILD_DIR/ndf_sweep" "$@" --jobs="$jobs" \
      --json="$OUT/$prefix.json" --csv="$OUT/$prefix.csv" <<'EOF'
import resource, subprocess, sys, time
label, jobs, log = sys.argv[1:4]
cmd = sys.argv[4:]
prefix = next(a.split("=", 1)[1] for a in cmd if a.startswith("--json="))
runs = []
for _ in range(3):
    with open(prefix.rsplit(".", 1)[0] + ".txt", "w") as out:
        t0 = time.monotonic()
        subprocess.run(cmd, stdout=out, check=True)
        runs.append(time.monotonic() - t0)
rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
with open(log, "a") as f:
    f.write(f"{label} {jobs} {','.join(f'{t:.4f}' for t in runs)} {rss_kb}\n")
EOF
}

check_identical() { # <prefix-a> <prefix-b> <label>
  local a=$1 b=$2 label=$3 ext
  for ext in txt json csv; do
    if ! cmp -s "$OUT/$a.$ext" "$OUT/$b.$ext"; then
      echo "FAIL: $label: .$ext output differs:" >&2
      diff "$OUT/$a.$ext" "$OUT/$b.$ext" | head -20 >&2
      exit 1
    fi
  done
  echo "OK: $label output byte-identical"
}

# --- determinism gate on the smoke grid (the one CI runs everywhere) ----
run_grid 1 smoke-serial --smoke
run_grid "$JOBS" smoke-parallel --smoke
check_identical smoke-serial smoke-parallel \
    "smoke grid, --jobs=1 vs --jobs=$JOBS"

# --- measured-miss counters: deterministic across --jobs too ------------
run_grid 1 misses-serial --smoke --misses
run_grid "$JOBS" misses-parallel --smoke --misses
check_identical misses-serial misses-parallel \
    "smoke grid with --misses, --jobs=1 vs --jobs=$JOBS"

# --- default cache model: the registry must not perturb the default -----
# An explicit --cache=lru parses to the default model, so its output must
# be byte-identical to the same run with no --cache flag at all: no cache
# column appears and every measured counter matches. This is the gate on
# the cache-model registry's "default stays ideal LRU" contract
# (docs/cache-models.md).
run_grid 1 misses-lru --smoke --misses --cache=lru
check_identical misses-serial misses-lru \
    "smoke grid with --misses, default vs explicit --cache=lru"

# --- tracing is observational: --trace-out must not perturb results ------
# The obs subsystem's core contract (docs/observability.md): attaching a
# trace sink changes no simulation result, so every output of a traced run
# is byte-identical to the untraced run — at --jobs=1 and --jobs=N. The
# traced cell (cell 0) always runs with the sink regardless of jobs, so the
# trace file itself must be byte-identical across jobs values too.
run_grid 1 smoke-traced-serial --smoke \
    --trace-out="$OUT/trace-serial.json"
run_grid "$JOBS" smoke-traced-parallel --smoke \
    --trace-out="$OUT/trace-parallel.json"
check_identical smoke-serial smoke-traced-serial \
    "smoke grid, untraced vs --trace-out at --jobs=1"
check_identical smoke-parallel smoke-traced-parallel \
    "smoke grid, untraced vs --trace-out at --jobs=$JOBS"
if ! cmp -s "$OUT/trace-serial.json" "$OUT/trace-parallel.json"; then
  echo "FAIL: chrome trace differs between --jobs=1 and --jobs=$JOBS:" >&2
  diff "$OUT/trace-serial.json" "$OUT/trace-parallel.json" | head -10 >&2
  exit 1
fi
echo "OK: chrome trace byte-identical across --jobs"

# Schema sanity on the exported trace: non-empty traceEvents, the metadata
# (M), complete-slice (X) and counter (C) phases all present, and the slice
# events covering both unit executions and queue waits. jq when available
# (CI runners), python3 otherwise.
check_trace_schema() { # <trace.json> <label>
  local trace=$1 label=$2
  if command -v jq > /dev/null 2>&1; then
    jq -e '(.traceEvents | length > 0)
           and ([.traceEvents[].ph] | unique | contains(["C", "M", "X"]))
           and ([.traceEvents[] | select(.ph == "X") | .cat] | unique
                | contains(["queue", "unit"]))' \
        "$trace" > /dev/null || {
      echo "FAIL: $label: trace schema check failed for $trace" >&2
      exit 1
    }
  else
    python3 - "$trace" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
ev = doc["traceEvents"]
assert ev, "empty traceEvents"
phases = {e["ph"] for e in ev}
assert {"C", "M", "X"} <= phases, f"missing phases in {phases}"
cats = {e.get("cat") for e in ev if e["ph"] == "X"}
assert {"queue", "unit"} <= cats, f"missing X categories in {cats}"
EOF
  fi
  echo "OK: $label trace schema sane (traceEvents nonempty, M/X/C phases, unit+queue slices)"
}
check_trace_schema "$OUT/trace-serial.json" "smoke grid"

# --- Theorem 1 gate + cache-miss trajectory artifact --------------------
# bench_cache_miss exits non-zero if any space-bounded run's measured Q_i
# exceeds Q*(sigma*Mi); its JSON is uploaded next to the sweep timings.
# On failure, print the violating rows — the artifact upload is skipped
# for failed jobs, so the log must carry the diagnosis.
if ! "$BUILD_DIR/bench_cache_miss" \
    --json="$BUILD_DIR/BENCH_cache_miss.json" > "$OUT/cache-miss.txt"; then
  echo "FAIL: Theorem 1 violated — rows outside Q*:" >&2
  grep -E ' NO$|VIOLATIONS' "$OUT/cache-miss.txt" >&2 || \
      cat "$OUT/cache-miss.txt" >&2
  exit 1
fi
tail -2 "$OUT/cache-miss.txt"
echo "OK: Theorem 1 held for all space-bounded runs (BENCH_cache_miss.json)"

# --- determinism + best-of-3 timing + RSS on the timed grids ------------
: > "$OUT/timings.txt"
time_grid 1 gate-serial gate "${GATE_ARGS[@]}"
time_grid "$JOBS" gate-parallel gate "${GATE_ARGS[@]}"
check_identical gate-serial gate-parallel \
    "perf grid, --jobs=1 vs --jobs=$JOBS"

time_grid 1 stress-serial stress "${STRESS_ARGS[@]}"
time_grid "$JOBS" stress-parallel stress "${STRESS_ARGS[@]}"
check_identical stress-serial stress-parallel \
    "stress grid, --jobs=1 vs --jobs=$JOBS"

python3 - "$OUT/timings.txt" "$JOBS" "$MIN_SPEEDUP" "$STRESS_REPEAT" \
    "$BUILD_DIR/BENCH_sweep_parallel.json" <<'EOF'
import json, os, sys
log, jobs, min_speedup, stress_repeat, path = sys.argv[1:6]
grids = {}
for line in open(log):
    label, j, walls, rss = line.split()
    key = "serial" if int(j) == 1 else "parallel"
    g = grids.setdefault(label, {})
    runs = [round(float(w), 4) for w in walls.split(",")]
    # Raw per-run wall clocks next to the best-of: the artifact must show
    # the runner's noise, not hide it behind the minimum.
    g[f"{key}_wall_runs_s"] = runs
    g[f"{key}_wall_s"] = min(runs)
    g[f"{key}_peak_rss_kb"] = int(rss)
for g in grids.values():
    g["speedup"] = round(g["serial_wall_s"] / g["parallel_wall_s"], 3) \
        if g["parallel_wall_s"] > 0 else float("inf")
doc = {
    "bench": "sweep_parallel",
    "jobs": int(jobs),
    "min_speedup": float(min_speedup),
    "timing": "best of 3 runs per grid (raw per-run walls in "
              "*_wall_runs_s); peak RSS via getrusage(RUSAGE_CHILDREN)",
    "gate": {
        "grid": "perf-gate (mm:n=128;lcs:n=1024;cholesky:n=128 + 2 "
                "generated workloads x 2 machines x 4 policies x "
                "8 repeats = 320 runs)",
        **grids["gate"],
    },
    "stress": {
        "grid": f"ndf_sweep --stress --repeat={stress_repeat} (6 deep/wide "
                "generated workloads x 2 sigma x 3 machines x 4 policies)",
        **grids["stress"],
    },
}
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
failures = []
for label, g in grids.items():
    print(f"{label}: serial {g['serial_wall_s']:.3f}s, parallel({jobs}) "
          f"{g['parallel_wall_s']:.3f}s, speedup {g['speedup']:.2f}x "
          f"(target > {min_speedup}x), peak RSS "
          f"{g['parallel_peak_rss_kb']} KB")
    if g["speedup"] < float(min_speedup):
        failures.append(f"{label} speedup {g['speedup']:.2f}x below "
                        f"target {min_speedup}x")
if failures:
    msg = "; ".join(failures)
    if os.environ.get("PERF_GATE_STRICT") == "1":
        sys.exit(f"FAIL: {msg}")
    print(f"WARN: {msg} (non-fatal; PERF_GATE_STRICT=1 to enforce)")
EOF
