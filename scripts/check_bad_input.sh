#!/usr/bin/env bash
# Bad input to a bench driver must fail cleanly: exit code 2 and exactly
# one stderr line (`<driver>: <message>`), never an uncaught-exception
# abort (`terminate called ...`, exit 134). Covers an unknown flag and a
# bad spec for ndf_sweep, ndf_serve and ndf_native, a bad --sched, an
# unknown --preset, a policy list a preset does not fit and a flag a paper
# preset does not take, an unknown flag for the fixed-grid drivers (bench_pcc,
# bench_parallelizability, bench_span: they take none), plus
# a spec that parses but fails when its workload is built (wavefront n is
# capped at 256), which is thrown from inside the grid runner, a --json or
# --csv file that cannot be fully written (/dev/full; a bench driver's
# table mirror as well as the sweep and serve emitters), the
# examples/inspect_dag binary (when the examples are built), specs or
# flags the grammar rejects (README "Spec grammar"), and in-range values
# past the size caps: a sweep grid over 2^20 cells, a machine over 2^17
# processors plus caches.
#
# Usage: scripts/check_bad_input.sh <build-dir>   (ctest: bad_input_exits_2)
set -u

BUILD_DIR=${1:?usage: check_bad_input.sh <build-dir>}
failed=0

# expect_exit_2 <expected stderr substring> <driver> [args...]
expect_exit_2() {
  local want=$1 driver=$2
  shift 2
  local err status lines
  err=$("$BUILD_DIR/$driver" "$@" 2>&1 >/dev/null)
  status=$?
  lines=$(printf '%s\n' "$err" | wc -l)
  if [[ $status -ne 2 || $lines -ne 1 || $err == *"terminate called"* ||
        $err != "$driver: "*"$want"* ]]; then
    echo "FAIL: $driver $* -> exit $status, $lines stderr line(s):" >&2
    printf '%s\n' "$err" | head -5 >&2
    failed=1
  else
    echo "ok: $driver $* -> exit 2: $err"
  fi
}

for driver in ndf_sweep ndf_serve ndf_native bench_pcc \
    bench_parallelizability bench_span; do
  expect_exit_2 "unknown flag --bogus" "$driver" --bogus
done
expect_exit_2 "mm:n=abc" ndf_sweep --workloads=mm:n=abc --machines=flat8
expect_exit_2 "mm:n=abc" ndf_serve --workloads=mm:n=abc \
    --arrivals=poisson:rate=0.001,jobs=2 --machines=flat8
expect_exit_2 "mm:n=abc" ndf_native --workloads=mm:n=abc
expect_exit_2 "unknown flag --bogus" ndf_sweep --preset=sb_vs_ws --bogus
expect_exit_2 "unknown scheduler 'nope'" ndf_sweep --preset=sb_vs_ws \
    --sched=nope
expect_exit_2 "unknown preset 'nope' (presets: smoke, stress," ndf_sweep \
    --preset=nope
expect_exit_2 "exactly one policy here, got 2" ndf_sweep \
    --preset=sb_scaling --sched=sb,ws
expect_exit_2 "unknown flag --workloads (a paper preset" ndf_sweep \
    --preset=sb_vs_ws --workloads=mm:n=8
expect_exit_2 "[1, 256]" ndf_sweep --workloads=gen:family=wavefront,n=257 \
    --machines=flat8
expect_exit_2 "[1, 256]" ndf_serve --workloads=gen:family=wavefront,n=257 \
    --arrivals=poisson:rate=0.001,jobs=2 --machines=flat8
# Spec and flag spellings that must not run something other than what they
# say: a repeated machine key, counts beyond 64 bits or past the 2^20-job
# stream cap, a repeated flag and an out-of-range integer flag.
expect_exit_2 "duplicate machine parameter 'p'" ndf_sweep \
    --workloads=mm:n=8 --machines=flat:p=4,p=8
expect_exit_2 "workload parameter 'n' in 'mm:n=99999999999999999999'" \
    ndf_sweep --workloads=mm:n=99999999999999999999
expect_exit_2 "arrival parameter 'jobs'" ndf_serve \
    --arrivals=poisson:rate=1,jobs=99999999999999999999
expect_exit_2 "flag --sched is given more than once" ndf_sweep --sched=sb \
    --sched=ws
expect_exit_2 "flag --repeat is out of range" ndf_sweep \
    --repeat=99999999999999999999
# In range, but past what can be allocated: the grid's cell count and a
# machine's processors plus caches are bounded before anything is built.
expect_exit_2 "more than 2^20 cells" ndf_sweep --preset=smoke \
    --repeat=9223372036854775807
expect_exit_2 "more than 2^17 in total" ndf_sweep --workloads=mm:n=8 \
    --machines=twotier:s=1073741824,c=1073741824
expect_exit_2 "more than 2^17 in total" ndf_sweep --workloads=mm:n=8 \
    --machines=flat:p=1073741824
expect_exit_2 "failed writing --json=/dev/full" ndf_sweep --preset=smoke \
    --json=/dev/full
expect_exit_2 "failed writing --csv=/dev/full" ndf_serve --smoke \
    --csv=/dev/full
expect_exit_2 "failed writing --json=/dev/full" bench_trace --n=32 \
    --json=/dev/full
if [[ -x $BUILD_DIR/inspect_dag ]]; then
  expect_exit_2 "unknown flag --bogus" inspect_dag --bogus
  expect_exit_2 "flag --n is not an integer: abc" inspect_dag --n=abc
  expect_exit_2 "unknown --algo=nope" inspect_dag --algo=nope
else
  echo "skip: inspect_dag not built (NDF_BUILD_EXAMPLES=OFF)"
fi

exit $failed
