#!/usr/bin/env bash
# Bad input to a bench driver must fail cleanly: exit code 2 and exactly
# one stderr line (`<driver>: <message>`), never an uncaught-exception
# abort (`terminate called ...`, exit 134). Covers an unknown flag and a
# bad spec for ndf_sweep, ndf_serve, ndf_native and bench_sb_vs_ws, an
# unknown flag for the fixed-grid drivers (bench_pcc,
# bench_parallelizability, bench_span: they take none), plus
# a spec that parses but fails when its workload is built (wavefront n is
# capped at 128), which is thrown from inside the grid runner, and the
# examples/inspect_dag binary (when the examples are built).
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

for driver in ndf_sweep ndf_serve ndf_native bench_sb_vs_ws bench_pcc \
    bench_parallelizability bench_span; do
  expect_exit_2 "unknown flag --bogus" "$driver" --bogus
done
expect_exit_2 "mm:n=abc" ndf_sweep --workloads=mm:n=abc --machines=flat8
expect_exit_2 "mm:n=abc" ndf_serve --workloads=mm:n=abc \
    --arrivals=poisson:rate=0.001,jobs=2 --machines=flat8
expect_exit_2 "mm:n=abc" ndf_native --workloads=mm:n=abc
expect_exit_2 "unknown scheduler 'nope'" bench_sb_vs_ws --sched=nope
expect_exit_2 "[1, 128]" ndf_sweep --workloads=gen:family=wavefront,n=256 \
    --machines=flat8
expect_exit_2 "[1, 128]" ndf_serve --workloads=gen:family=wavefront,n=256 \
    --arrivals=poisson:rate=0.001,jobs=2 --machines=flat8
if [[ -x $BUILD_DIR/inspect_dag ]]; then
  expect_exit_2 "unknown flag --bogus" inspect_dag --bogus
  expect_exit_2 "flag --n is not an integer: abc" inspect_dag --n=abc
  expect_exit_2 "unknown --algo=nope" inspect_dag --algo=nope
else
  echo "skip: inspect_dag not built (NDF_BUILD_EXAMPLES=OFF)"
fi

exit $failed
