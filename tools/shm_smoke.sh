#!/usr/bin/env bash
# shm-smoke: end-to-end exercise of the shared-memory serving transport.
#
# Runs, against an existing build directory:
#   1. test_shm under TVMCPP_VM_STRICT=1 — the full shm suite, including the
#      two-spawned-clients bitwise test and crash-reclamation tests. In CI this
#      runs on the ASan/UBSan build, so cross-process protocol bugs that
#      corrupt memory fail loudly here.
#   2. An operator-flow smoke with the shipped shm_client binary: a background
#      --serve process, then a client --verify run against it (the same
#      commands docs/DEPLOYMENT.md walks an operator through), and a check
#      that --verify with a model other than chain is refused with exit 2.
#   3. bench_shm in smoke mode to a scratch JSON, checking that the
#      serve_shm_2proc row was produced with zero copied outputs.
#
# Any abandoned /dev/shm/tvmcpp_* objects (ours are pid-unique; a crashed run
# leaks its object) are removed on exit so repeated runs on one host cannot
# accumulate arenas or collide.
#
# Usage: shm_smoke.sh [BUILD_DIR]   (default: build)
set -u

build_dir="${1:-build}"
for bin in test_shm shm_client bench_shm; do
  if [ ! -x "$build_dir/$bin" ]; then
    echo "shm_smoke: missing $build_dir/$bin (run cmake/build first)" >&2
    exit 2
  fi
done

server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null
  rm -f /dev/shm/tvmcpp_* 2>/dev/null
  rm -f /tmp/shm_smoke_bench.json
}
trap cleanup EXIT

echo "shm_smoke: [1/3] test_shm (strict mode)"
if ! TVMCPP_VM_STRICT=1 "$build_dir/test_shm"; then
  echo "SHM_SMOKE_FAIL: test_shm failed"
  exit 1
fi

echo "shm_smoke: [2/3] shm_client operator flow"
arena="/tvmcpp_smoke_$$"
"$build_dir/shm_client" --serve --shm-name "$arena" --duration-s 60 &
server_pid=$!
if ! "$build_dir/shm_client" --model chain --shm-name "$arena" \
     --seed 3 --repeat 3 --verify; then
  echo "SHM_SMOKE_FAIL: shm_client verify run failed"
  exit 1
fi
kill "$server_pid" 2>/dev/null
wait "$server_pid" 2>/dev/null
server_pid=""
# --verify has an oracle only for chain; any other model must be refused.
"$build_dir/shm_client" --model dqn --shm-name "$arena" --verify
if [ $? -ne 2 ]; then
  echo "SHM_SMOKE_FAIL: shm_client --verify with a non-chain model did not exit 2"
  exit 1
fi

echo "shm_smoke: [3/3] bench_shm (smoke mode)"
if ! TVMCPP_BENCH_SMOKE=1 TVMCPP_BENCH_JSON=/tmp/shm_smoke_bench.json \
     "$build_dir/bench_shm"; then
  echo "SHM_SMOKE_FAIL: bench_shm failed"
  exit 1
fi
if ! grep -q '"bench": "serve_shm_2proc".*"copied_outputs": 0' /tmp/shm_smoke_bench.json; then
  echo "SHM_SMOKE_FAIL: serve_shm_2proc row missing or response path copied tensors"
  cat /tmp/shm_smoke_bench.json
  exit 1
fi

echo "SHM_SMOKE_OK"
