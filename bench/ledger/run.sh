#!/usr/bin/env bash
# Runs the ledger benchmark from a checkout: builds the harness and
# demon_serve from source (Release, in build-ledger/), then hands every
# argument to the ledger binary.
#
#   bench/ledger/run.sh                                  # one set, seed 1
#   bench/ledger/run.sh --seed=7 --workloads=uw-stationary,serve-quest
#   bench/ledger/run.sh --sets=2                         # two sets, compared
#   bench/ledger/run.sh --trace                          # per-layer ledger
#   bench/ledger/run.sh --workload uw-stationary --seed 3 --seconds 15 --trace 0
#
# The last form runs one workload; the last line it prints is the JSON
# result. Build output goes to build-ledger/build.log.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/build-ledger"

# Paging and kernel-tier overrides would change what is measured.
unset DEMON_TIDLIST_BUDGET_BYTES DEMON_TIDLIST_SPILL_DIR DEMON_FORCE_SCALAR

mkdir -p "$build"
log="$build/build.log"
jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi
if ! {
  cmake -S "$root/bench/ledger" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
    cmake --build "$build" --target ledger -j "$jobs"
} > "$log" 2>&1; then
  cat "$log" >&2
  echo "run.sh: build failed" >&2
  exit 1
fi

sha="$(git --git-dir="$root/.git" rev-parse HEAD 2>/dev/null || echo unknown)"
cd "$root"
exec "$build/ledger" --out_dir="$build/out" --git_sha="$sha" "$@"
