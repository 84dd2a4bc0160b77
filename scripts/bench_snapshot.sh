#!/usr/bin/env bash
# Snapshot the counting-kernel and engine benchmarks as JSON artifacts at
# the repo root, so perf regressions across PRs can be diffed mechanically.
#
#   scripts/bench_snapshot.sh [--allow-debug] [build-dir]
#
# Refuses to snapshot from a non-Release build (debug numbers have burned
# us before: the seed BENCH_counting.json was captured from a debug
# build). Pass --allow-debug to override when you knowingly want a
# debug-build snapshot.
#
# Runs bench/fig2_counting (google-benchmark JSON, includes the
# thread-count sweep) into BENCH_counting.json, bench/engine_throughput
# (its own --benchmark_format=json mode) into BENCH_engine.json,
# bench/tidlist_budget (the TID-list memory-budget sweep and its raw/delta
# encoding census) into BENCH_tidlist.json, and bench/server_throughput
# (the demon_serve socket-ingestion sweep) into BENCH_server.json. Honors
# DEMON_SCALE (default 0.1); set DEMON_SCALE=1 for paper-scale runs.
#
# Every BENCH_*.json gets its "context" block stamped with the repo's
# CMAKE_BUILD_TYPE, num_cpus, and the git SHA of the worktree the
# snapshot ran from, so a stale or debug artifact is self-identifying.
#
# Also archives the telemetry artifacts of an instrumented 4-thread engine
# run: BENCH_telemetry.json (per-phase histogram summaries), Chrome
# trace-event files BENCH_engine_trace.json / BENCH_counting_trace.json
# (load at https://ui.perfetto.dev; the engine trace carries the
# scraper's counter tracks), and BENCH_engine_timeline.jsonl (the JSONL
# metrics timeline of the same run). Requires a DEMON_TELEMETRY=ON build
# (the default); with the gate off the traces are empty but still valid.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

allow_debug=0
build_dir=""
for arg in "$@"; do
  case "$arg" in
    --allow-debug) allow_debug=1 ;;
    -*) echo "error: unknown flag $arg" >&2; exit 2 ;;
    *) build_dir="$arg" ;;
  esac
done
build_dir="${build_dir:-$repo_root/build}"

cache="$build_dir/CMakeCache.txt"
if [[ ! -f "$cache" ]]; then
  echo "error: $cache not found; build the repo first" \
       "(cmake -B build -S . && cmake --build build -j)" >&2
  exit 1
fi
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$cache")"
build_type="${build_type:-unspecified}"
if [[ "$build_type" != "Release" && "$allow_debug" -ne 1 ]]; then
  echo "error: build dir $build_dir has CMAKE_BUILD_TYPE=$build_type;" \
       "benchmark snapshots must come from a Release build." >&2
  echo "Reconfigure with -DCMAKE_BUILD_TYPE=Release, or pass" \
       "--allow-debug to snapshot anyway (the JSON will say so)." >&2
  exit 1
fi

if [[ ! -x "$build_dir/bench/fig2_counting" ]]; then
  echo "error: $build_dir/bench/fig2_counting not found; build the repo" \
       "first (cmake -B build -S . && cmake --build build -j)" >&2
  exit 1
fi

echo "== fig2_counting -> BENCH_counting.json (DEMON_SCALE=${DEMON_SCALE:-0.1})"
"$build_dir/bench/fig2_counting" \
  --benchmark_format=json \
  --benchmark_out="$repo_root/BENCH_counting.json" \
  --benchmark_out_format=json \
  --trace_out="$repo_root/BENCH_counting_trace.json" >/dev/null

echo "== engine_throughput -> BENCH_engine.json + telemetry artifacts"
"$build_dir/bench/engine_throughput" --benchmark_format=json \
  --trace_out="$repo_root/BENCH_engine_trace.json" \
  --histogram_out="$repo_root/BENCH_telemetry.json" \
  --timeline_out="$repo_root/BENCH_engine_timeline.jsonl" \
  > "$repo_root/BENCH_engine.json"

echo "== tidlist_budget -> BENCH_tidlist.json"
"$build_dir/bench/tidlist_budget" \
  --json_out="$repo_root/BENCH_tidlist.json"

echo "== server_throughput -> BENCH_server.json"
server_scratch="$(mktemp -d)"
"$build_dir/bench/server_throughput" --benchmark_format=json \
  --data_dir="$server_scratch" > "$repo_root/BENCH_server.json"
rm -rf "$server_scratch"

# Stamp provenance into every artifact's context block. Trace files are
# Chrome trace-event JSON with no context object and are left alone.
git_sha="$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
num_cpus="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
echo "== stamping context (build_type=$build_type num_cpus=$num_cpus sha=$git_sha)"
python3 - "$build_type" "$num_cpus" "$git_sha" "$repo_root"/BENCH_*.json <<'EOF'
import json
import sys

build_type, num_cpus, git_sha = sys.argv[1:4]
for path in sys.argv[4:]:
    if path.endswith("_trace.json"):
        continue
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        continue
    ctx = doc.setdefault("context", {})
    ctx["demon_build_type"] = build_type
    ctx["num_cpus"] = int(num_cpus)
    ctx["git_sha"] = git_sha
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
EOF

echo "wrote $repo_root/BENCH_counting.json"
echo "wrote $repo_root/BENCH_counting_trace.json"
echo "wrote $repo_root/BENCH_engine.json"
echo "wrote $repo_root/BENCH_engine_trace.json"
echo "wrote $repo_root/BENCH_engine_timeline.jsonl"
echo "wrote $repo_root/BENCH_telemetry.json"
echo "wrote $repo_root/BENCH_tidlist.json"
echo "wrote $repo_root/BENCH_server.json"
