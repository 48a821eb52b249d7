#!/usr/bin/env bash
# Fixed-seed wall-time baseline runner (the ROADMAP "perf baseline" item).
#
# Builds lad_cli, runs every figure/table scenario spec in quick mode
# (`lad_cli run --scenario bench/scenarios/<spec>.scn --quick --csv`)
# under the default fixed seed, prints a markdown table of
# wall-times to paste into bench/BASELINE.md, and writes the same rows
# as machine-readable lad-bench-1 JSON (BENCH_baseline.json, the schema
# that tools/bench_json_check validates).  Scenario output itself is
# deterministic (same seed => byte-identical CSV), so regressions show
# up as time deltas, never value deltas.
#
# Each spec is timed twice: pinned to LAD_THREADS=1 (comparable across
# hosts) and at a multithread count (default 4; export LAD_BASELINE_MT
# to change it), so the table shows what the shared-pool fan-out buys
# on the measuring host.  Export LAD_THREADS to change the pinned leg.
# Each leg also reports its user+sys CPU seconds: a multithread leg whose
# CPU time exceeds its wall time did fan out, so a flat one means the
# other cores were busy (contention), not that the fan-out regressed.
#
# Portability: works without GNU date (%N) — timing falls back to whole
# seconds — and without nproc (getconf fallback).
#
# usage: tools/bench_baseline.sh [build_dir] [json_out_dir]
#        (defaults: build, current directory)
set -eu

build="${1:-build}"
out_dir="${2:-.}"
repo="$(cd "$(dirname "$0")/.." && pwd)"

# Pin the thread count so wall-times are comparable run-over-run; lad_cli
# honors LAD_THREADS through lad::default_parallelism().
pinned="${LAD_THREADS:-1}"
mt="${LAD_BASELINE_MT:-4}"

cmake --build "$build" --target lad_cli -j >/dev/null
cli="$build/tools/lad_cli"
[ -x "$cli" ] || { echo "missing binary $cli" >&2; exit 1; }

# Nanosecond timestamps need GNU date; BSD/busybox date prints a literal
# 'N' for %N.  Detect once and fall back to second resolution.
case "$(date +%N 2>/dev/null)" in
  (''|*[!0-9]*) have_ns=0 ;;
  (*)           have_ns=1 ;;
esac
now_ns() {
  if [ "$have_ns" = 1 ]; then date +%s%N; else echo "$(date +%s)000000000"; fi
}

cores="$( (command -v nproc >/dev/null 2>&1 && nproc) \
  || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1 )"
host="$(uname -sr) / ${cores} core(s)"
git_rev="$(git -C "$repo" rev-parse --short HEAD 2>/dev/null || echo unknown)"
utc_date="$(date -u +%Y-%m-%d)"

# The spec directory is the authoritative bench list; each row keeps the
# spec's file name.
benches=$(cd "$repo/bench/scenarios" && ls *.scn | sed 's/\.scn$//' \
  | grep -v '^quickstart$')
[ -n "$benches" ] || { echo "no specs found in bench/scenarios" >&2; exit 1; }

json="$out_dir/BENCH_baseline.json"
{
  printf '{\n'
  printf '  "schema": "lad-bench-1",\n'
  printf '  "name": "baseline",\n'
  printf '  "threads": %s,\n' "$pinned"
  printf '  "git_rev": "%s",\n' "$git_rev"
  printf '  "host": "%s",\n' "$host"
  printf '  "date": "%s",\n' "$utc_date"
  printf '  "results": [\n'
} >"$json"

# time_bench <spec name> <threads> -> "<elapsed ns> <user+sys s>" on
# stdout; lad_cli's progress lines are kept out of the table and shown
# only on failure.  Bash's `time` keyword reports the CPU seconds.
time_bench() {
  local TIMEFORMAT='%3U %3S' start end cpu
  start=$(now_ns)
  if ! cpu=$( { time LAD_THREADS="$2" "$cli" run \
    --scenario "$repo/bench/scenarios/$1.scn" --quick --csv \
    >/dev/null 2>"$out_dir/.bench_baseline.err"; } 2>&1 ); then
    cat "$out_dir/.bench_baseline.err" >&2
    exit 1
  fi
  end=$(now_ns)
  echo "$((end - start)) $(echo "$cpu" | awk '{printf "%.2f", $1 + $2}')"
}

echo "| bench (quick mode, default seed) | LAD_THREADS=$pinned wall (s) | cpu (s) | LAD_THREADS=$mt wall (s) | cpu (s) |"
echo "|---|---|---|---|---|"
first=1
for b in $benches; do
  read -r ns cpu <<<"$(time_bench "$b" "$pinned")"
  read -r ns_mt cpu_mt <<<"$(time_bench "$b" "$mt")"
  printf "| %s | %s | %s | %s | %s |\n" "$b" \
    "$(awk "BEGIN {printf \"%.2f\", $ns / 1e9}")" "$cpu" \
    "$(awk "BEGIN {printf \"%.2f\", $ns_mt / 1e9}")" "$cpu_mt"
  [ "$first" = 1 ] || printf ',\n' >>"$json"
  first=0
  printf '    {"name": "%s", "nodes": 0, "ns_per_op": %s.0, "ops": 1},\n' \
    "$b" "$ns" >>"$json"
  printf '    {"name": "%s/t%s", "nodes": 0, "ns_per_op": %s.0, "ops": 1}' \
    "$b" "$mt" "$ns_mt" >>"$json"
done
printf '\n  ]\n}\n' >>"$json"
rm -f "$out_dir/.bench_baseline.err"

echo
echo "_Measured on: $host, $utc_date (pinned LAD_THREADS=$pinned vs $mt;"
echo "cpu = user+sys seconds of the leg)._"
echo
echo "wrote $json" >&2

# Self-check the emitted JSON when the checker is built (CI always
# builds it; local quick runs may not have it yet).
if [ -x "$build/tools/bench_json_check" ]; then
  "$build/tools/bench_json_check" "$json" >&2
fi
