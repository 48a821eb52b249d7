#!/usr/bin/env bash
# Smoke test for the machine-readable bench surface: scale_observe --quick
# must emit a BENCH_*.json that tools/bench_json_check accepts, with the
# rows the bench promises.  This is the CI gate that keeps every bench's
# JSON output conforming to the lad-bench-1 schema.  The bench must also
# reject an unusable --out by name before measuring anything.
set -u

bench="$1"
checker="$2"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

fail() {
  echo "bench_json_smoke FAIL: $*" >&2
  exit 1
}

# Pin to one thread so the smoke run is scheduling-independent.
LAD_THREADS=1 "$bench" --quick --out "$workdir" \
  || fail "scale_observe --quick exited $?"
json="$workdir/BENCH_scale_observe.json"
[ -s "$json" ] || fail "missing or empty $json"

echo "--- $json ---"
cat "$json"

out="$("$checker" "$json" 2>&1)" || fail "bench_json_check rejected: $out"
echo "$out"

grep -q '"schema": "lad-bench-1"' "$json" || fail "wrong schema tag"
grep -q '"name": "scale_observe"' "$json" || fail "wrong bench name"
grep -q 'observe_many/' "$json" || fail "no observe_many result rows"
grep -q 'grid_build' "$json" || fail "no grid_build result row"

# The checker must also reject a corrupted document (smoke the negative
# path so CI notices if the checker degrades into a yes-machine).
head -c 40 "$json" >"$workdir/truncated.json"
if "$checker" "$workdir/truncated.json" >/dev/null 2>&1; then
  fail "bench_json_check accepted a truncated document"
fi

# An --out that cannot be created (a path under a regular file) must fail
# with a named error and exit 2 before any timing: nothing on stdout.
blocker="$workdir/not_a_dir"
: >"$blocker"
out="$("$bench" --quick --out "$blocker/sub" 2>"$workdir/err.txt")"
rc=$?
[ "$rc" = 2 ] || fail "scale_observe with an unusable --out exited $rc, want 2"
[ -z "$out" ] || fail "scale_observe ran before rejecting --out: $out"
grep -q "cannot create output directory" "$workdir/err.txt" \
  || fail "scale_observe: unnamed --out error: $(cat "$workdir/err.txt")"

echo "bench_json_smoke OK"
