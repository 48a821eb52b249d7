#!/usr/bin/env bash
# End-to-end smoke test for the v2 detector-bundle lifecycle:
#   train --fusion --taus  ->  inspect  ->  check  ->  simulate
#   upgrade (v1 golden -> v2)  ->  inspect  ->  check  ->  idempotence
# Checks exit codes and the key output lines of every step.
set -u

cli="$1"
v1_golden="$2"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

fail() {
  echo "bundle_smoke FAIL: $*" >&2
  exit 1
}

run() {
  # run <name> <expected-rc> <cmd...>; captures stdout+stderr in $output.
  local name="$1" want_rc="$2"
  shift 2
  output="$("$@" 2>&1)"
  local rc=$?
  echo "--- $name (rc=$rc) ---"
  echo "$output"
  [ "$rc" -eq "$want_rc" ] || fail "$name exited $rc, expected $want_rc"
}

small_flags=(--m 40 --r 45 --sigma 25 --networks 2 --victims 40 --seed 1)

simulate_threads_match() {
  # simulate_threads_match <name> <simulate flags...>: cmd_simulate draws
  # every trial before its fan-out, so its stdout is byte-identical at
  # every --threads value.
  local name="$1"
  shift
  "$cli" simulate "$@" --threads 1 >"$workdir/$name.t1" 2>&1 \
    || fail "$name: simulate --threads 1 failed"
  "$cli" simulate "$@" --threads 4 >"$workdir/$name.t4" 2>&1 \
    || fail "$name: simulate --threads 4 failed"
  cmp "$workdir/$name.t1" "$workdir/$name.t4" \
    || fail "$name: simulate output differs between --threads 1 and 4"
}

# --- train a fused bundle with a multi-tau table -------------------------
run train_fusion 0 "$cli" train --out "$workdir/fused.lad" --fusion \
  --taus 0.95,0.99,0.999 "${small_flags[@]}"
for m in diff add-all prob; do
  grep -q "trained $m threshold" <<<"$output" \
    || fail "train --fusion: missing $m threshold line"
done
grep -q "^lad-detector v2$" "$workdir/fused.lad" \
  || fail "train --fusion: bundle is not v2"

run inspect_fusion 0 "$cli" inspect --detector "$workdir/fused.lad"
grep -q "format:       lad-detector v2" <<<"$output" || fail "inspect: wrong format line"
grep -q "detectors:    3 (fusion" <<<"$output" || fail "inspect: missing fusion line"
grep -q "\[detector.add-all\]" <<<"$output" || fail "inspect: missing add-all section"
grep -cq "tau 0.95 -> threshold" <<<"$output" || fail "inspect: missing tau table"

# An all-zero observation from the field center must be flagged (exit 3),
# and the verdict must come from the fused detector.
run check_fusion 3 "$cli" check --detector "$workdir/fused.lad" \
  --le-x 500 --le-y 500
grep -q "detector: fusion of 3 metrics" <<<"$output" || fail "check: not fused"
grep -q "ANOMALY" <<<"$output" || fail "check: all-zero observation not flagged"

run simulate_fusion 0 "$cli" simulate --detector "$workdir/fused.lad" \
  --d 120 --x 0.1 --trials 20 --seed 7 --target add-all
grep -q "benign false positives:" <<<"$output" || fail "simulate: missing benign line"
grep -q "attacks detected (D=120, x=10%, dec-bounded vs add-all)" <<<"$output" \
  || fail "simulate: missing detection line"
simulate_threads_match simulate_fusion_threads --detector "$workdir/fused.lad" \
  --d 120 --x 0.1 --trials 20 --seed 7 --target add-all

# --- per-group threshold training ----------------------------------------
run train_per_group 0 "$cli" train --out "$workdir/grouped.lad" --per-group \
  --min-group-samples 3 --m 40 --r 45 --sigma 25 --networks 2 --victims 200 \
  --seed 1
grep -q "per-group: .* boundary group(s) trained" <<<"$output" \
  || fail "train --per-group: missing per-group summary line"
grep -Eq "^group [0-9]+ [0-9.e+-]+ [0-9]+ [0-9.e+-]+ [0-9.e+-]+ trained$" \
  "$workdir/grouped.lad" || fail "train --per-group: no trained group rows"

run inspect_grouped 0 "$cli" inspect --detector "$workdir/grouped.lad"
grep -Eq "group [0-9]+ -> threshold .*\(trained, .* samples" <<<"$output" \
  || fail "inspect: trained group provenance not printed"

# check --group consumes the override; an unknown group id is a named
# error (exit 1), never a silent fall-through to the global threshold.
"$cli" check --detector "$workdir/grouped.lad" --le-x 50 --le-y 50 \
  --obs 0:5,1:3 --group 0 >/dev/null 2>&1
rc=$?
[ "$rc" -eq 0 ] || [ "$rc" -eq 3 ] || fail "check --group 0 exited $rc"
run check_unknown_group 1 "$cli" check --detector "$workdir/grouped.lad" \
  --le-x 50 --le-y 50 --obs 0:5 --group 100
grep -q "unknown group 100" <<<"$output" \
  || fail "check: out-of-range group not a named error"

# A per-group bundle round-trips: upgrade is byte-idempotent on it.
run upgrade_grouped 0 "$cli" upgrade --in "$workdir/grouped.lad" \
  --out "$workdir/grouped2.lad"
cmp "$workdir/grouped.lad" "$workdir/grouped2.lad" \
  || fail "upgrade: per-group bundle bytes changed"

run simulate_grouped 0 "$cli" simulate --detector "$workdir/grouped.lad" \
  --d 120 --x 0.1 --trials 20 --seed 7 --per-group
grep -q "(per-group thresholds)" <<<"$output" \
  || fail "simulate --per-group: detector line does not say per-group"
simulate_threads_match simulate_grouped_threads \
  --detector "$workdir/grouped.lad" --d 120 --x 0.1 --trials 20 --seed 7 \
  --per-group

# --- migrate the checked-in v1 golden ------------------------------------
run inspect_v1 0 "$cli" inspect --detector "$v1_golden"
grep -q "format:       lad-detector v1 (migrates to v2 in memory)" <<<"$output" \
  || fail "inspect: v1 golden not reported as v1"

run upgrade 0 "$cli" upgrade --in "$v1_golden" --out "$workdir/upgraded.lad"
grep -q "upgraded v1 -> v2" <<<"$output" || fail "upgrade: missing upgrade line"
grep -q "^lad-detector v2$" "$workdir/upgraded.lad" || fail "upgrade: output is not v2"

run inspect_upgraded 0 "$cli" inspect --detector "$workdir/upgraded.lad"
grep -q "format:       lad-detector v2" <<<"$output" || fail "inspect: upgraded not v2"
grep -q "metric:       prob" <<<"$output" || fail "inspect: upgraded lost the metric"

# The upgraded bundle still answers checks (verdict may be either way for
# this observation; anything but 0/3 is a failure).
"$cli" check --detector "$workdir/upgraded.lad" --le-x 200 --le-y 200 \
  --obs 0:5,1:3,2:1 >/dev/null 2>&1
rc=$?
[ "$rc" -eq 0 ] || [ "$rc" -eq 3 ] || fail "check on upgraded bundle exited $rc"

# Upgrading is idempotent: a second pass re-emits identical bytes.
run upgrade_again 0 "$cli" upgrade --in "$workdir/upgraded.lad" \
  --out "$workdir/upgraded2.lad"
grep -q "rewrote v2 canonically" <<<"$output" || fail "upgrade: v2 input not recognized"
cmp "$workdir/upgraded.lad" "$workdir/upgraded2.lad" \
  || fail "upgrade: second pass changed the bytes"

# --- a malformed bundle fails loudly with context ------------------------
printf 'lad-detector v2\n[deployment]\nfield_side oops\n' > "$workdir/bad.lad"
run check_bad 1 "$cli" check --detector "$workdir/bad.lad" --le-x 0 --le-y 0
grep -q "bad.lad" <<<"$output" || fail "malformed bundle: error does not name the file"
grep -q "line" <<<"$output" || fail "malformed bundle: error has no line context"

echo "bundle_smoke OK"
