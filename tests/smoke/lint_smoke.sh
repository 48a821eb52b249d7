#!/usr/bin/env bash
# Exit-code and output contract of lad_lint, driven black-box against the
# checked-in fixture trees:
#
#   0  clean tree
#   1  at least one finding
#   2  broken invocation (unknown flag/rule, unreadable root)
#
# CI's lint job and scripts branch on the 1-vs-2 split, so it is pinned
# here, not just documented.
set -u

lint="$1"      # path to the lad_lint binary
fixtures="$2"  # path to tests/data/lint

fails=0
expect() {
  local want="$1"; shift
  "$@" >/dev/null 2>&1
  local got=$?
  if [[ "$got" != "$want" ]]; then
    echo "FAIL: expected exit $want, got $got: $*" >&2
    fails=$((fails + 1))
  fi
}

pass="$fixtures/hygiene_pass"
fail="$fixtures/hygiene_fail"

# 0: clean tree (an inline allow keeps the one dead-public candidate).
expect 0 "$lint" --root "$pass" --layers "$pass/layers.txt"

# 1: the hygiene fail tree fires all four tree rules.
expect 1 "$lint" --root "$fail" --layers "$fail/layers.txt"

# 2: broken invocations, each with a named message on stderr.
expect 2 "$lint" --no-such-flag
expect 2 "$lint" --root /nonexistent/lad-lint-root
expect 2 "$lint" --root "$pass" --layers /nonexistent/layers.txt
expect 2 "$lint" --root "$pass" --layers "$pass/layers.txt" --format bogus
# The inline allow is the only suppression: there is no allowlist file and
# no report-only mode, so these are unknown flags.
expect 2 "$lint" --root "$pass" --layers "$pass/layers.txt" \
  --allowlist "$pass/layers.txt"
expect 2 "$lint" --root "$pass" --layers "$pass/layers.txt" \
  --warn-only dead-public

# --format=github rewrites findings as workflow annotations.
github=$("$lint" --root "$fail" --layers "$fail/layers.txt" \
  --format=github 2>&1)
if ! grep -q '^::error file=src/core/unused_inc.cpp,line=1::' <<<"$github"; then
  echo "FAIL: github format missing ::error annotation:" >&2
  echo "$github" >&2
  fails=$((fails + 1))
fi

if [[ "$fails" != 0 ]]; then
  echo "lint_smoke: $fails contract violation(s)" >&2
  exit 1
fi
echo "lint_smoke: ok"
