#!/bin/sh
# Runs the lazytree_verify battery and compares each item's result,
# executions= and states= counts with tools/verify_expected.txt.
#
#   tools/check_verify_battery.sh <lazytree_verify> <expected-file>
#   tools/check_verify_battery.sh <lazytree_verify> <expected-file> --record
#
# The counts are deterministic: they move only when a change alters the
# explored schedules or the state fingerprints (the wire bytes of pending
# messages among them). Such a change re-records the file with --record
# and gives the reason in CHANGES.md. A failing battery item (nonzero
# exit from lazytree_verify) still prints the whole battery first.
set -eu
verify=$1
expected=$2
rc=0
out=$("$verify") || rc=$?
printf '%s\n' "$out"
summary=$(printf '%s\n' "$out" | sed -nE \
  's/^\[([a-z0-9-]+)\] (exhausted, no violations|VIOLATION).*\| .*executions=([0-9]+) .*states=([0-9]+) .*/\1 \2 executions=\3 states=\4/p' |
  sed 's/ exhausted, no violations / exhausted /')
if [ "${3:-}" = "--record" ]; then
  if [ "$rc" -ne 0 ]; then
    echo "lazytree_verify exited $rc: not recording a failing battery" >&2
    exit "$rc"
  fi
  printf '%s\n' "$summary" > "$expected"
  echo "recorded $(printf '%s\n' "$summary" | wc -l) items to $expected"
  exit 0
fi
if ! printf '%s\n' "$summary" | diff -u "$expected" -; then
  echo "verify battery moved: re-record with --record and say why" >&2
  exit 1
fi
if [ "$rc" -ne 0 ]; then
  echo "lazytree_verify exited $rc" >&2
  exit "$rc"
fi
echo "verify battery matches $expected"
