#!/usr/bin/env bash
# The reproduction's output is deterministic: every table and figure row is
# a simulator result, and only the `[wall: …]` lines differ between runs.
#
#   scripts/check_repro.sh [--quick]
#
# Runs `repro [--quick] all`, drops the `[wall:` lines from its output and
# from the committed results_full.txt (results_quick.txt with --quick), and
# diffs the two. Exits 0 when they are identical; otherwise prints the diff
# (committed = `<`, this run = `>`) and exits 1. After a change that is meant
# to move a figure, regenerate the committed file with
# `repro [--quick] all > results_{full,quick}.txt`.
set -euo pipefail

case "$#:${1-}" in
    0:) golden=results_full.txt ;;
    1:--quick) golden=results_quick.txt ;;
    *)
        sed -n '2,12p' "$0" >&2
        exit 2
        ;;
esac
cd "$(dirname "$0")/.."

out=$(mktemp)
trap 'rm -f "$out"' EXIT
# $1 is empty or --quick, checked above.
cargo run --release --quiet -p afs-bench --bin repro -- ${1-} all >"$out"

if diff <(grep -v '^ *\[wall:' "$golden") <(grep -v '^ *\[wall:' "$out"); then
    echo "check_repro: output matches $golden ($(grep -vc '^ *\[wall:' "$golden") lines)"
else
    echo "check_repro: output differs from $golden" >&2
    exit 1
fi
