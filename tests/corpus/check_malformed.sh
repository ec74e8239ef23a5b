#!/bin/sh
# Regression corpus of malformed inputs: every .ddg and .mach file under
# tests/corpus/malformed must be refused by swpipe_cli with a non-zero
# exit and a line-numbered diagnostic — never a panic, and never an
# undefined-behaviour report from a sanitizer build. The first line of
# each file names the expected diagnostic line ("# expect: line N").
# .ddg files are read as the loop input; .mach files as the machine
# description for the built-in example loop.
#
# Usage: check_malformed.sh /path/to/swpipe_cli
set -eu

cli="$1"
here=$(dirname "$0")
err="${TMPDIR:-/tmp}/swp_malformed_$$.txt"
trap 'rm -f "$err"' EXIT

failed=0
checked=0
for file in "$here"/malformed/*.ddg "$here"/malformed/*.mach; do
    [ -e "$file" ] || continue
    want=$(sed -n '1s/^# expect: \(line [0-9][0-9]*\)$/\1/p' "$file")
    if [ -z "$want" ]; then
        echo "$file: first line must be '# expect: line N'" >&2
        failed=1
        continue
    fi
    case "$file" in
        *.ddg) set -- "$file" ;;
        *.mach) set -- --machine "$file" --example ;;
    esac
    rc=0
    "$cli" "$@" > /dev/null 2> "$err" || rc=$?
    checked=$((checked + 1))
    if [ "$rc" -eq 0 ]; then
        echo "$file: accepted (exit 0)" >&2
        failed=1
    elif grep -q -e panic -e 'runtime error' "$err"; then
        echo "$file: crashed instead of a diagnostic:" >&2
        cat "$err" >&2
        failed=1
    elif ! grep -q "$want:" "$err"; then
        echo "$file: no '$want:' diagnostic:" >&2
        cat "$err" >&2
        failed=1
    fi
done

if [ "$checked" -eq 0 ]; then
    echo "no malformed inputs found under $here/malformed" >&2
    exit 1
fi
[ "$failed" -eq 0 ] || exit 1
echo "malformed corpus OK ($checked inputs refused with line diagnostics)"
