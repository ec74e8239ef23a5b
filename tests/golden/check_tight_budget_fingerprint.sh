#!/bin/sh
# Byte-identity guard for the over-budget paths of the strategies.
#
# check_suite_fingerprint.sh runs budgets where nearly every loop fits,
# so it never reaches the code that handles a loop that does not: the
# spill driver's best over-budget round, the acyclic fallbacks, and
# best-of-all's II search on loops that had to spill. The pinned
# commands below run budgets of 4 to 16 registers, where hundreds of
# loops end over budget, with both spill-code modes, plus increase-II
# on a machine file with a long unpipelined divider (--kernel prints
# the schedules). Their concatenated stdout is hashed and compared
# against tests/golden/tight_budget_fingerprint.sha256, captured before
# register allocation was bounded by the budget: any change to a
# schedule, a register count or a spill decision fails this check.
#
# Usage: check_tight_budget_fingerprint.sh /path/to/swpipe_cli
set -eu

cli="$1"
here=$(dirname "$0")
want=$(cat "$here/tight_budget_fingerprint.sha256")

tmp="${TMPDIR:-/tmp}/swp_tight_fingerprint_$$.txt"
trap 'rm -f "$tmp"' EXIT

{
    "$cli" --suite 400 --csv --registers 8 --strategy spill
    "$cli" --suite 400 --csv --registers 4 --strategy best --single
    "$cli" --suite 400 --csv --registers 16 --strategy increase-ii
    "$cli" --suite 400 --csv --registers 6 --strategy spill --no-fusion
    "$cli" --suite 120 --machine "$here/../../examples/machines/longdiv.mach" \
        --registers 8 --strategy increase-ii --kernel
} > "$tmp"

got=$(sha256sum "$tmp" | cut -d' ' -f1)
if [ "$got" != "$want" ]; then
    echo "tight-budget output fingerprint mismatch:" >&2
    echo "  want $want" >&2
    echo "  got  $got" >&2
    echo "over-budget results are no longer byte-identical to the golden run" >&2
    exit 1
fi
echo "tight-budget fingerprint OK ($got)"
