#!/usr/bin/env bash
# Non-test source lines: every crates/*/src/**/*.rs counted up to (not
# including) its first `#[cfg(test)]` line, or whole if it has none.
# Prints one line per file with -v, one per crate, then the total.
#
#   scripts/loc.sh          # per crate + total
#   scripts/loc.sh -v       # per file as well
#   scripts/loc.sh FILE...  # just these files (e.g. crates/serve/src/spec.rs)
set -euo pipefail
cd "$(dirname "$0")/.."

count() { awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"; }

verbose=0
if [ "${1:-}" = "-v" ]; then
    verbose=1
    shift
fi

if [ $# -gt 0 ]; then
    total=0
    for f in "$@"; do
        n=$(count "$f")
        printf '%8d  %s\n' "$n" "$f"
        total=$((total + n))
    done
    printf '%8d  total\n' "$total"
    exit 0
fi

total=0
for crate in crates/*/; do
    sum=0
    while IFS= read -r f; do
        n=$(count "$f")
        [ "$verbose" = 1 ] && printf '%8d    %s\n' "$n" "$f"
        sum=$((sum + n))
    done < <(find "${crate}src" -name '*.rs' | LC_ALL=C sort)
    printf '%8d  %s\n' "$sum" "${crate%/}"
    total=$((total + sum))
done
printf '%8d  total\n' "$total"
