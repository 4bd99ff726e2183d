#!/bin/sh
# The tracked number of ROADMAP.md: non-test lines of crates/core — for
# every file under crates/core/src except engine/tests.rs, the lines
# before the first `#[cfg(test)]` (keep test-only items at the bottom of
# a file, or the count stops early). Prints the total; with `--by-file`,
# one `count path` line per file first (same seam rule), so a PR can
# diff two runs for its per-file deltas; with `--check`, also fails if
# the total exceeds the ceiling committed in ci/core-loc.max.
set -eu
cd "$(dirname "$0")/.."
total=0
for f in $(find crates/core/src -name '*.rs' ! -path 'crates/core/src/engine/tests.rs' | sort); do
    n=$(awk '/#\[cfg\(test\)\]/ { exit } { c++ } END { print c + 0 }' "$f")
    if [ "${1:-}" = "--by-file" ]; then
        printf '%6d %s\n' "$n" "$f"
    fi
    total=$((total + n))
done
echo "$total"
if [ "${1:-}" = "--check" ]; then
    max=$(cat ci/core-loc.max)
    if [ "$total" -gt "$max" ]; then
        echo "crates/core non-test lines $total exceed ci/core-loc.max ($max)" >&2
        exit 1
    fi
fi
