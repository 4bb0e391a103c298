#!/bin/sh
# Non-test source lines of a workspace tree: for every .rs file under
# crates/, compat/ and src/ (outside tests/ and benches/ directories), the
# lines before its first `#[cfg(test)]`, plus every Cargo.toml there.
#
# Usage: scripts/nontest_loc.sh <tree>
set -eu
cd "$1"
find crates compat src \( -name tests -o -name benches \) -prune -o \
    \( -name '*.rs' -o -name Cargo.toml \) -type f -print |
    LC_ALL=C sort |
    xargs awk '
        FNR == 1 { counting = 1 }
        FILENAME ~ /\.rs$/ && /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }' |
    awk '{ total += $1 } END { print total }'
