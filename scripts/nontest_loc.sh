#!/bin/sh
# Non-test source lines of a workspace tree: for every .rs file under
# crates/, compat/ and src/ (outside tests/ and benches/ directories), the
# lines before its test module (a `#[cfg(test)]` whose next line opens a
# `mod`), plus every Cargo.toml there. A `#[cfg(test)]` on a field, block
# or impl gates only that item, so the lines after it still count.
#
# Usage: scripts/nontest_loc.sh <tree>
set -eu
cd "$1"
find crates compat src \( -name tests -o -name benches \) -prune -o \
    \( -name '*.rs' -o -name Cargo.toml \) -type f -print |
    LC_ALL=C sort |
    xargs awk '
        FNR == 1 { n += held; counting = 1; held = 0 }
        # The line after a held `#[cfg(test)]` decides what it gated.
        held { held = 0; if (/^[[:space:]]*mod /) counting = 0; else n++ }
        FILENAME ~ /\.rs$/ && counting && /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1; next }
        counting { n++ }
        END { print n + held }' |
    awk '{ total += $1 } END { print total }'
