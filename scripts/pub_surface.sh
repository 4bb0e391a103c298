#!/bin/sh
# Public functions and constants no other crate names: every `pub fn` and
# `pub const` in the non-test part of crates/*/src (the lines before a
# file's test module: a column-0 `#[cfg(test)]` whose next line opens a
# column-0 `mod`; binaries excluded) whose name appears in
# no .rs file outside that crate's library source. Outside means any other
# .rs file in the tree: other crates, binaries under src/bin/, tests/,
# benches/, examples/, the facade's src/ and rackbench/replay. Prints one
# `path:line: name` per item; prints nothing when the surface is tight.
#
# Names are matched as whole words anywhere in a file, comments included,
# so the scan can miss an unused item but never flags a used one. Types
# are left out: some stay public because other crates reach them through
# public signatures without naming them.
#
# Usage: scripts/pub_surface.sh <tree>
set -eu
cd "$1"
find . \( -name target -o -name .git \) -prune -o -name '*.rs' -type f -print |
    sed 's|^\./||' | LC_ALL=C sort |
    xargs awk '
        # The crate whose library source holds the file, or "" if none.
        function owner(path,    parts) {
            if (path !~ /^crates\/[^\/]+\/src\// || path ~ /^crates\/[^\/]+\/src\/bin\//)
                return ""
            split(path, parts, "/")
            return parts[2]
        }
        FNR == 1 { crate = owner(FILENAME); in_test = 0; gated = 0 }
        # A `#[cfg(test)]` on a field, block or impl gates only that item;
        # the test module, and everything after it, starts at a gated `mod`.
        crate != "" && gated && /^mod / { in_test = 1 }
        crate != "" { gated = /^#\[cfg\(test\)\]/ }
        crate != "" && !in_test &&
            match($0, /^[[:space:]]*pub (const )?fn [A-Za-z_][A-Za-z0-9_]*|^[[:space:]]*pub const [A-Za-z_][A-Za-z0-9_]*/) {
            n = split(substr($0, RSTART, RLENGTH), words, " ")
            items[++count] = crate SUBSEP words[n] SUBSEP FILENAME ":" FNR
        }
        {
            line = $0
            gsub(/[^A-Za-z0-9_]+/, " ", line)
            m = split(line, tokens, " ")
            for (i = 1; i <= m; i++) {
                key = tokens[i] SUBSEP crate
                if (!(key in seen)) {
                    seen[key] = 1
                    owners[tokens[i]]++
                    first[tokens[i]] = crate
                }
            }
        }
        END {
            for (i = 1; i <= count; i++) {
                split(items[i], f, SUBSEP)
                if (owners[f[2]] == 1 && first[f[2]] == f[1])
                    print f[3] ": " f[2]
            }
        }'
