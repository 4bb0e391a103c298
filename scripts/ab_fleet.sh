#!/usr/bin/env bash
# A/B two fleet_sim builds on the same arguments.
#
#   scripts/ab_fleet.sh PARENT_BIN CHANGE_BIN PAIRS -- <fleet_sim args>
#
# Runs PAIRS pairs, alternating which binary goes first, and `cmp`s the
# two stdouts of every pair: any difference fails the script (exit 1),
# since a speed change must not move the simulation. Each run's serve
# time comes from its own `--bench` record. Prints each side's serve_ms
# median and quartiles, the pairs the change won (lower serve_ms; ties
# count for neither side), and whether the gain rule holds: the change
# wins at least nine tenths of the pairs and the medians differ by more
# than the parent's interquartile range.
#
# Example, the 64-node soak rack at two threads:
#   scripts/ab_fleet.sh old/fleet_sim target/release/fleet_sim 10 -- \
#       --nodes 64 --secs 10800 --threads 2
set -euo pipefail

if [ $# -lt 4 ] || [ "$4" != "--" ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN PAIRS -- <fleet_sim args>" >&2
    exit 2
fi
parent=$1 change=$2 pairs=$3
shift 4

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run SIDE BIN: one fresh process; prints its serve_ms.
run() {
    local side=$1 bin=$2
    shift 2
    rm -f "$tmp/$side.bench"
    "$bin" "$@" --bench "$tmp/$side.bench" > "$tmp/$side.out"
    python3 -c 'import json, sys; print(json.loads(open(sys.argv[1]).read().splitlines()[-1])["serve_ms"])' \
        "$tmp/$side.bench"
}

: > "$tmp/serve"
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        p=$(run parent "$parent" "$@"); c=$(run change "$change" "$@")
    else
        c=$(run change "$change" "$@"); p=$(run parent "$parent" "$@")
    fi
    if ! cmp -s "$tmp/parent.out" "$tmp/change.out"; then
        echo "pair $i: stdout differs between the two binaries" >&2
        exit 1
    fi
    echo "pair $i: parent $p ms, change $c ms"
    echo "$p $c" >> "$tmp/serve"
done

python3 - "$tmp/serve" <<'EOF'
import statistics, sys

pairs = [tuple(map(float, line.split())) for line in open(sys.argv[1])]
parent = [p for p, _ in pairs]
change = [c for _, c in pairs]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

for name, xs in (("parent", parent), ("change", change)):
    q1, med, q3 = quartiles(xs)
    print(f"{name}: serve_ms median {med:.1f} (q1 {q1:.1f}, q3 {q3:.1f}) over {len(xs)} runs")
wins = sum(c < p for p, c in pairs)
pq1, pmed, pq3 = quartiles(parent)
cmed = quartiles(change)[1]
gap = pmed - cmed
print(f"change wins {wins}/{len(pairs)} pairs; median gap {gap:.1f} ms "
      f"({gap / pmed:+.1%} of the parent's), parent IQR {pq3 - pq1:.1f} ms")
holds = wins >= 0.9 * len(pairs) and gap > pq3 - pq1
print("gain rule: " + ("holds" if holds else "does not hold"))
EOF
