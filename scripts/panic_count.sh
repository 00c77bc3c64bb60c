#!/usr/bin/env bash
# Panic sites per library crate: every `.unwrap()`, `.expect(` and
# `panic!(` under crates/<crate>/src, inline tests included, by plain
# grep. `bench` (bins whose CLI errors are panics by design, and the
# allocation gates) and `testkit` (test oracles) are not libraries and
# are left out. Run from the repository root.
#
#   bash scripts/panic_count.sh > results/PANIC_counts.txt      # regenerate
#   bash scripts/panic_count.sh --check results/PANIC_counts.txt
#
# `--check` fails when a crate's count rose above the committed one, or
# a crate has no committed line. A change that lowers a count
# regenerates the file, so the audit only ratchets down.
set -euo pipefail

counts() {
    for dir in crates/*/src; do
        crate=${dir#crates/}
        crate=${crate%/src}
        case $crate in bench | testkit) continue ;; esac
        printf '%s %s\n' "$crate" \
            "$(grep -rEo '\.unwrap\(\)|\.expect\(|panic!\(' "$dir" | wc -l)"
    done
}

if [[ ${1:-} != --check ]]; then
    counts
    exit 0
fi

committed=${2:?usage: panic_count.sh --check FILE}
status=0
while read -r crate now; do
    was=$(awk -v c="$crate" '$1 == c { print $2 }' "$committed")
    if [[ -z $was ]]; then
        echo "$crate: $now panic sites, no line in $committed" >&2
        status=1
    elif ((now > was)); then
        echo "$crate: $now panic sites, above the committed $was" >&2
        status=1
    elif ((now < was)); then
        echo "$crate: $now panic sites, below the committed $was; regenerate $committed" >&2
    fi
done < <(counts)
exit $status
