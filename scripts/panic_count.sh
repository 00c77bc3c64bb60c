#!/usr/bin/env bash
# Panic sites per library crate: every `.unwrap()`, `.expect(` and
# `panic!(` in library code under crates/<crate>/src, by plain grep.
# A `#[cfg(test)]` item (the attribute, then the item through the brace
# that closes it, or through its `;`) is test code and is not counted.
# `bench` (bins whose CLI errors are panics by design, and the
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

# The lines of the Rust files named, `#[cfg(test)]` items left out.
library_lines() {
    awk '
        FNR == 1 { skip = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        skip {
            line = $0
            opens = gsub(/\{/, "", line)
            depth += opens - gsub(/\}/, "", line)
            if (opens) opened = 1
            if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) skip = 0
            next
        }
        { print }
    ' "$@"
}

counts() {
    for dir in crates/*/src; do
        crate=${dir#crates/}
        crate=${crate%/src}
        case $crate in bench | testkit) continue ;; esac
        mapfile -t files < <(find "$dir" -name '*.rs' | sort)
        printf '%s %s\n' "$crate" \
            "$(library_lines "${files[@]}" | grep -Eo '\.unwrap\(\)|\.expect\(|panic!\(' | wc -l)"
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
