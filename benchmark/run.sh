#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds both binaries from source
# (offline; into $CARGO_TARGET_DIR when the driver sets it, else
# benchmark/target) and hands the arguments to `perf` (--trace 0, the
# default) or `perf-trace` (--trace 1). Run it from the repository root.
set -euo pipefail

here=$(dirname "$0")
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2

bin=perf
prev=
for arg in "$@"; do
    if [[ $prev == --trace && $arg == 1 ]]; then
        bin=perf-trace
    fi
    prev=$arg
done
exec "${CARGO_TARGET_DIR:-$here/target}/release/$bin" "$@"
