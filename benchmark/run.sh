#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it. See README.md.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--workload NAME] [--seed N] [--repeat 2] [--quick] the suite
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The driver names the build directory relative to where it starts us.
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

export CT_BENCH_HOME="$here"
exec "$target/release/ct-benchmark" "$@"
