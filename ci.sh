#!/usr/bin/env bash
# Offline CI gate: build, test, lint. Dependencies are vendored under
# vendor/, so no registry access is needed.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
# The benchmark package (BENCHMARK.json) sits outside the workspace and
# imports ct-core's read-path names; build it here so a refactor that breaks
# those imports fails locally, not in the driver.
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir target
cargo test -q --offline
# The crates' own unit and integration tests (buffer pool, sorter, R-tree
# corruption proptest, jobs, forest, delta tier, server): the root package's
# tests above do not run them.
cargo test -q --offline --workspace
cargo test -q --offline --test crash_recovery --test fault_matrix
# MVCC gate: N reader threads × M refresh cycles; every pinned batch must
# match exactly one committed generation, every committed generation must be
# read, and retired generations must be reclaimed once the last pin drops.
cargo test -q --offline --test mvcc_concurrency
# HTTP serving gate: validation 4xx-not-panic, loopback answers bit-identical
# to sequential query(), refresh-during-queries snapshot consistency, 429
# overload with Retry-After.
cargo test -q --offline --test serving_http
cargo clippy --offline --workspace --all-targets -- -D warnings
# Error-path gate: ct-storage, ct-rtree, ct-workload, ct-server and ct-core
# (package cubetree) deny clippy::{unwrap,expect}_used at the crate level
# (test code exempt); check their lib targets explicitly.
cargo clippy --offline -p ct-storage -p ct-rtree -p ct-workload -p ct-server -p cubetree --lib -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps -q
cargo run -q --release --offline --example quickstart > /dev/null
# Query smoke: a metrics-enabled Figure 12 run at a worker budget of 2
# (queries still run one at a time; tests/parallel_equivalence.rs pins that
# threads does not change what they cost).
cargo run -q --release --offline -p ct-bench --bin fig12_queries -- \
  --sf 0.005 --queries 20 --threads 2 --metrics target/fig12_metrics.json > /dev/null
# Table 5 gate: the allocation binary prints no wall-clock figure, so its
# JSON must equal the checked-in copy byte for byte.
cargo run -q --release --offline -p ct-bench --bin table5_allocation -- \
  --sf 0.02 --json target/table5_allocation.json > /dev/null
diff target/table5_allocation.json results/table5_allocation.json
# Serving smoke: ephemeral-port server, one JSON query, one CSV query, one
# refresh, clean shutdown.
cargo run -q --release --offline --example serving_smoke > /dev/null
# Delta-tier gates: tree+delta answers must equal a rebuilt base∪delta
# engine across compaction, and concurrent /ingest + /query + merge-pack
# must produce zero 5xx with monotonic visibility and an exact drained
# total on shutdown.
cargo test -q --offline --test ingest_delta --test ingest_stress
# Ingest smoke: ephemeral-port server, rows visible to the next query at
# generation 0, post-compaction answer bit-identical, clean drain.
cargo run -q --release --offline --example ingest_smoke > /dev/null
# Answer-cache equivalence gate: random query/refresh/ingest/compact
# interleavings must answer bit-identically with the cache on and off (both
# engines), a hit must read no page, and a stamp mismatch must force a miss
# after every flip.
cargo test -q --offline --test cache_equivalence
# Leaf-format gate: the three formats, each named explicitly, must answer
# one query batch with the same checksum and their bytes must order
# bit-packed < zero-elided <= raw; the binary asserts both.
cargo run -q --release --offline -p ct-bench --bin ablations -- \
  --sf 0.005 --json target/ablations.json > /dev/null
# Benchmark smoke: one short serve_uniform_cold run, untraced then traced;
# exits non-zero on a wrong answer, a failed request, or if the ladder's page
# counts diverge between serve_batch(&[q]) and the direct plan/execute rungs.
benchmark/run.sh --quick --workload serve_uniform_cold > /dev/null
# Benchmark smoke with writes beside the reads: the only workload that keeps
# a resident delta under concurrent queries, stamp invalidation and
# merge-packs; exits non-zero on a wrong answer, a refused ingest or a tier
# that is not empty after the drain.
benchmark/run.sh --quick --workload serve_ingest_mix > /dev/null
# Benchmark smoke for the load path: load then successive refreshes with no
# server, so view computation, external sort, packing and merge-pack (and
# the page checksum on every run and tree page) are exercised; exits
# non-zero on a wrong answer or a ladder page-count mismatch.
benchmark/run.sh --quick --workload bulk_load_refresh > /dev/null
