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
cargo test -q --offline --test crash_recovery --test fault_matrix
# Query-path determinism gate: the scheduled batch engine must answer
# identically to the sequential loop at every thread count.
cargo test -q --offline --test parallel_query_equivalence
# MVCC gate: N reader threads × M refresh cycles; every pinned batch must
# match exactly one committed generation, and retired generations must be
# reclaimed once the last pin drops.
cargo test -q --offline --test mvcc_concurrency
# HTTP serving gate: validation 4xx-not-panic, loopback answers bit-identical
# to sequential query(), refresh-during-queries snapshot consistency, 429
# overload with Retry-After.
cargo test -q --offline --test serving_http
cargo clippy --offline --workspace --all-targets -- -D warnings
# Error-path gate: ct-storage and ct-rtree deny clippy::{unwrap,expect}_used
# at the crate level (test code exempt); check their lib targets explicitly.
cargo clippy --offline -p ct-storage -p ct-rtree --lib -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps -q
cargo run -q --release --offline --example quickstart > /dev/null
# Parallel query smoke: a scheduled, metrics-enabled Figure 12 run.
cargo run -q --release --offline -p ct-bench --bin fig12_queries -- \
  --sf 0.005 --queries 20 --threads 2 --metrics target/fig12_metrics.json > /dev/null
# Scaling baseline: exits non-zero if the parallel batch reads more pages
# than the sequential one; target/BENCH_queries.json records wall/I-O/sched
# stats. 2000 queries, not 200: on bit-packed leaves 200 queries touch about
# 100 pages, fewer than the 128-page pool holds, so both runs read each page
# once and the strict gate would compare eviction noise; 2000 leave the pool
# (about 780 vs 460 pages). Every bench_* step writes under target/: the
# BENCH_*.json tracked at the root are checked-in results, not something each
# CI run rewrites.
cargo run -q --release --offline -p ct-bench --bin bench_queries -- \
  --sf 0.05 --queries 2000 --threads 4 --json target/BENCH_queries.json > /dev/null
# Reader-during-update smoke: queries run concurrently with merge-pack
# refreshes; exits non-zero on any snapshot-isolation violation.
cargo run -q --release --offline -p ct-bench --bin bench_mixed -- \
  --sf 0.005 --queries 8 --threads 2 > /dev/null
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
# Streaming ingestion baseline: /ingest ack throughput vs the Table 7
# batch-refresh path; exits non-zero on any invariant failure (freshness,
# bit-identity after compaction, shutdown drain) or if the streaming/refresh
# throughput ratio drops below results/bench_ingest_baseline.json.
cargo run -q --release --offline -p ct-bench --bin bench_ingest -- \
  --sf 0.01 --threads 2 --json target/BENCH_ingest.json > /dev/null
# Partitioned-forest gates: sharded answers must be bit-identical to the
# unsharded engine for every query class at shards ∈ {1..4}, and a crashed
# multi-shard refresh must recover to a consistent cut.
cargo test -q --offline --test sharded_equivalence --test sharded_recovery
# Sharded scatter-gather smoke: shard-count sweep {1,2,4,8}; exits non-zero
# if any sharded answer diverges from shards=1 or if shards=4 reads more
# pages per query than the gather-overhead allowance in
# results/bench_shards_baseline.json. target/BENCH_shards.json records build
# wall/speedup, per-query page I/O, and the shard-skew report.
cargo run -q --release --offline -p ct-bench --bin bench_shards -- \
  --sf 0.02 --queries 28 --threads 4 --json target/BENCH_shards.json > /dev/null
# Answer-cache equivalence gate: random query/refresh/ingest/compact
# interleavings must answer bit-identically with the cache on and off (both
# engines), and a stamp mismatch must force a miss after every flip.
cargo test -q --offline --test cache_equivalence
# Answer-cache smoke: identical Zipf-skewed serving runs cache-on vs
# cache-off; exits non-zero on any answer mismatch, zero hits, or if the
# cached run reads more pages per query than
# results/bench_cache_baseline.json allows. target/BENCH_cache.json records
# hit rate and the page economy.
cargo run -q --release --offline -p ct-bench --bin bench_cache -- \
  --sf 0.01 --queries 240 --threads 2 --json target/BENCH_cache.json > /dev/null
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
