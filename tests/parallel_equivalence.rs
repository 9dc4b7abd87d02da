//! The worker-thread budget must be a pure wall-clock knob: for any budget
//! the packed trees are byte-identical and the simulated-I/O accounting is
//! identical to the sequential pipeline. These tests pin that contract end
//! to end through the engine (load, refresh and queries), plus the
//! structural invariant parallel packing must not break — each view's
//! entries stay contiguous inside its tree. The view set carries the top
//! view's two replicas, so the replicas' sorts run side by side as well as
//! the per-tree packing jobs.

use cubetrees_repro::common::query::normalize_rows;
use cubetrees_repro::common::{AggFn, AttrId};
use cubetrees_repro::core::ServingEngine;
use cubetrees_repro::workload::{run_batch, QueryGenerator};
use cubetrees_repro::{
    Catalog, CubetreeConfig, CubetreeEngine, Relation, RolapEngine, SliceQuery, ViewDef, ViewId,
};
use proptest::prelude::*;

/// Domain sizes of (p, s, c) with about five fact rows per (p, s, c) cell
/// at 2,000 rows, so slice queries that fix every attribute still find rows.
const DENSE: [u64; 3] = [12, 5, 7];
/// A key space (120 × 50 × 70) large enough that a fact of 45,000 rows has a
/// top view whose replica sorts spill runs.
const SPILL: [u64; 3] = [120, 50, 70];

/// A three-attribute catalog over the domain sizes `dom` plus a
/// deterministic LCG-generated fact.
fn setup(rows: usize, mut x: u64, dom: [u64; 3]) -> (Catalog, Relation, CubetreeConfig) {
    let mut cat = Catalog::new();
    let p = cat.add_attr("p", dom[0]);
    let s = cat.add_attr("s", dom[1]);
    let c = cat.add_attr("c", dom[2]);
    let mut keys = Vec::new();
    let mut measures = Vec::new();
    for _ in 0..rows {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        keys.extend_from_slice(&[
            x % dom[0] + 1,
            (x >> 17) % dom[1] + 1,
            (x >> 29) % dom[2] + 1,
        ]);
        measures.push(((x >> 43) % 40) as i64 + 1);
    }
    let fact = Relation::from_fact(vec![p, s, c], keys, &measures);
    // Two arity-2 views force a multi-tree forest, so the per-tree jobs
    // genuinely run concurrently at threads > 1.
    // The top view's replicas (paper §3) add two sorts that run at the same
    // time once the top view is computed.
    let views = vec![
        ViewDef::new(0, vec![p, s, c], AggFn::Sum),
        ViewDef::new(1, vec![p, s], AggFn::Sum),
        ViewDef::new(2, vec![s, c], AggFn::Sum),
        ViewDef::new(3, vec![c], AggFn::Sum),
        ViewDef::new(4, vec![], AggFn::Sum),
    ];
    let config = CubetreeConfig::new(views)
        .with_replica(ViewId(0), vec![s, c, p])
        .with_replica(ViewId(0), vec![c, p, s]);
    (cat, fact, config)
}

fn loaded_engine(threads: usize, rows: usize, dom: [u64; 3]) -> CubetreeEngine {
    let (cat, fact, config) = setup(rows, 0xC0FFEE, dom);
    let config = config.with_threads(threads);
    let mut engine = CubetreeEngine::new(cat, config).unwrap();
    engine.load(&fact).unwrap();
    engine
}

/// The on-disk bytes of every tree file, in tree order. The engine flushes
/// its pool after load and update, so the files are current.
fn tree_bytes(engine: &CubetreeEngine) -> Vec<Vec<u8>> {
    let forest = engine.forest().expect("loaded");
    forest
        .pin()
        .trees()
        .iter()
        .map(|t| {
            let path = engine.env().pool().file(t.file_id()).unwrap().path().to_path_buf();
            std::fs::read(path).unwrap()
        })
        .collect()
}

#[test]
fn threads_one_and_many_agree_on_bytes_and_io() {
    // Enough rows that the load's sorts, replicas included, spill runs.
    let mut seq = loaded_engine(1, 45_000, SPILL);
    let mut par = loaded_engine(4, 45_000, SPILL);

    let forest_seq = seq.forest().unwrap();
    let forest_par = par.forest().unwrap();
    assert!(forest_seq.plan().tree_count() >= 2, "setup must yield a multi-tree forest");
    assert_eq!(forest_seq.plan().tree_count(), forest_par.plan().tree_count());

    // Byte-identical packed trees after the initial load...
    assert_eq!(tree_bytes(&seq), tree_bytes(&par));
    // ...and identical simulated-I/O totals (sequential, random, hits,
    // tuples — the whole snapshot).
    assert_eq!(seq.env().snapshot(), par.env().snapshot());

    // The same must hold across a merge-pack refresh.
    let (_, delta, _) = setup(40_000, 0xBADCAB, SPILL);
    seq.update(&delta).unwrap();
    par.update(&delta).unwrap();
    assert_eq!(tree_bytes(&seq), tree_bytes(&par));
    assert_eq!(seq.env().snapshot(), par.env().snapshot());
}

#[test]
fn thread_counts_beyond_tree_count_are_safe() {
    // More workers than jobs: the pool is bounded by the job count and the
    // result is still identical to sequential.
    let seq = loaded_engine(1, 600, DENSE);
    let par = loaded_engine(16, 600, DENSE);
    assert_eq!(tree_bytes(&seq), tree_bytes(&par));
    assert_eq!(seq.env().snapshot(), par.env().snapshot());
}

/// A mixed batch over all the views, with an exact duplicate and an
/// interleaved repeat of one slice.
fn batch(catalog: &Catalog) -> Vec<SliceQuery> {
    let all: Vec<AttrId> = (0..catalog.attr_count()).map(|i| AttrId(i as u16)).collect();
    let mut queries = QueryGenerator::new(catalog, all, 42).batch(24);
    let dup = queries[3].clone();
    queries.push(dup.clone());
    queries.insert(10, dup);
    queries
}

/// Queries run one at a time on the caller's thread through one shared
/// clock, so the thread budget moves nothing a query costs: the same rows,
/// the same per-query simulated seconds from `run_batch`, and the same
/// `IoSnapshot` delta, whether the batch goes through `run_batch` or
/// `serve_batch`. Both engines keep the default 4096-page pool.
#[test]
fn threads_one_and_many_agree_on_query_answers_and_io() {
    let seq = loaded_engine(1, 2000, DENSE);
    let par = loaded_engine(4, 2000, DENSE);
    assert_eq!(seq.env().snapshot(), par.env().snapshot(), "twin loads must match");
    let queries = batch(RolapEngine::catalog(&seq));
    assert_eq!(queries.len(), 26);

    let run = |e: &CubetreeEngine| {
        let before = e.env().snapshot();
        let stats = run_batch(e, &queries).unwrap();
        let after_run = e.env().snapshot();
        let (_, served) = e.serve_batch(&queries);
        let rows: Vec<_> = served.into_iter().map(|a| normalize_rows(a.unwrap().rows)).collect();
        let io = (after_run.since(&before), e.env().snapshot().since(&after_run));
        (stats, rows, io)
    };
    let (stats_seq, rows_seq, io_seq) = run(&seq);
    let (stats_par, rows_par, io_par) = run(&par);

    let expected: Vec<_> = queries.iter().map(|q| normalize_rows(seq.query(q).unwrap())).collect();
    assert_eq!(rows_seq, expected);
    assert_eq!(rows_par, expected);
    // The comparison means something only if the slices find rows: over the
    // dense key space every query does.
    assert!(expected.iter().all(|rows| !rows.is_empty()), "a query found no rows");
    assert_eq!(stats_seq.checksum, stats_par.checksum);
    let per_query = |s: &cubetrees_repro::workload::BatchStats| {
        s.queries.iter().map(|q| (q.rows, q.sim_secs)).collect::<Vec<_>>()
    };
    assert_eq!(per_query(&stats_seq), per_query(&stats_par), "per-query rows and sim_secs");
    assert_eq!(io_seq.0, io_par.0, "run_batch I/O delta");
    assert_eq!(io_seq.1, io_par.1, "serve_batch I/O delta");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Concurrent forest builds preserve the packed layout invariant: inside
    /// every tree, each view's entries form one contiguous run in scan
    /// order (leaves are packed view by view).
    #[test]
    fn prop_parallel_build_keeps_views_contiguous(seed in 1u64..u64::MAX, rows in 50usize..400) {
        let (cat, fact, config) = setup(rows, seed, DENSE);
        let config = config.with_threads(3);
        let mut engine = CubetreeEngine::new(cat, config).unwrap();
        engine.load(&fact).unwrap();
        let forest = engine.forest().unwrap();
        let pin = forest.pin();
        for tree in pin.trees() {
            let mut scanner = tree.scanner();
            let mut seen: Vec<u32> = Vec::new();
            while let Some((view, _, _)) = scanner.next_entry().unwrap() {
                if seen.last() != Some(&view) {
                    prop_assert!(
                        !seen.contains(&view),
                        "view {view} split into non-contiguous runs"
                    );
                    seen.push(view);
                }
            }
            // Every view placed in this tree and no other appears in scans.
            for &v in &seen {
                prop_assert!(tree.view_extent(v).is_some());
            }
        }
        // The logical answer is unchanged: total of the scalar view equals
        // the sum of all measures.
        let total = forest.entries_of(ViewId(4));
        prop_assert_eq!(total, 1, "scalar view stores exactly one entry");
    }
}
