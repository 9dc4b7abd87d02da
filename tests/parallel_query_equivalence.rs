//! Queries run one at a time, in arrival order, on the caller's thread, so
//! a batch is only a loop and the worker budget never reaches the query
//! path:
//!
//! * `serve_batch` over a slice is bit-identical to calling `query` for each
//!   query in turn (same rows *and* same `IoSnapshot`);
//! * at `threads > 1` every single query returns the same rows and costs the
//!   same `IoSnapshot` delta as at `threads = 1`;
//! * `run_batch` reports the same checksum, per-query row counts and
//!   per-query simulated seconds at every thread count.
//!
//! `tests/parallel_equivalence.rs` pins the batch totals of `run_batch` and
//! `serve_batch` across threads 1 and 4; these tests pin the per-query view.

use cubetrees_repro::common::query::normalize_rows;
use cubetrees_repro::common::{AggFn, AttrId};
use cubetrees_repro::core::ServingEngine;
use cubetrees_repro::workload::{run_batch, QueryGenerator};
use cubetrees_repro::{
    Catalog, CubetreeConfig, CubetreeEngine, Relation, RolapEngine, SliceQuery, ViewDef,
};

/// A three-attribute catalog plus a deterministic LCG-generated fact —
/// the same shape `tests/parallel_equivalence.rs` pins the build with.
fn setup(rows: usize, mut x: u64) -> (Catalog, Relation, Vec<ViewDef>) {
    let mut cat = Catalog::new();
    let p = cat.add_attr("p", 12);
    let s = cat.add_attr("s", 5);
    let c = cat.add_attr("c", 7);
    let mut keys = Vec::new();
    let mut measures = Vec::new();
    for _ in 0..rows {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        keys.extend_from_slice(&[x % 12 + 1, (x >> 17) % 5 + 1, (x >> 29) % 7 + 1]);
        measures.push(((x >> 43) % 40) as i64 + 1);
    }
    let fact = Relation::from_fact(vec![p, s, c], keys, &measures);
    let views = vec![
        ViewDef::new(0, vec![p, s, c], AggFn::Sum),
        ViewDef::new(1, vec![p, s], AggFn::Sum),
        ViewDef::new(2, vec![s, c], AggFn::Sum),
        ViewDef::new(3, vec![c], AggFn::Sum),
        ViewDef::new(4, vec![], AggFn::Sum),
    ];
    (cat, fact, views)
}

fn loaded_engine(threads: usize, rows: usize) -> CubetreeEngine {
    let (cat, fact, views) = setup(rows, 0xC0FFEE);
    let config = CubetreeConfig::new(views).with_threads(threads);
    let mut engine = CubetreeEngine::new(cat, config).unwrap();
    engine.load(&fact).unwrap();
    engine
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

#[test]
fn threads_one_batch_path_is_bit_identical_to_the_query_loop() {
    let a = loaded_engine(1, 2000);
    let b = loaded_engine(1, 2000);
    assert_eq!(a.env().snapshot(), b.env().snapshot(), "twin loads must match");

    let queries = batch(RolapEngine::catalog(&a));
    let loop_rows: Vec<_> =
        queries.iter().map(|q| normalize_rows(a.query(q).unwrap())).collect();
    let (_, served) = b.serve_batch(&queries);
    let batch_rows: Vec<_> =
        served.into_iter().map(|r| normalize_rows(r.unwrap().rows)).collect();
    // Row order *within* a query is unspecified (aggregator hash order);
    // the normalized answers and the I/O accounting are the contract.
    assert_eq!(loop_rows, batch_rows);
    // Bit-identical I/O accounting, not just identical answers.
    assert_eq!(a.env().snapshot(), b.env().snapshot());
}

#[test]
fn threads_one_and_many_agree_on_answers_and_counters() {
    let seq = loaded_engine(1, 2000);
    let par = loaded_engine(4, 2000);
    assert_eq!(seq.env().snapshot(), par.env().snapshot(), "twin loads must match");

    let queries = batch(RolapEngine::catalog(&seq));
    for (i, q) in queries.iter().enumerate() {
        let before_seq = seq.env().snapshot();
        let before_par = par.env().snapshot();
        let ra = seq.query(q).unwrap();
        let rb = par.query(q).unwrap();
        // Identical per-query result counters...
        assert_eq!(ra.len(), rb.len(), "query {i} row count diverged");
        // ...identical row sets (order within a query is unspecified)...
        assert_eq!(normalize_rows(ra), normalize_rows(rb), "query {i} rows diverged");
        // ...and the same pages, hits and tuples charged to this query.
        assert_eq!(
            seq.env().snapshot().since(&before_seq),
            par.env().snapshot().since(&before_par),
            "query {i} I/O diverged"
        );
    }
}

#[test]
fn run_batch_checksums_match_across_thread_counts() {
    let seq = loaded_engine(1, 1200);
    let queries = batch(RolapEngine::catalog(&seq));
    let s1 = run_batch(&seq, &queries).unwrap();
    let per_query = |s: &cubetrees_repro::workload::BatchStats| {
        s.queries.iter().map(|q| (q.rows, q.sim_secs)).collect::<Vec<_>>()
    };
    for threads in [2, 3, 8] {
        let par = loaded_engine(threads, 1200);
        let s2 = run_batch(&par, &queries).unwrap();
        assert_eq!(s1.checksum, s2.checksum, "threads {threads}");
        assert_eq!(per_query(&s1), per_query(&s2), "threads {threads}: rows and sim_secs");
    }
}
