//! Queries run one at a time, in arrival order, on the caller's thread, so
//! a batch is only a loop and the worker budget never reaches the query
//! path:
//!
//! * `serve_batch` over a slice is bit-identical to calling `query` for each
//!   query in turn (same rows *and* same `IoSnapshot`);
//! * at `threads > 1` every single query returns the same rows and costs the
//!   same `IoSnapshot` delta as at `threads = 1`;
//! * `run_batch` reports the same checksum, per-query row counts and
//!   per-query simulated seconds at every thread count;
//! * over views of every aggregate class, `serve_batch` of 1, 2 or 33
//!   queries answers like `query()` one by one, at threads 1 and 4, with the
//!   delta tier empty or resident, and a query no view can answer fails
//!   alone in its batch.
//!
//! `tests/parallel_equivalence.rs` pins the batch totals of `run_batch` and
//! `serve_batch` across threads 1 and 4; these tests pin the per-query view.

use cubetrees_repro::common::query::{normalize_rows, QueryRow};
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

/// `setup`'s three attributes `(p, s, c)`.
fn attrs() -> (AttrId, AttrId, AttrId) {
    (AttrId(0), AttrId(1), AttrId(2))
}

/// An engine over views of every aggregate class, including AVG, whose
/// partial answers must merge as (sum, count) pairs before one finish.
fn every_class_engine(cat: &Catalog, fact: &Relation, threads: usize) -> CubetreeEngine {
    let (p, s, c) = attrs();
    let views = vec![
        ViewDef::new(0, vec![p, s, c], AggFn::Sum),
        ViewDef::new(1, vec![p, s], AggFn::Avg),
        ViewDef::new(2, vec![s, c], AggFn::Min),
        ViewDef::new(3, vec![c], AggFn::Max),
        ViewDef::new(4, vec![p], AggFn::Count),
        ViewDef::new(5, vec![], AggFn::Sum),
    ];
    let config = CubetreeConfig::new(views).with_threads(threads);
    let mut engine = CubetreeEngine::new(cat.clone(), config).unwrap();
    engine.load(fact).unwrap();
    engine
}

/// Group-bys, equality slices, AVG-view slices, and ranges with and without
/// an equality beside them.
fn query_classes() -> Vec<SliceQuery> {
    let (p, s, c) = attrs();
    vec![
        SliceQuery::new(vec![], vec![]),
        SliceQuery::new(vec![c], vec![]),
        SliceQuery::new(vec![s, c], vec![]),
        SliceQuery::new(vec![p], vec![]),
        SliceQuery::new(vec![p, s], vec![]),
        SliceQuery::new(vec![s], vec![(p, 3)]),
        SliceQuery::new(vec![s, c], vec![(p, 7)]),
        SliceQuery::new(vec![], vec![(p, 1), (s, 2)]),
        // AVG view slices (merge of (sum, count), not of averages).
        SliceQuery::new(vec![p], vec![(s, 2)]),
        SliceQuery::new(vec![s], vec![(p, 12)]),
        SliceQuery::new(vec![p, s], vec![(c, 4)]),
        SliceQuery::new(vec![], vec![(c, 6)]),
        SliceQuery::new(vec![s], vec![]).with_range(p, 2, 5),
        SliceQuery::new(vec![p], vec![]).with_range(c, 1, 3),
        SliceQuery::new(vec![s], vec![(p, 4)]).with_range(c, 2, 6),
    ]
}

fn answers(engine: &CubetreeEngine, queries: &[SliceQuery]) -> Vec<Vec<QueryRow>> {
    queries.iter().map(|q| normalize_rows(engine.query(q).unwrap())).collect()
}

/// `queries` answered through one `serve_batch` call, normalized.
fn served(engine: &CubetreeEngine, queries: &[SliceQuery]) -> Vec<Vec<QueryRow>> {
    let (_, answers) = engine.serve_batch(queries);
    answers.into_iter().map(|a| normalize_rows(a.unwrap().rows)).collect()
}

/// The degenerate inputs of the one read path: batches of {1, 2, 33} ×
/// threads {1, 4} × delta {empty, resident}. Every `serve_batch` answer
/// equals `query()` asked one by one of the sequential engine in the same
/// state.
#[test]
fn degenerate_batches_answer_like_query_one_by_one() {
    let (cat, fact, _) = setup(3000, 0xC0FFEE);
    // 33 queries: the classes cycled, so the batch repeats queries.
    let queries: Vec<SliceQuery> = query_classes().into_iter().cycle().take(33).collect();
    let engines = [1usize, 4].map(|threads| (threads, every_class_engine(&cat, &fact, threads)));
    for resident_delta in [false, true] {
        if resident_delta {
            let (_, rows, _) = setup(200, 0xD31A);
            for (_, e) in &engines {
                assert_eq!(e.ingest(&rows).unwrap(), 200);
            }
        }
        let expected = answers(&engines[0].1, &queries);
        for (threads, e) in &engines {
            let name = format!("threads={threads} resident_delta={resident_delta}");
            assert_eq!(answers(e, &queries), expected, "{name}: query()");
            for size in [1usize, 2, 33] {
                let got = served(e, &queries[..size]);
                assert_eq!(got, expected[..size], "{name}: serve_batch of {size}");
            }
        }
    }
}

/// A query no view can answer fails alone in a served batch: its neighbours
/// are served, at every thread count.
#[test]
fn an_unplannable_query_fails_alone_in_a_served_batch() {
    let (mut cat, fact, _) = setup(1500, 0xBEEF);
    let alien = cat.add_attr("alien", 3);
    let (p, s, c) = attrs();
    let batch = [
        SliceQuery::new(vec![s], vec![(p, 3)]),
        SliceQuery::new(vec![alien], vec![]),
        SliceQuery::new(vec![c], vec![]),
    ];
    for threads in [1usize, 4] {
        let e = every_class_engine(&cat, &fact, threads);
        let (_, served) = e.serve_batch(&batch);
        assert_eq!(served.len(), 3, "threads={threads}");
        for i in [0, 2] {
            let rows =
                served[i].as_ref().unwrap_or_else(|e| panic!("threads={threads}: query {i}: {e}"));
            assert_eq!(
                normalize_rows(rows.rows.clone()),
                normalize_rows(e.query(&batch[i]).unwrap()),
                "threads={threads}: query {i}"
            );
        }
        let err = served[1].as_ref().expect_err("the underivable query must fail");
        assert!(err.contains("no materialized view"), "threads={threads}: {err}");
    }
}
