//! The answer cache must be invisible in every answer.
//!
//! A cache hit replays memoized rows instead of planning and scanning, so
//! the whole feature is only sound if no interleaving of queries,
//! `/refresh`-style merge-packs, delta ingests, and compactions can ever
//! make a cached answer diverge from a freshly executed one. Pinned here:
//!
//! * **Bit-identity proptest** — a random op sequence runs against two
//!   identically built engines, one serving through a cache-enabled
//!   admission handle and one cache-disabled; every query answer must match
//!   exactly. The cache-enabled side runs twice: at the default budget and
//!   at a drawn budget of a few answers, so FIFO eviction interleaves with
//!   the stamp clears.
//! * **No pre-refresh answers after the flip** — a directed test warms the
//!   cache, checks that the hit read no page and touched no tuple,
//!   refreshes with a delta that changes the answer, and asserts the next
//!   response carries the post-refresh rows (the stamp mismatch is counted
//!   as `cache.invalidations`).
//! * **Concurrent submitters during a refresh** — queries run on their
//!   submitters' threads, so four threads submit through one cache-enabled
//!   handle while a refresh flips the generation; every answer must equal
//!   `engine.query()` at the generation it is stamped with, and the
//!   in-flight accounting must come back to zero.

use std::sync::Arc;

use cubetrees_repro::common::query::{normalize_rows, QueryRow};
use cubetrees_repro::common::AttrId;
use cubetrees_repro::core::ServingEngine;
use cubetrees_repro::server::admission::{Admission, AdmissionConfig};
use cubetrees_repro::server::cache::{AnswerCache, CacheConfig};
use cubetrees_repro::{
    AggFn, Catalog, CubetreeConfig, CubetreeEngine, Relation, RolapEngine, SliceQuery, ViewDef,
};
use proptest::prelude::*;

fn catalog() -> (Catalog, AttrId, AttrId, AttrId) {
    let mut cat = Catalog::new();
    let p = cat.add_attr("p", 12);
    let s = cat.add_attr("s", 5);
    let c = cat.add_attr("c", 7);
    (cat, p, s, c)
}

fn views(p: AttrId, s: AttrId, c: AttrId) -> Vec<ViewDef> {
    vec![
        ViewDef::new(0, vec![p, s, c], AggFn::Sum),
        ViewDef::new(1, vec![p, s], AggFn::Avg),
        ViewDef::new(2, vec![s, c], AggFn::Min),
        ViewDef::new(3, vec![c], AggFn::Max),
        ViewDef::new(4, vec![p], AggFn::Count),
    ]
}

/// Deterministic LCG fact over the catalog domains.
fn lcg_fact(p: AttrId, s: AttrId, c: AttrId, rows: usize, mut x: u64) -> Relation {
    let mut keys = Vec::new();
    let mut measures = Vec::new();
    for _ in 0..rows {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        keys.extend_from_slice(&[x % 12 + 1, (x >> 17) % 5 + 1, (x >> 29) % 7 + 1]);
        measures.push(((x >> 43) % 40) as i64 + 1);
    }
    Relation::from_fact(vec![p, s, c], keys, &measures)
}

/// A query mix spanning the classes the cache key must distinguish:
/// group-bys, equality slices, ranges, and repeated hot queries.
fn query_classes(p: AttrId, s: AttrId, c: AttrId) -> Vec<SliceQuery> {
    vec![
        SliceQuery::new(vec![c], vec![]),
        SliceQuery::new(vec![s, c], vec![]),
        SliceQuery::new(vec![p], vec![]),
        SliceQuery::new(vec![s], vec![(p, 1)]),
        SliceQuery::new(vec![s], vec![(p, 5)]),
        SliceQuery::new(vec![], vec![(p, 3), (s, 2)]),
        SliceQuery::new(vec![c], vec![(s, 4)]),
        SliceQuery::new(vec![s], vec![]).with_range(p, 2, 6),
    ]
}

/// An admission handle over `engine` with an answer cache of `max_bytes`
/// (`0`: no cache). Every miss populates.
fn cached_admission(engine: Arc<dyn ServingEngine>, max_bytes: u64) -> Admission {
    let cache = AnswerCache::from_config(&CacheConfig { max_bytes }, engine.recorder());
    Admission::start(engine, AdmissionConfig::default(), cache)
}

#[derive(Clone, Debug)]
enum Op {
    Query(usize),
    Refresh(u64),
    Ingest(u64),
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted mix: mostly queries (the cache path), with enough writes to
    // exercise every invalidation edge.
    (0u64..10, 0usize..8, proptest::num::u64::ANY).prop_map(|(kind, qi, seed)| match kind {
        0..=5 => Op::Query(qi),
        6 => Op::Refresh(seed),
        7 | 8 => Op::Ingest(seed),
        _ => Op::Compact,
    })
}

/// Replays `ops` through an admission handle over `engine` with a cache of
/// `cache_bytes` (`0`: none). Writes go straight to the engine, serialized
/// between queries, exactly as the server's routes would apply them.
/// Returns the normalized rows of every query op (`None` for error answers).
fn run_ops(
    engine: Arc<dyn ServingEngine>,
    cache_bytes: u64,
    ops: &[Op],
    queries: &[SliceQuery],
    attrs: (AttrId, AttrId, AttrId),
) -> Vec<Option<Vec<QueryRow>>> {
    let (p, s, c) = attrs;
    let admission = cached_admission(Arc::clone(&engine), cache_bytes);
    let mut answers = Vec::new();
    for op in ops {
        match op {
            Op::Query(i) => {
                let Ok(reply) = admission.submit(queries[*i].clone()).expect("submit").recv();
                answers.push(reply.ok().map(|a| normalize_rows(a.rows.to_vec())));
            }
            Op::Refresh(seed) => {
                engine.refresh(&lcg_fact(p, s, c, 20, *seed)).expect("refresh");
            }
            Op::Ingest(seed) => {
                engine.ingest(&lcg_fact(p, s, c, 8, *seed)).expect("ingest");
            }
            Op::Compact => {
                engine.compact_delta().expect("compact");
            }
        }
    }
    admission.shutdown();
    answers
}

fn build_engine() -> Arc<CubetreeEngine> {
    let (cat, p, s, c) = catalog();
    let fact = lcg_fact(p, s, c, 200, 0xC0FFEE);
    let config = CubetreeConfig::new(views(p, s, c)).with_recorder(ct_obs::Recorder::enabled());
    let mut e = CubetreeEngine::new(cat, config).unwrap();
    e.load(&fact).unwrap();
    Arc::new(e)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn cached_answers_are_bit_identical_unsharded(
        ops in proptest::collection::vec(op_strategy(), 1..30),
        // Room for none to a few answers, so the budget evicts.
        small_bytes in 256u64..2048,
    ) {
        let (_, p, s, c) = catalog();
        let queries = query_classes(p, s, c);
        let plain = run_ops(build_engine(), 0, &ops, &queries, (p, s, c));
        let small = run_ops(build_engine(), small_bytes, &ops, &queries, (p, s, c));
        prop_assert_eq!(&small, &plain, "cache of {} bytes", small_bytes);
        let default_bytes = CacheConfig::default().max_bytes;
        let cached = run_ops(build_engine(), default_bytes, &ops, &queries, (p, s, c));
        prop_assert_eq!(cached, plain);
    }
}

/// A hit can never serve a pre-refresh answer after the flip: the refresh
/// bumps the generation, the stored stamp stops matching, and the next
/// probe is a counted invalidation followed by a fresh execution.
#[test]
fn refresh_flip_invalidates_cached_answers() {
    let engine = build_engine();
    let recorder = ServingEngine::recorder(&*engine).clone();
    let (_, p, s, c) = catalog();
    let q = SliceQuery::new(vec![s], vec![(p, 1)]);
    let admission = cached_admission(engine.clone(), CacheConfig::default().max_bytes);
    let ask = |label: &str| {
        let Ok(reply) = admission.submit(q.clone()).expect("submit").recv();
        let answer = reply.unwrap_or_else(|e| panic!("{label}: {e}"));
        (answer.generation, normalize_rows(answer.rows.to_vec()))
    };
    let (gen0, before) = ask("warm");
    // Second ask is a hit (the first populated), and a hit
    // replays memoized rows: it reads no page and touches no tuple.
    let io_before = engine.env().snapshot();
    assert_eq!(ask("hit").1, before);
    let hit_io = engine.env().snapshot().since(&io_before);
    assert!(recorder.counter("cache.hits").get() >= 1, "warm query should hit");
    assert_eq!(
        (hit_io.seq_reads, hit_io.rand_reads, hit_io.buffer_hits, hit_io.tuples),
        (0, 0, 0, 0),
        "a cache hit must cost no I/O: {hit_io:?}"
    );

    // A delta guaranteed to change the p=1 slice: every row has p=1.
    let delta = Relation::from_fact(
        vec![p, s, c],
        vec![1, 1, 1, 1, 2, 2, 1, 3, 3],
        &[1000, 2000, 3000],
    );
    ServingEngine::refresh(&*engine, &delta).expect("refresh");

    let invalidations_before = recorder.counter("cache.invalidations").get();
    let (gen1, after) = ask("post-refresh");
    assert!(gen1 > gen0, "refresh must advance the generation");
    assert_ne!(after, before, "the delta changes this slice's answer");
    assert_eq!(
        after,
        normalize_rows(engine.query(&q).expect("fresh query")),
        "served answer equals a fresh post-refresh execution"
    );
    assert!(
        recorder.counter("cache.invalidations").get() > invalidations_before,
        "the stale entry was removed by a stamp-mismatch probe"
    );
    admission.shutdown();
}

/// Queries execute on their submitters' threads: four of them hammer one
/// cache-enabled handle while a refresh flips the generation underneath.
/// Every answer — hit or miss, before or after the flip — must equal a
/// fresh `engine.query()` at the generation it is stamped with, and every
/// admitted query must give its slot back.
#[test]
fn concurrent_submits_during_refresh_match_fresh_queries() {
    const THREADS: usize = 4;
    const SUBMITS: usize = 200;
    let engine = build_engine();
    let recorder = ServingEngine::recorder(&*engine).clone();
    let (_, p, s, c) = catalog();
    let queries = query_classes(p, s, c);
    let admission = cached_admission(engine.clone(), CacheConfig::default().max_bytes);
    let fresh = || -> Vec<Vec<QueryRow>> {
        queries.iter().map(|q| normalize_rows(engine.query(q).expect("fresh query"))).collect()
    };
    let gen_before = ServingEngine::generation(&*engine);
    let mut expected = std::collections::HashMap::from([(gen_before, fresh())]);

    let answers: Vec<Vec<(usize, u64, Vec<QueryRow>)>> = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..THREADS)
            .map(|t| {
                let (admission, queries) = (&admission, &queries);
                scope.spawn(move || {
                    (0..SUBMITS)
                        .map(|i| {
                            let qi = (t + i) % queries.len();
                            let Ok(reply) =
                                admission.submit(queries[qi].clone()).expect("submit").recv();
                            let answer = reply.expect("answer");
                            (qi, answer.generation, answer.rows.to_vec())
                        })
                        .collect()
                })
            })
            .collect();
        ServingEngine::refresh(&*engine, &lcg_fact(p, s, c, 40, 0xFEED)).expect("refresh");
        submitters.into_iter().map(|t| t.join().expect("submitter")).collect()
    });

    let gen_after = ServingEngine::generation(&*engine);
    assert!(gen_after > gen_before, "refresh must advance the generation");
    expected.insert(gen_after, fresh());
    for (qi, generation, rows) in answers.into_iter().flatten() {
        let want = expected.get(&generation).unwrap_or_else(|| panic!("generation {generation}"));
        assert_eq!(rows, want[qi], "query {qi} at generation {generation}");
    }
    assert_eq!(recorder.gauge("server.admission.depth").get(), 0.0);
    assert_eq!(
        recorder.counter("server.admission.enqueued").get(),
        (THREADS * SUBMITS) as u64
    );
    admission.shutdown();
}

/// The delta-epoch component invalidates on ingest too, not just refresh:
/// streamed rows are visible to the very next query, so a hit serving the
/// pre-ingest answer would be a correctness bug even though no generation
/// moved.
#[test]
fn ingest_invalidates_cached_answers() {
    let engine = build_engine();
    let (_, p, s, c) = catalog();
    let q = SliceQuery::new(vec![s], vec![(p, 2)]);
    let admission = cached_admission(engine.clone(), CacheConfig::default().max_bytes);
    let ask = || {
        let Ok(reply) = admission.submit(q.clone()).expect("submit").recv();
        normalize_rows(reply.expect("answer").rows.to_vec())
    };
    let before = ask();
    assert_eq!(ask(), before, "second ask hits");
    let delta = Relation::from_fact(vec![p, s, c], vec![2, 1, 1], &[5000]);
    ServingEngine::ingest(&*engine, &delta).expect("ingest");
    let after = ask();
    assert_ne!(after, before, "the ingested row must be visible");
    assert_eq!(after, normalize_rows(engine.query(&q).expect("fresh")));
    admission.shutdown();
}
