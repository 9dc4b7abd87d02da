//! Partitioned forests must be a pure scale-out optimization — never a
//! semantic one. A `ShardedEngine` at any shard count answers every query
//! class bit-identically to the unsharded `CubetreeEngine` over the same
//! fact relation:
//!
//! * `AggState` merge is associative and commutative, and the gather
//!   finalizes exactly once, so SUM/COUNT/MIN/MAX/AVG all survive the
//!   scatter-gather unchanged (AVG is the sharp case: per-shard averages
//!   must *not* be averaged — the (sum, count) pairs merge first);
//! * empty shards contribute nothing (a group never becomes a zero row);
//! * slices that prune to a single shard take the routed fast path and
//!   still agree with the fan-out path.
//!
//! Directed cases pin each class; a proptest sweeps random facts, queries
//! and shard counts in {1, 2, 3, 4}. Both engines run the same read path, so
//! its degenerate inputs — one shard, a batch of one, `threads = 1`, an
//! empty delta tier — are pinned here too, as more inputs to the same
//! comparison.

use cubetrees_repro::common::query::{normalize_rows, QueryRow};
use cubetrees_repro::common::AttrId;
use cubetrees_repro::core::ServingEngine;
use cubetrees_repro::{
    AggFn, Catalog, CubetreeConfig, CubetreeEngine, Relation, RolapEngine, ShardSpec,
    ShardedConfig, ShardedEngine, SliceQuery, ViewDef,
};
use proptest::prelude::*;

/// Three-attribute catalog: `p` is the partition attribute.
fn catalog() -> (Catalog, AttrId, AttrId, AttrId) {
    let mut cat = Catalog::new();
    let p = cat.add_attr("p", 12);
    let s = cat.add_attr("s", 5);
    let c = cat.add_attr("c", 7);
    (cat, p, s, c)
}

/// Every aggregate class, including the AVG-merge sharp case.
fn views(p: AttrId, s: AttrId, c: AttrId) -> Vec<ViewDef> {
    vec![
        ViewDef::new(0, vec![p, s, c], AggFn::Sum),
        ViewDef::new(1, vec![p, s], AggFn::Avg),
        ViewDef::new(2, vec![s, c], AggFn::Min),
        ViewDef::new(3, vec![c], AggFn::Max),
        ViewDef::new(4, vec![p], AggFn::Count),
        ViewDef::new(5, vec![], AggFn::Sum),
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

fn unsharded(cat: &Catalog, fact: &Relation, vs: &[ViewDef]) -> CubetreeEngine {
    unsharded_at(cat, fact, vs, 1)
}

fn unsharded_at(cat: &Catalog, fact: &Relation, vs: &[ViewDef], threads: usize) -> CubetreeEngine {
    let config = CubetreeConfig::new(vs.to_vec()).with_threads(threads);
    let mut e = CubetreeEngine::new(cat.clone(), config).unwrap();
    e.load(fact).unwrap();
    e
}

fn sharded(
    cat: &Catalog,
    fact: &Relation,
    vs: &[ViewDef],
    p: AttrId,
    shards: usize,
) -> ShardedEngine {
    sharded_at(cat, fact, vs, p, shards, 2)
}

fn sharded_at(
    cat: &Catalog,
    fact: &Relation,
    vs: &[ViewDef],
    p: AttrId,
    shards: usize,
    threads: usize,
) -> ShardedEngine {
    let config = ShardedConfig::new(
        CubetreeConfig::new(vs.to_vec()).with_threads(threads),
        ShardSpec::new(shards).with_partition_attr(p),
    );
    let mut e = ShardedEngine::new(cat.clone(), config).unwrap();
    e.load(fact).unwrap();
    e
}

/// Both faces of a Cubetree engine, so one loop drives either kind.
trait Engine: RolapEngine + ServingEngine {}
impl<T: RolapEngine + ServingEngine> Engine for T {}

/// The unsharded engine and the sharded one at 1 and 3 shards, each at
/// `threads` 1 and 4 (4 fans a sharded query out to its shards at once).
fn engine_matrix(
    cat: &Catalog,
    fact: &Relation,
    vs: &[ViewDef],
    p: AttrId,
) -> Vec<(String, Box<dyn Engine>)> {
    let mut engines: Vec<(String, Box<dyn Engine>)> = Vec::new();
    for threads in [1usize, 4] {
        engines.push((
            format!("unsharded threads={threads}"),
            Box::new(unsharded_at(cat, fact, vs, threads)),
        ));
        for shards in [1usize, 3] {
            engines.push((
                format!("shards={shards} threads={threads}"),
                Box::new(sharded_at(cat, fact, vs, p, shards, threads)),
            ));
        }
    }
    engines
}

/// Every query class the routing layer distinguishes.
fn query_classes(p: AttrId, s: AttrId, c: AttrId) -> Vec<SliceQuery> {
    vec![
        // Full fan-out: coarse group-bys with no partition-key predicate.
        SliceQuery::new(vec![], vec![]),
        SliceQuery::new(vec![c], vec![]),
        SliceQuery::new(vec![s, c], vec![]),
        // Group-by on the partition key: fan-out, groups gathered per key.
        SliceQuery::new(vec![p], vec![]),
        SliceQuery::new(vec![p, s], vec![]),
        // Single-shard-pruned: equality on the partition key.
        SliceQuery::new(vec![s], vec![(p, 3)]),
        SliceQuery::new(vec![s, c], vec![(p, 7)]),
        SliceQuery::new(vec![], vec![(p, 1), (s, 2)]),
        // AVG view slices (merge of (sum, count), not of averages).
        SliceQuery::new(vec![p], vec![(s, 2)]),
        SliceQuery::new(vec![s], vec![(p, 12)]),
        // Non-partition predicates: fan out, most shards contribute.
        SliceQuery::new(vec![p, s], vec![(c, 4)]),
        SliceQuery::new(vec![], vec![(c, 6)]),
        // Range predicates: on the partition key (prunes to a shard subset
        // under range sharding, fans out under hash) and off it.
        SliceQuery::new(vec![s], vec![]).with_range(p, 2, 5),
        SliceQuery::new(vec![p], vec![]).with_range(c, 1, 3),
        SliceQuery::new(vec![s], vec![(p, 4)]).with_range(c, 2, 6),
    ]
}

fn answers(engine: &dyn RolapEngine, queries: &[SliceQuery]) -> Vec<Vec<QueryRow>> {
    queries.iter().map(|q| normalize_rows(engine.query(q).unwrap())).collect()
}

/// `queries` answered through one `serve_batch` call, normalized.
fn served(engine: &dyn ServingEngine, queries: &[SliceQuery]) -> Vec<Vec<QueryRow>> {
    let (_, answers) = engine.serve_batch(queries);
    answers.into_iter().map(|a| normalize_rows(a.unwrap().rows)).collect()
}

#[test]
fn every_query_class_is_bit_identical_at_shards_1_through_4() {
    let (cat, p, s, c) = catalog();
    let vs = views(p, s, c);
    let fact = lcg_fact(p, s, c, 3000, 0xC0FFEE);
    let queries = query_classes(p, s, c);
    let reference = unsharded(&cat, &fact, &vs);
    let expected = answers(&reference, &queries);
    for shards in 1..=4usize {
        let e = sharded(&cat, &fact, &vs, p, shards);
        assert_eq!(
            answers(&e, &queries),
            expected,
            "shards={shards} single-query path must be bit-identical"
        );
        // The served scatter-gather path too (one MVCC pin per shard per
        // batch).
        let got = served(&e, &queries);
        assert_eq!(got, expected, "shards={shards} serve_batch must be bit-identical");
    }
}

#[test]
fn empty_shards_contribute_nothing() {
    let (cat, p, s, c) = catalog();
    let vs = views(p, s, c);
    // Every row carries the same partition key: under any hash sharding one
    // shard owns everything and the rest are empty forests.
    let rows = 400;
    let mut keys = Vec::new();
    let mut measures = Vec::new();
    let mut x = 0xDEAD_BEEFu64;
    for _ in 0..rows {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        keys.extend_from_slice(&[5, x % 5 + 1, (x >> 13) % 7 + 1]);
        measures.push((x >> 43) as i64 % 30 - 10);
    }
    let fact = Relation::from_fact(vec![p, s, c], keys, &measures);
    let queries = query_classes(p, s, c);
    let expected = answers(&unsharded(&cat, &fact, &vs), &queries);
    for shards in [2, 3, 4] {
        let e = sharded(&cat, &fact, &vs, p, shards);
        let loaded: Vec<u64> = e.shard_rows().to_vec();
        assert_eq!(loaded.iter().sum::<u64>(), rows as u64);
        assert!(
            loaded.iter().filter(|&&r| r == 0).count() >= shards - 1,
            "one partition key must leave {} shards empty, got {loaded:?}",
            shards - 1
        );
        assert_eq!(answers(&e, &queries), expected, "shards={shards}");
    }
}

#[test]
fn single_shard_pruning_routes_without_changing_answers() {
    let (cat, p, s, c) = catalog();
    let vs = views(p, s, c);
    let fact = lcg_fact(p, s, c, 2000, 0xFEED);
    let e = sharded(&cat, &fact, &vs, p, 4);
    let reference = unsharded(&cat, &fact, &vs);
    let router = e.router().clone();
    for key in 1..=12u64 {
        let q = SliceQuery::new(vec![s, c], vec![(p, key)]);
        let targets = router.shards_for(&q, p);
        assert_eq!(targets.len(), 1, "equality on the partition key prunes to one shard");
        assert_eq!(
            normalize_rows(e.query(&q).unwrap()),
            normalize_rows(reference.query(&q).unwrap()),
            "p = {key}"
        );
    }
}

/// The degenerate inputs of the one read path: batches of {1, 2, 33} ×
/// threads {1, 4} × delta {empty, resident} × {unsharded, 1 shard, 3
/// shards}. Every `serve_batch` answer equals `query()` asked one by one of
/// the unsharded sequential engine in the same state.
#[test]
fn degenerate_batches_answer_like_query_one_by_one() {
    let (cat, p, s, c) = catalog();
    let vs = views(p, s, c);
    let fact = lcg_fact(p, s, c, 3000, 0xC0FFEE);
    // 33 queries: the classes cycled, so the batch repeats queries.
    let queries: Vec<SliceQuery> =
        query_classes(p, s, c).into_iter().cycle().take(33).collect();
    let engines = engine_matrix(&cat, &fact, &vs, p);
    for resident_delta in [false, true] {
        if resident_delta {
            let rows = lcg_fact(p, s, c, 200, 0xD31A);
            for (_, e) in &engines {
                assert_eq!(e.ingest(&rows).unwrap(), 200);
            }
        }
        let expected = answers(&*engines[0].1, &queries);
        for (name, e) in &engines {
            let name = format!("{name} resident_delta={resident_delta}");
            assert_eq!(answers(&**e, &queries), expected, "{name}: query()");
            for size in [1usize, 2, 33] {
                let got = served(&**e, &queries[..size]);
                assert_eq!(got, expected[..size], "{name}: serve_batch of {size}");
            }
        }
    }
}

/// A query no view can answer fails alone in a served batch: its neighbours
/// are served, at every thread count, unsharded and sharded alike.
#[test]
fn an_unplannable_query_fails_alone_in_a_served_batch() {
    let (mut cat, p, s, c) = catalog();
    let alien = cat.add_attr("alien", 3);
    let vs = views(p, s, c);
    let fact = lcg_fact(p, s, c, 1500, 0xBEEF);
    let batch = [
        SliceQuery::new(vec![s], vec![(p, 3)]),
        SliceQuery::new(vec![alien], vec![]),
        SliceQuery::new(vec![c], vec![]),
    ];
    for (name, e) in engine_matrix(&cat, &fact, &vs, p) {
        let (_, served) = e.serve_batch(&batch);
        assert_eq!(served.len(), 3, "{name}");
        for i in [0, 2] {
            let rows = served[i].as_ref().unwrap_or_else(|e| panic!("{name}: query {i}: {e}"));
            assert_eq!(
                normalize_rows(rows.rows.clone()),
                normalize_rows(e.query(&batch[i]).unwrap()),
                "{name}: query {i}"
            );
        }
        let err = served[1].as_ref().expect_err("the underivable query must fail");
        assert!(err.contains("no materialized view"), "{name}: {err}");
    }
}

/// One shard is no special case in the code, so nothing guarantees by
/// construction that it costs what the unsharded engine costs: pin it. At
/// `threads = 1` the same query loop must leave an identical `IoSnapshot`.
#[test]
fn one_shard_reads_exactly_the_pages_of_the_unsharded_engine() {
    let (cat, p, s, c) = catalog();
    let vs = views(p, s, c);
    let fact = lcg_fact(p, s, c, 3000, 0xC0FFEE);
    let queries = query_classes(p, s, c);
    let plain = unsharded_at(&cat, &fact, &vs, 1);
    let one = sharded_at(&cat, &fact, &vs, p, 1, 1);
    assert_eq!(plain.env().snapshot(), one.io_snapshot(), "twin loads must match");
    for q in &queries {
        plain.query(q).unwrap();
        one.query(q).unwrap();
    }
    plain.serve_batch(&queries);
    one.serve_batch(&queries);
    assert_eq!(plain.env().snapshot(), one.io_snapshot());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random facts (with duplicate keys and negative measures), random
    /// slices, random shard counts: sharded == unsharded, always.
    #[test]
    fn sharded_answers_match_unsharded(
        rows in proptest::collection::vec(
            ((1..=12u64, 1..=5u64, 1..=7u64), -50i64..50),
            1..120,
        ),
        shards in 1..=4usize,
        slice_p in proptest::option::of(1..=12u64),
        slice_s in proptest::option::of(1..=5u64),
        group_c in 0..2u8,
    ) {
        let (cat, p, s, c) = catalog();
        let vs = views(p, s, c);
        let mut keys = Vec::new();
        let mut measures = Vec::new();
        for ((kp, ks, kc), m) in &rows {
            keys.extend_from_slice(&[*kp, *ks, *kc]);
            measures.push(*m);
        }
        let fact = Relation::from_fact(vec![p, s, c], keys, &measures);

        let mut predicates = Vec::new();
        let mut group_by = Vec::new();
        match slice_p {
            Some(v) => predicates.push((p, v)),
            None => group_by.push(p),
        }
        match slice_s {
            Some(v) => predicates.push((s, v)),
            None => group_by.push(s),
        }
        if group_c == 1 {
            group_by.push(c);
        }
        let queries = vec![
            SliceQuery::new(group_by, predicates),
            SliceQuery::new(vec![], vec![]),
            SliceQuery::new(vec![p, s], vec![]),
        ];

        let reference = unsharded(&cat, &fact, &vs);
        let e = sharded(&cat, &fact, &vs, p, shards);
        prop_assert_eq!(answers(&e, &queries), answers(&reference, &queries));
        prop_assert_eq!(served(&e, &queries), answers(&reference, &queries));
    }
}
