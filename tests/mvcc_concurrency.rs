//! Generation MVCC under concurrency: readers pinning the forest while
//! updates merge-pack, commit and reclaim behind them.
//!
//! Two guarantees are pinned here:
//!
//! * **Snapshot consistency** — a reader that pins the forest sees, for
//!   every query it runs under that pin, answers matching *exactly one*
//!   committed generation (the one it pinned), no matter how many updates
//!   commit meanwhile.
//! * **Deferred reclamation** — a query batch issued before `update`
//!   begins completes with pre-update answers while the update runs on
//!   another thread, and the old generation's files are unlinked only
//!   after the last pinned reader drops.

use cubetrees_repro::common::query::QueryRow;
use cubetrees_repro::core::query::execute_query_with_delta;
use cubetrees_repro::{
    AggFn, Catalog, CubetreeConfig, CubetreeEngine, Relation, RolapEngine, SliceQuery, ViewDef,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const READERS: usize = 4;
const UPDATE_CYCLES: usize = 4;

/// Three-attribute catalog; attribute ids are the fact column indices.
fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_attr("p", 8);
    cat.add_attr("s", 4);
    cat.add_attr("c", 6);
    cat
}

/// Deterministic LCG rows: `(keys, measures)` with 3 key columns.
fn rows(n: usize, mut x: u64) -> (Vec<u64>, Vec<i64>) {
    let mut keys = Vec::new();
    let mut measures = Vec::new();
    for _ in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        keys.extend_from_slice(&[x % 8 + 1, (x >> 13) % 4 + 1, (x >> 27) % 6 + 1]);
        measures.push(((x >> 40) % 20) as i64 + 1);
    }
    (keys, measures)
}

fn relation(cat: &Catalog, keys: Vec<u64>, measures: &[i64]) -> Relation {
    let attrs = (0..3).map(|i| cubetrees_repro::common::AttrId(i as u16)).collect();
    let _ = cat;
    Relation::from_fact(attrs, keys, measures)
}

/// The probe batch every reader runs under one pin.
fn probes() -> Vec<SliceQuery> {
    let a = |i: u16| cubetrees_repro::common::AttrId(i);
    vec![
        SliceQuery::new(vec![], vec![]),
        SliceQuery::new(vec![a(1)], vec![(a(0), 3)]),
        SliceQuery::new(vec![a(2)], vec![]),
        SliceQuery::new(vec![a(0)], vec![(a(2), 2)]),
    ]
}

/// Brute-force reference answers over raw `(keys, measures)` rows.
fn reference(keys: &[u64], measures: &[i64], q: &SliceQuery) -> Vec<QueryRow> {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<Vec<u64>, i64> = BTreeMap::new();
    'rows: for (r, m) in measures.iter().enumerate() {
        let key = &keys[r * 3..r * 3 + 3];
        for (a, v) in &q.predicates {
            if key[a.0 as usize] != *v {
                continue 'rows;
            }
        }
        let g: Vec<u64> = q.group_by.iter().map(|a| key[a.0 as usize]).collect();
        *groups.entry(g).or_insert(0) += m;
    }
    groups.into_iter().map(|(key, sum)| QueryRow { key, agg: sum as f64 }).collect()
}

fn normalize(mut rows: Vec<QueryRow>) -> Vec<QueryRow> {
    rows.sort_by(|a, b| a.key.cmp(&b.key));
    rows
}

/// N reader threads × M update cycles: every pinned batch must answer
/// exactly like the generation it pinned, and the writer's commits must not
/// disturb in-flight pins.
#[test]
fn readers_always_match_exactly_one_committed_generation() {
    let cat = catalog();
    let views = vec![
        ViewDef::new(0, (0..3).map(cubetrees_repro::common::AttrId).collect(), AggFn::Sum),
        ViewDef::new(1, vec![cubetrees_repro::common::AttrId(0), cubetrees_repro::common::AttrId(1)], AggFn::Sum),
        ViewDef::new(2, vec![cubetrees_repro::common::AttrId(2)], AggFn::Sum),
        ViewDef::new(3, vec![], AggFn::Sum),
    ];
    let (fact_keys, fact_measures) = rows(600, 0xFEED);
    let deltas: Vec<(Vec<u64>, Vec<i64>)> =
        (0..UPDATE_CYCLES).map(|i| rows(60, 0xA0 + i as u64 * 7919)).collect();

    // expected[g][probe] = reference answer over fact ∪ deltas[0..g].
    let qs = probes();
    let mut expected: Vec<Vec<Vec<QueryRow>>> = Vec::with_capacity(UPDATE_CYCLES + 1);
    let mut acc_keys = fact_keys.clone();
    let mut acc_measures = fact_measures.clone();
    expected.push(qs.iter().map(|q| reference(&acc_keys, &acc_measures, q)).collect());
    for delta in &deltas {
        acc_keys.extend_from_slice(&delta.0);
        acc_measures.extend_from_slice(&delta.1);
        expected.push(qs.iter().map(|q| reference(&acc_keys, &acc_measures, q)).collect());
    }

    let mut engine =
        CubetreeEngine::new(cat.clone(), CubetreeConfig::new(views).with_threads(2)).unwrap();
    engine.load(&relation(&cat, fact_keys, &fact_measures)).unwrap();
    let engine = engine; // shared from here on: refresh() takes &self

    let done = AtomicBool::new(false);
    let batches = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|| {
                let forest = engine.forest().unwrap();
                while !done.load(Ordering::Acquire) {
                    let pin = forest.pin();
                    let g = pin.number() as usize;
                    assert!(g <= UPDATE_CYCLES, "generation beyond the committed set");
                    for (i, q) in qs.iter().enumerate() {
                        let got = normalize(
                            execute_query_with_delta(&pin, None, engine.env(), &cat, q).unwrap(),
                        );
                        assert_eq!(
                            got, expected[g][i],
                            "probe {i} diverged from pinned generation {g}"
                        );
                    }
                    batches.fetch_add(1, Ordering::Release);
                }
            });
        }
        // Writer: commit each cycle, then let at least one full reader
        // batch land before the next so every generation gets observed
        // while it is current.
        for (keys, measures) in &deltas {
            let seen = batches.load(Ordering::Acquire);
            engine.refresh(&relation(&cat, keys.clone(), measures)).unwrap();
            while batches.load(Ordering::Acquire) < seen + READERS as u64 {
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::Release);
    });
    assert_eq!(engine.forest().unwrap().generation_number(), UPDATE_CYCLES as u64);
    assert!(batches.load(Ordering::Acquire) >= (READERS * UPDATE_CYCLES) as u64);

    // Quiesced: the final generation answers the reference for the full
    // accumulated fact.
    let forest = engine.forest().unwrap();
    let pin = forest.pin();
    for (i, q) in qs.iter().enumerate() {
        let got =
            normalize(execute_query_with_delta(&pin, None, engine.env(), &cat, q).unwrap());
        assert_eq!(got, expected[UPDATE_CYCLES][i], "final probe {i}");
    }
}

/// The acceptance scenario: a batch pinned before `update` begins completes
/// with pre-update answers while the update runs on another thread; the
/// old generation's files are unlinked only after the last pin drops.
#[test]
fn batch_pinned_before_update_finishes_on_pre_update_answers() {
    let cat = catalog();
    let views = vec![
        ViewDef::new(0, (0..3).map(cubetrees_repro::common::AttrId).collect(), AggFn::Sum),
        ViewDef::new(1, vec![cubetrees_repro::common::AttrId(2)], AggFn::Sum),
        ViewDef::new(2, vec![], AggFn::Sum),
    ];
    let (fact_keys, fact_measures) = rows(500, 0xBEEF);
    let (d_keys, d_measures) = rows(80, 0x5EED);
    let qs = probes();
    let pre: Vec<Vec<QueryRow>> =
        qs.iter().map(|q| reference(&fact_keys, &fact_measures, q)).collect();

    let mut engine = CubetreeEngine::new(cat.clone(), CubetreeConfig::new(views)).unwrap();
    engine.load(&relation(&cat, fact_keys, &fact_measures)).unwrap();
    let engine = engine;

    let forest = engine.forest().unwrap();
    let pin = forest.pin();
    assert_eq!(pin.number(), 0);
    let old_paths = pin.file_paths();
    assert!(!old_paths.is_empty() && old_paths.iter().all(|p| p.exists()));

    std::thread::scope(|scope| {
        let delta = relation(&cat, d_keys.clone(), &d_measures);
        let engine = &engine;
        let writer = scope.spawn(move || engine.refresh(&delta).unwrap());
        // The pinned batch runs while the refresh is (possibly) in flight;
        // every answer must be the pre-update one.
        for (i, q) in qs.iter().enumerate() {
            let got =
                normalize(execute_query_with_delta(&pin, None, engine.env(), &cat, q).unwrap());
            assert_eq!(got, pre[i], "pinned probe {i} must see pre-update answers");
        }
        writer.join().unwrap();
    });

    // Update committed: the flip happened at manifest commit, but the pin
    // still holds generation 0 and its files.
    assert_eq!(forest.generation_number(), 1);
    assert_eq!(pin.number(), 0);
    for (i, q) in qs.iter().enumerate() {
        let got = normalize(execute_query_with_delta(&pin, None, engine.env(), &cat, q).unwrap());
        assert_eq!(got, pre[i], "post-commit pinned probe {i}");
    }
    assert!(old_paths.iter().all(|p| p.exists()), "pins defer reclamation");
    drop(pin);
    assert!(
        old_paths.iter().all(|p| !p.exists()),
        "last pin drop unlinks the retired generation's files"
    );
}
