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
//! * **Exactly-once cut** — a `(pin, delta snapshot)` pair taken while
//!   other threads ingest and compact sees every acknowledged batch once:
//!   in the delta before its compaction flips, in the trees after.

use cubetrees_repro::common::query::QueryRow;
use cubetrees_repro::core::query::execute_query_with_delta;
use cubetrees_repro::core::AnswerStamp;
use cubetrees_repro::{
    AggFn, Catalog, CubetreeConfig, CubetreeEngine, Relation, RolapEngine, SliceQuery, ViewDef,
};
use std::collections::BTreeSet;
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
/// exactly like the generation it pinned, the writer's commits must not
/// disturb in-flight pins, and every committed generation must be read.
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

    let forest = engine.forest().unwrap();
    let done = AtomicBool::new(false);
    // 1 + the highest generation a completed reader batch pinned (0 = none
    // yet); the writer paces on it.
    let read_through = AtomicU64::new(0);
    let pinned: BTreeSet<u64> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut pinned = BTreeSet::new();
                    while !done.load(Ordering::Acquire) {
                        let pin = forest.pin();
                        let g = pin.number() as usize;
                        assert!(g <= UPDATE_CYCLES, "generation beyond the committed set");
                        for (i, q) in qs.iter().enumerate() {
                            let got = normalize(
                                execute_query_with_delta(&pin, None, engine.env(), &cat, q)
                                    .unwrap(),
                            );
                            assert_eq!(
                                got, expected[g][i],
                                "probe {i} diverged from pinned generation {g}"
                            );
                        }
                        pinned.insert(pin.number());
                        read_through.fetch_max(pin.number() + 1, Ordering::AcqRel);
                    }
                    pinned
                })
            })
            .collect();
        // Writer: replace a generation only once a completed reader batch
        // pinned it, so every generation, the loaded one included, is read
        // while it is current. Counting batches would not do: batches that
        // pinned the previous generation before the commit count too.
        let wait_until_read = |generation: u64| {
            while read_through.load(Ordering::Acquire) <= generation {
                assert!(!readers.iter().all(|r| r.is_finished()), "every reader stopped");
                std::thread::yield_now();
            }
        };
        wait_until_read(forest.generation_number());
        for (keys, measures) in &deltas {
            engine.refresh(&relation(&cat, keys.clone(), measures)).unwrap();
            wait_until_read(forest.generation_number());
        }
        done.store(true, Ordering::Release);
        readers.into_iter().flat_map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(forest.generation_number(), UPDATE_CYCLES as u64);
    assert_eq!(
        pinned,
        (0..=UPDATE_CYCLES as u64).collect::<BTreeSet<_>>(),
        "every committed generation must be pinned by a completed batch"
    );

    // Quiesced: the final generation answers the reference for the full
    // accumulated fact.
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

/// Pins taken while one thread ingests continuously and another compacts:
/// every `(generation, epoch)` cut must answer exactly like base ∪ the first
/// `k` ingested batches for one `k` — no batch twice (in a run and in the
/// trees), none missing (in neither) — equal stamps must mean equal answers,
/// and neither the stamp nor `k` may go backwards.
#[test]
fn pins_during_continuous_ingest_and_compaction_cut_exactly_once() {
    const BATCHES: usize = 48;
    let cat = catalog();
    let views = vec![
        ViewDef::new(0, (0..3).map(cubetrees_repro::common::AttrId).collect(), AggFn::Sum),
        ViewDef::new(1, vec![cubetrees_repro::common::AttrId(2)], AggFn::Sum),
        ViewDef::new(2, vec![], AggFn::Sum),
    ];
    let (fact_keys, fact_measures) = rows(400, 0xD1CE);
    let batches: Vec<(Vec<u64>, Vec<i64>)> =
        (0..BATCHES).map(|i| rows(16, 0xB0 + i as u64 * 104729)).collect();

    // expected[k][probe] over base ∪ batches[0..k]; measures are positive, so
    // the grand total (probe 0) identifies k.
    let qs = probes();
    let mut expected: Vec<Vec<Vec<QueryRow>>> = Vec::with_capacity(BATCHES + 1);
    let (mut acc_keys, mut acc_measures) = (fact_keys.clone(), fact_measures.clone());
    expected.push(qs.iter().map(|q| reference(&acc_keys, &acc_measures, q)).collect());
    for (keys, measures) in &batches {
        acc_keys.extend_from_slice(keys);
        acc_measures.extend_from_slice(measures);
        expected.push(qs.iter().map(|q| reference(&acc_keys, &acc_measures, q)).collect());
    }

    let mut engine =
        CubetreeEngine::new(cat.clone(), CubetreeConfig::new(views).with_threads(2)).unwrap();
    engine.load(&relation(&cat, fact_keys, &fact_measures)).unwrap();
    let engine = engine;
    let forest = engine.forest().unwrap();

    let done = AtomicBool::new(false);
    let cuts = AtomicU64::new(0);
    let flips = AtomicU64::new(0);
    let seen: std::sync::Mutex<std::collections::HashMap<AnswerStamp, usize>> = Default::default();
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|| {
                let mut last = (AnswerStamp { generation: 0, delta_epoch: 0 }, 0usize);
                while !done.load(Ordering::Acquire) {
                    let probe = forest.answer_stamp();
                    let (pin, delta) = forest.pin_with_delta();
                    let stamp = AnswerStamp::of(&pin, &delta);
                    let got: Vec<Vec<QueryRow>> = qs
                        .iter()
                        .map(|q| {
                            let rows =
                                execute_query_with_delta(&pin, Some(&delta), engine.env(), &cat, q);
                            normalize(rows.unwrap())
                        })
                        .collect();
                    let k = expected
                        .iter()
                        .position(|e| e[0] == got[0])
                        .unwrap_or_else(|| panic!("{stamp:?}: total {:?} is no batch prefix", got[0]));
                    assert_eq!(got, expected[k], "{stamp:?} mixes batch prefixes");
                    assert!(
                        probe.generation <= stamp.generation && probe.delta_epoch <= stamp.delta_epoch,
                        "a stamp probed before the pin is ahead of it: {probe:?} > {stamp:?}"
                    );
                    assert!(
                        last.0.generation <= stamp.generation
                            && last.0.delta_epoch <= stamp.delta_epoch
                            && last.1 <= k,
                        "went backwards: {last:?} then ({stamp:?}, {k})"
                    );
                    last = (stamp, k);
                    let first = *seen.lock().unwrap().entry(stamp).or_insert(k);
                    assert_eq!(first, k, "{stamp:?} answered as two different states");
                    cuts.fetch_add(1, Ordering::Release);
                }
            });
        }
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if engine.compact_delta().unwrap() {
                    flips.fetch_add(1, Ordering::Release);
                }
                std::thread::yield_now();
            }
        });
        // The ingester: every few batches it lets each reader cut at least
        // once, and every sixteen it waits for a compaction of what it just
        // ingested, so resident runs, merges and flips are all cut mid-stream.
        let wait_for = |counter: &AtomicU64, target: u64| {
            while counter.load(Ordering::Acquire) < target {
                std::thread::yield_now();
            }
        };
        for (i, (keys, measures)) in batches.iter().enumerate() {
            // Read before the ingest: these rows stay resident until a flip
            // after this point, so the wait below cannot miss it.
            let flipped = flips.load(Ordering::Acquire);
            engine.ingest(&relation(&cat, keys.clone(), measures)).unwrap();
            if i % 4 == 3 {
                wait_for(&cuts, cuts.load(Ordering::Acquire) + READERS as u64);
            }
            if i % 16 == 15 {
                wait_for(&flips, flipped + 1);
            }
        }
        done.store(true, Ordering::Release);
    });
    assert!(flips.load(Ordering::Acquire) >= (BATCHES / 16) as u64);

    // Quiesced: drain what is left; everything shows exactly once.
    engine.compact_delta().unwrap();
    assert_eq!(engine.delta_stats().unwrap().resident_rows(), 0);
    let (pin, delta) = forest.pin_with_delta();
    assert!(delta.as_option().is_none());
    for (i, q) in qs.iter().enumerate() {
        let got = normalize(execute_query_with_delta(&pin, None, engine.env(), &cat, q).unwrap());
        assert_eq!(got, expected[BATCHES][i], "final probe {i}");
    }
}
