//! Streaming-ingestion correctness: the in-memory delta tier over the
//! packed forest.
//!
//! Two guarantees are pinned here:
//!
//! * **Read-your-writes equivalence** — for arbitrary base facts and
//!   ingested rows, `tree ∪ delta` answers every query exactly like an
//!   engine rebuilt from scratch over `base ∪ delta`, for every aggregate
//!   function (COUNT/SUM/MIN/MAX compose state-wise; AVG via SUM+COUNT).
//! * **Compaction transparency** — merge-packing the delta tier into the
//!   next generation changes *where* rows live, never *what* queries
//!   answer; post-compaction answers are identical to a batch `refresh`
//!   of the same rows, and the tier is empty afterwards.
//!
//! The tier is a list of indexed sorted runs, and a query folds only the
//! rows its direct predicates select; the same property therefore also pins
//! that the pruned fold equals a fold over every resident row, and that a
//! snapshot held across later ingests, run merges and a compaction keeps
//! answering as of its own epoch.

use cubetrees_repro::common::query::{normalize_rows, QueryRow};
use cubetrees_repro::common::AttrId;
use cubetrees_repro::core::query::{execute_query_with_delta, RollupAggregator};
use cubetrees_repro::core::DeltaSnapshot;
use cubetrees_repro::obs::Recorder;
use cubetrees_repro::{
    AggFn, Catalog, CubetreeConfig, CubetreeEngine, Relation, RolapEngine, SliceQuery, ViewDef,
};
use proptest::prelude::*;

const CARDS: [u64; 3] = [8, 5, 6];

/// `brand`, one hierarchy level above `p`: no fact column stores it, so a
/// predicate on it cannot use a run's permutations.
const BRAND: AttrId = AttrId(3);

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let p = cat.add_attr("p", CARDS[0]);
    cat.add_attr("s", CARDS[1]);
    cat.add_attr("c", CARDS[2]);
    let brand = cat.add_attr("brand", 3);
    assert_eq!(brand, BRAND);
    cat.add_hierarchy(p, brand, (0..=CARDS[0]).map(|v| if v == 0 { 0 } else { v % 3 + 1 }).collect());
    cat
}

fn views(agg: AggFn) -> Vec<ViewDef> {
    vec![
        ViewDef::new(0, (0..3).map(AttrId).collect(), agg),
        ViewDef::new(1, vec![AttrId(0), AttrId(1)], agg),
        ViewDef::new(2, vec![AttrId(2)], agg),
        ViewDef::new(3, vec![], agg),
    ]
}

/// `rows` as insertions, or — `deleted` — as retractions of those rows.
fn changes(rows: &[(u64, u64, u64, i64)], deleted: bool) -> Relation {
    let mut keys = Vec::with_capacity(rows.len() * 3);
    let mut measures = Vec::with_capacity(rows.len());
    for &(p, s, c, m) in rows {
        keys.extend_from_slice(&[p, s, c]);
        measures.push(m);
    }
    let attrs = (0..3).map(AttrId).collect();
    Relation::from_changes(attrs, keys, &measures, &vec![deleted; rows.len()])
}

fn relation(rows: &[(u64, u64, u64, i64)]) -> Relation {
    changes(rows, false)
}

fn probes() -> Vec<SliceQuery> {
    vec![
        SliceQuery::new(vec![], vec![]),
        SliceQuery::new(vec![AttrId(0)], vec![]),
        SliceQuery::new(vec![AttrId(2)], vec![]),
        // One equality per fact attribute: each selects through a different
        // permutation of a delta run.
        SliceQuery::new(vec![AttrId(1)], vec![(AttrId(0), 3)]),
        SliceQuery::new(vec![AttrId(0)], vec![(AttrId(1), 2)]),
        SliceQuery::new(vec![], vec![(AttrId(2), 2)]),
        SliceQuery::new(vec![AttrId(0), AttrId(1)], vec![]),
        // A bounded range, a pin on two attributes at once, and a pin one
        // hierarchy level up (no direct column, so every row is offered).
        SliceQuery::new(vec![AttrId(1)], vec![]).with_range(AttrId(0), 2, 5),
        SliceQuery::new(vec![AttrId(2)], vec![(AttrId(0), 3), (AttrId(1), 2)]),
        SliceQuery::new(vec![AttrId(1)], vec![(BRAND, 2)]),
    ]
}

/// The delta-only part of `q`'s answer, folded from `snap` either through
/// the predicate-selected spans or over every resident row, with the number
/// of rows offered to the aggregator.
fn delta_fold(
    snap: &DeltaSnapshot,
    cat: &Catalog,
    q: &SliceQuery,
    agg: AggFn,
    pruned: bool,
) -> (Vec<QueryRow>, u64) {
    let mut rollup = RollupAggregator::new(cat, snap.attrs(), q).unwrap();
    let offered = if pruned {
        snap.scan(&rollup.direct_bounds(), |key, state| rollup.accept(key, state))
    } else {
        snap.rows().map(|(key, state)| rollup.accept(key, state)).count() as u64
    };
    (normalize_rows(rollup.finish(agg)), offered)
}

fn answers(engine: &CubetreeEngine, qs: &[SliceQuery]) -> Vec<Vec<QueryRow>> {
    qs.iter().map(|q| normalize_rows(engine.query(q).unwrap())).collect()
}

/// An engine built fresh over `rows` — the ground truth both the delta
/// tier and the compacted forest must match.
fn rebuilt(agg: AggFn, rows: &[(u64, u64, u64, i64)]) -> CubetreeEngine {
    let mut engine =
        CubetreeEngine::new(catalog(), CubetreeConfig::new(views(agg))).unwrap();
    engine.load(&relation(rows)).unwrap();
    engine
}

fn row_strategy(
    max_len: usize,
) -> impl Strategy<Value = Vec<(u64, u64, u64, i64)>> {
    proptest::collection::vec(
        (1..=CARDS[0], 1..=CARDS[1], 1..=CARDS[2], 1..50i64),
        1..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// tree ∪ delta ≡ rebuild(base ∪ delta), then compact ≡ batch refresh,
    /// for every aggregate function — over a tier driven into several runs
    /// (many small ingests, a rotation, run merges, and retractions where the
    /// aggregate absorbs them).
    #[test]
    fn prop_delta_reads_equal_rebuild_and_compaction_is_transparent(
        base in row_strategy(80),
        batches in proptest::collection::vec(row_strategy(12), 8..14),
        retract in 1usize..4,
    ) {
        let qs = probes();
        let cat = catalog();
        for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max, AggFn::Avg] {
            let recorder = Recorder::enabled();
            let config = CubetreeConfig::new(views(agg)).with_recorder(recorder.clone());
            let mut engine = CubetreeEngine::new(catalog(), config).unwrap();
            engine.load(&relation(&base)).unwrap();
            let forest = engine.forest().unwrap();
            // Deletion-safe views also take a retraction of a few base rows.
            let retracted = &base[..if agg.deletion_safe() { retract.min(base.len()) } else { 0 }];

            // Ingest batch by batch; after each, every probe must answer as
            // if the engine had been rebuilt over everything so far — the
            // rows are visible without any merge-pack having run.
            let mut all = base.clone();
            let mut held = None;
            let mut most_runs = 0.0f64;
            for (i, batch) in batches.iter().enumerate() {
                engine.ingest(&relation(batch)).unwrap();
                all.extend_from_slice(batch);
                if i == 1 {
                    // Sealed and active runs side by side from here on.
                    prop_assert!(forest.delta().rotate());
                }
                if i == 2 && !retracted.is_empty() {
                    engine.ingest(&changes(retracted, true)).unwrap();
                    for gone in retracted {
                        all.swap_remove(all.iter().position(|row| row == gone).unwrap());
                    }
                }
                most_runs = most_runs.max(recorder.gauge("ingest.delta.runs").get());
                let reference = answers(&rebuilt(agg, &all), &qs);
                prop_assert_eq!(
                    &answers(&engine, &qs),
                    &reference,
                    "agg {:?}: tree ∪ delta diverged from rebuild", agg
                );
                // Pruning only skips rows the predicates would reject.
                let (pin, snap) = forest.pin_with_delta();
                for q in &qs {
                    let (pruned, offered) = delta_fold(&snap, &cat, q, agg, true);
                    let (full, resident) = delta_fold(&snap, &cat, q, agg, false);
                    prop_assert_eq!(pruned, full, "agg {:?}: pruned fold of {:?}", agg, q);
                    prop_assert_eq!(resident, snap.groups());
                    let direct = q.predicates.iter().any(|(a, _)| *a != BRAND) || !q.ranges.is_empty();
                    prop_assert!(if direct { offered <= resident } else { offered == resident });
                }
                if i == 0 {
                    held = Some((pin, snap, reference));
                }
            }
            prop_assert!(most_runs >= 2.0, "the tier never held several runs");
            prop_assert!(recorder.counter("ingest.delta.run_merges").get() >= 1);
            prop_assert_eq!(forest.generation_number(), 0,
                "reads must not have triggered compaction");
            prop_assert!(engine.delta_stats().unwrap().resident_rows() > 0);

            // Compact: same answers, empty tier, new generation. The
            // compacted forest must also match a batch-refresh engine fed
            // the identical batches (same merge-pack entry point).
            prop_assert!(engine.compact_delta().unwrap());
            prop_assert_eq!(engine.delta_stats().unwrap().resident_rows(), 0);
            prop_assert_eq!(forest.generation_number(), 1);
            let mut refreshed =
                CubetreeEngine::new(catalog(), CubetreeConfig::new(views(agg))).unwrap();
            refreshed.load(&relation(&base)).unwrap();
            let folded: Vec<_> = batches.iter().flatten().copied().collect();
            refreshed.refresh(&relation(&folded)).unwrap();
            if !retracted.is_empty() {
                refreshed.refresh(&changes(retracted, true)).unwrap();
            }
            prop_assert_eq!(
                answers(&engine, &qs),
                answers(&refreshed, &qs),
                "agg {:?}: compaction diverged from batch refresh", agg
            );
            // The pair pinned after the first ingest still answers as of its
            // own epoch: later ingests, merges and the flip left its runs
            // and its generation alone.
            let (pin, snap, then) = held.unwrap();
            prop_assert_eq!(pin.number(), 0);
            for (q, want) in qs.iter().zip(&then) {
                let rows = execute_query_with_delta(&pin, snap.as_option(), engine.env(), &cat, q);
                prop_assert_eq!(&normalize_rows(rows.unwrap()), want, "agg {:?}: held snapshot", agg);
            }
            // Idempotent when empty: no spurious generation.
            prop_assert!(!engine.compact_delta().unwrap());
            prop_assert_eq!(forest.generation_number(), 1);
        }
    }
}

/// Ingested rows merge with *derived* views too: a query answered by
/// rolling up V{p,s} must still fold the fact-grained delta in.
#[test]
fn delta_merges_into_derived_view_answers() {
    let mut cat = Catalog::new();
    cat.add_attr("p", 6);
    cat.add_attr("s", 4);
    let views = vec![ViewDef::new(0, vec![AttrId(0), AttrId(1)], AggFn::Sum)];
    let mut engine = CubetreeEngine::new(cat, CubetreeConfig::new(views)).unwrap();
    engine
        .load(&Relation::from_fact(
            vec![AttrId(0), AttrId(1)],
            vec![1, 1, 2, 2],
            &[10, 20],
        ))
        .unwrap();
    engine
        .ingest(&Relation::from_fact(
            vec![AttrId(0), AttrId(1)],
            vec![1, 2, 2, 2],
            &[5, 7],
        ))
        .unwrap();
    // group_by p: derived from V{p,s} by rollup; delta contributes to both.
    let rows = normalize_rows(engine.query(&SliceQuery::new(vec![AttrId(0)], vec![])).unwrap());
    assert_eq!(
        rows,
        vec![
            QueryRow { key: vec![1], agg: 15.0 },
            QueryRow { key: vec![2], agg: 27.0 },
        ]
    );
    // Predicate-sliced scalar: base (2,2)=20 plus delta (1,2)=5 and (2,2)=7.
    let rows = engine.query(&SliceQuery::new(vec![], vec![(AttrId(1), 2)])).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].agg, 32.0);
}

/// A view on a derived attribute keys the delta tier by the attribute's
/// hierarchy root: a `brand` view folds ingested `p` rows, which the fact
/// carries and a tier keyed by `brand` could not take.
#[test]
fn a_derived_view_keys_the_tier_by_its_root() {
    let views = vec![
        ViewDef::new(0, vec![BRAND, AttrId(1)], AggFn::Sum),
        ViewDef::new(1, vec![AttrId(2)], AggFn::Sum),
    ];
    let built_over = |rows: &[(u64, u64, u64, i64)]| {
        let mut engine = CubetreeEngine::new(catalog(), CubetreeConfig::new(views.clone())).unwrap();
        engine.load(&relation(rows)).unwrap();
        engine
    };
    let base = [(1, 1, 1, 10), (2, 3, 4, 20), (5, 2, 6, 30)];
    let more = [(4, 1, 1, 5), (2, 3, 4, 7), (8, 5, 2, 9)];
    let engine = built_over(&base);
    let tier = engine.forest().unwrap().delta().attrs().to_vec();
    assert_eq!(tier, vec![AttrId(0), AttrId(1), AttrId(2)]);
    engine.ingest(&relation(&more)).unwrap();
    let qs = [
        SliceQuery::new(vec![BRAND], vec![]),
        SliceQuery::new(vec![AttrId(1)], vec![(BRAND, 2)]),
        SliceQuery::new(vec![AttrId(2)], vec![]),
        SliceQuery::new(vec![], vec![]),
    ];
    let all: Vec<_> = base.iter().chain(&more).copied().collect();
    let truth = answers(&built_over(&all), &qs);
    assert_eq!(answers(&engine, &qs), truth, "delta folded");
    assert!(engine.compact_delta().unwrap());
    assert_eq!(answers(&engine, &qs), truth, "after compaction");
}

/// Retractions are refused at ingest time unless *every* view's aggregate
/// is deletion-safe (COUNT/AVG/SUM+COUNT) — before the rows become
/// visible, not at compaction.
#[test]
fn retractions_refused_unless_deletion_safe() {
    let mut cat = Catalog::new();
    cat.add_attr("p", 6);

    // SUM (like MIN/MAX) cannot recognize annihilated groups at rest.
    let retraction = Relation::from_changes(vec![AttrId(0)], vec![1], &[20], &[true]);
    let sum_views = vec![ViewDef::new(0, vec![AttrId(0)], AggFn::Sum)];
    let mut engine = CubetreeEngine::new(cat.clone(), CubetreeConfig::new(sum_views)).unwrap();
    engine.load(&Relation::from_fact(vec![AttrId(0)], vec![1], &[10])).unwrap();
    assert!(engine.ingest(&retraction).is_err(), "SUM cannot absorb retractions");
    assert_eq!(engine.delta_stats().unwrap().resident_rows(), 0, "nothing became visible");

    // AVG carries the count, so counting maintenance works.
    let avg_views = vec![ViewDef::new(0, vec![AttrId(0)], AggFn::Avg)];
    let mut engine = CubetreeEngine::new(cat, CubetreeConfig::new(avg_views)).unwrap();
    engine.load(&Relation::from_fact(vec![AttrId(0)], vec![1, 1], &[10, 20])).unwrap();
    let rows = engine.query(&SliceQuery::new(vec![], vec![(AttrId(0), 1)])).unwrap();
    assert_eq!(rows[0].agg, 15.0);
    engine.ingest(&retraction).unwrap();
    let rows = engine.query(&SliceQuery::new(vec![], vec![(AttrId(0), 1)])).unwrap();
    assert_eq!(rows[0].agg, 10.0, "retraction visible immediately");
    engine.compact_delta().unwrap();
    let rows = engine.query(&SliceQuery::new(vec![], vec![(AttrId(0), 1)])).unwrap();
    assert_eq!(rows[0].agg, 10.0, "and preserved across compaction");
}
