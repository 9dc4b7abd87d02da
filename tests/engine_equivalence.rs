//! End-to-end equivalence of the two storage organizations.
//!
//! The paper's comparison is only meaningful because both configurations
//! materialize the same logical views and answer the same queries; these
//! tests pin that equivalence: for every slice-query type and for random
//! batches, the conventional engine and the Cubetree engine must return
//! identical answers — before and after incremental updates — and both must
//! match a brute-force evaluation over the raw fact rows.

use cubetrees_repro::common::query::{normalize_rows, QueryRow};
use cubetrees_repro::common::{AggState, AttrId};
use cubetrees_repro::workload::{paper_configs, QueryGenerator};
use cubetrees_repro::{
    ConventionalEngine, CubetreeEngine, Relation, RolapEngine, SliceQuery, TpcdConfig,
    TpcdWarehouse,
};
use std::collections::HashMap;

fn brute_force(fact: &Relation, q: &SliceQuery) -> Vec<QueryRow> {
    let mut groups: HashMap<Vec<u64>, AggState> = HashMap::new();
    'rows: for i in 0..fact.len() {
        let key = fact.key(i);
        for (a, v) in &q.predicates {
            if key[fact.col_of(*a).unwrap()] != *v {
                continue 'rows;
            }
        }
        let g: Vec<u64> = q.group_by.iter().map(|a| key[fact.col_of(*a).unwrap()]).collect();
        groups.entry(g).or_insert_with(AggState::identity).merge(&fact.states[i]);
    }
    normalize_rows(
        groups
            .into_iter()
            .map(|(key, st)| QueryRow { key, agg: st.finalize(cubetrees_repro::AggFn::Sum) })
            .collect(),
    )
}

fn setup(sf: f64, seed: u64) -> (TpcdWarehouse, Relation, ConventionalEngine, CubetreeEngine) {
    let w = TpcdWarehouse::new(TpcdConfig { scale_factor: sf, seed });
    let fact = w.generate_fact();
    let cfg = paper_configs(&w);
    let mut conv = ConventionalEngine::new(w.catalog().clone(), cfg.conventional).unwrap();
    conv.load(&fact).unwrap();
    let mut cube = CubetreeEngine::new(w.catalog().clone(), cfg.cubetree).unwrap();
    cube.load(&fact).unwrap();
    (w, fact, conv, cube)
}

fn all_slice_types(attrs: [AttrId; 3], values: [u64; 3]) -> Vec<SliceQuery> {
    let mut out = Vec::new();
    for node_mask in 0..8usize {
        let node: Vec<usize> = (0..3).filter(|i| node_mask & (1 << i) != 0).collect();
        for fix_mask in 0..(1usize << node.len()) {
            let mut group_by = Vec::new();
            let mut predicates = Vec::new();
            for (j, &i) in node.iter().enumerate() {
                if fix_mask & (1 << j) != 0 {
                    predicates.push((attrs[i], values[i]));
                } else {
                    group_by.push(attrs[i]);
                }
            }
            out.push(SliceQuery::new(group_by, predicates));
        }
    }
    out
}

#[test]
fn all_27_slice_types_agree_with_brute_force() {
    let (w, fact, conv, cube) = setup(0.002, 3);
    let a = *w.attrs();
    // Values chosen to hit real data at this scale.
    for q in all_slice_types([a.partkey, a.suppkey, a.custkey], [5, 3, 7]) {
        let expect = brute_force(&fact, &q);
        let got_conv = normalize_rows(conv.query(&q).unwrap());
        let got_cube = normalize_rows(cube.query(&q).unwrap());
        assert_eq!(got_conv, expect, "conventional differs on {}", q.display(w.catalog()));
        assert_eq!(got_cube, expect, "cubetrees differ on {}", q.display(w.catalog()));
    }
}

#[test]
fn random_batches_agree() {
    let (w, fact, conv, cube) = setup(0.002, 17);
    let a = w.attrs();
    let mut g = QueryGenerator::new(w.catalog(), vec![a.partkey, a.suppkey, a.custkey], 23);
    for q in g.batch(120) {
        let expect = brute_force(&fact, &q);
        assert_eq!(normalize_rows(conv.query(&q).unwrap()), expect);
        assert_eq!(normalize_rows(cube.query(&q).unwrap()), expect);
    }
}

#[test]
fn hierarchy_queries_agree() {
    // Queries over brand/month roll up through the dimension hierarchies in
    // both engines (neither materializes hierarchy views in the paper's V).
    let (w, fact, conv, cube) = setup(0.002, 29);
    let a = w.attrs();
    let cat = w.catalog();
    // brute force with hierarchy translation
    let reference = |q: &SliceQuery| -> Vec<QueryRow> {
        let mut groups: HashMap<Vec<u64>, AggState> = HashMap::new();
        'rows: for i in 0..fact.len() {
            let key = fact.key(i);
            for (attr, v) in &q.predicates {
                if cat.translate(&fact.attrs, key, *attr).unwrap() != *v {
                    continue 'rows;
                }
            }
            let g: Vec<u64> = q
                .group_by
                .iter()
                .map(|attr| cat.translate(&fact.attrs, key, *attr).unwrap())
                .collect();
            groups.entry(g).or_insert_with(AggState::identity).merge(&fact.states[i]);
        }
        normalize_rows(
            groups
                .into_iter()
                .map(|(key, st)| QueryRow { key, agg: st.finalize(cubetrees_repro::AggFn::Sum) })
                .collect(),
        )
    };
    let queries = vec![
        SliceQuery::new(vec![a.brand], vec![]),
        SliceQuery::new(vec![a.suppkey], vec![(a.brand, 3)]),
        SliceQuery::new(vec![a.brand], vec![(a.suppkey, 2)]),
        SliceQuery::new(vec![], vec![(a.brand, 1), (a.suppkey, 4)]),
    ];
    for q in queries {
        let expect = reference(&q);
        assert_eq!(normalize_rows(conv.query(&q).unwrap()), expect, "{}", q.display(cat));
        assert_eq!(normalize_rows(cube.query(&q).unwrap()), expect, "{}", q.display(cat));
    }
}

#[test]
fn incremental_updates_keep_engines_equivalent() {
    let (w, fact, mut conv, mut cube) = setup(0.002, 41);
    let a = *w.attrs();
    // Apply three successive 10% increments to both engines.
    let mut combined_keys = fact.keys.clone();
    let mut combined_measures: Vec<i64> = fact.states.iter().map(|s| s.sum).collect();
    for round in 0..3u64 {
        let w2 = TpcdWarehouse::new(TpcdConfig { scale_factor: 0.002, seed: 41 + round + 1 });
        let delta = w2.generate_increment(0.1);
        conv.update(&delta).unwrap();
        cube.update(&delta).unwrap();
        combined_keys.extend_from_slice(&delta.keys);
        combined_measures.extend(delta.states.iter().map(|s| s.sum));
    }
    let combined =
        Relation::from_fact(fact.attrs.clone(), combined_keys, &combined_measures);
    for q in all_slice_types([a.partkey, a.suppkey, a.custkey], [2, 1, 3]) {
        let expect = brute_force(&combined, &q);
        assert_eq!(
            normalize_rows(conv.query(&q).unwrap()),
            expect,
            "conventional after updates: {}",
            q.display(w.catalog())
        );
        assert_eq!(
            normalize_rows(cube.query(&q).unwrap()),
            expect,
            "cubetrees after updates: {}",
            q.display(w.catalog())
        );
    }
}

#[test]
fn recompute_equals_incremental() {
    let w = TpcdWarehouse::new(TpcdConfig { scale_factor: 0.002, seed: 53 });
    let fact = w.generate_fact();
    let delta = w.generate_increment(0.1);
    let cfg = paper_configs(&w);
    let a = *w.attrs();

    let mut incremental =
        ConventionalEngine::new(w.catalog().clone(), cfg.conventional.clone()).unwrap();
    incremental.load(&fact).unwrap();
    incremental.update(&delta).unwrap();

    let mut recomputed = ConventionalEngine::new(w.catalog().clone(), cfg.conventional).unwrap();
    recomputed.load(&fact).unwrap();
    let mut combined_keys = fact.keys.clone();
    combined_keys.extend_from_slice(&delta.keys);
    let mut combined_measures: Vec<i64> = fact.states.iter().map(|s| s.sum).collect();
    combined_measures.extend(delta.states.iter().map(|s| s.sum));
    let combined = Relation::from_fact(fact.attrs.clone(), combined_keys, &combined_measures);
    recomputed.recompute(&combined).unwrap();

    for q in all_slice_types([a.partkey, a.suppkey, a.custkey], [9, 2, 11]) {
        assert_eq!(
            normalize_rows(incremental.query(&q).unwrap()),
            normalize_rows(recomputed.query(&q).unwrap()),
            "{}",
            q.display(w.catalog())
        );
    }
}

#[test]
fn storage_cubetrees_beat_conventional() {
    // Paper §3.2: 602 MB conventional vs 293 MB Cubetrees (51% less).
    let (_w, _fact, conv, cube) = setup(0.004, 61);
    let conv_bytes = conv.storage_bytes();
    let cube_bytes = cube.storage_bytes();
    assert!(
        (cube_bytes as f64) < 0.6 * conv_bytes as f64,
        "cubetrees {cube_bytes} vs conventional {conv_bytes}"
    );
}

/// Leaves are self-describing: a forest written in the paper's zero-elided
/// format opens under the bit-packed default, answers identically, and its
/// next refresh merge-packs it into the configured format.
#[test]
fn a_zero_elided_forest_reopens_and_refreshes_into_compressed() {
    use cubetrees_repro::common::CostModel;
    use cubetrees_repro::core::query::execute_query_with_delta;
    use cubetrees_repro::core::CubetreeForest;
    use cubetrees_repro::obs::Recorder;
    use cubetrees_repro::rtree::LeafFormat;
    use cubetrees_repro::storage::{FaultPlan, Parallelism, StorageEnv, TempDir};

    let w = TpcdWarehouse::new(TpcdConfig { scale_factor: 0.004, seed: 29 });
    let (fact, delta) = (w.generate_fact(), w.generate_increment(0.1));
    let cfg = paper_configs(&w).cubetree;
    let a = *w.attrs();
    let queries = all_slice_types([a.partkey, a.suppkey, a.custkey], [5, 3, 7]);
    let dir = TempDir::new("format-reopen").unwrap();
    let open_env = || {
        let env = StorageEnv::open_at(
            dir.path(),
            256,
            CostModel::default(),
            Parallelism::new(1),
            Recorder::disabled(),
            FaultPlan::none(),
        );
        env.expect("open_at").0
    };
    let answers = |forest: &CubetreeForest, env: &StorageEnv| -> Vec<Vec<QueryRow>> {
        let run = |q| execute_query_with_delta(&forest.pin(), None, env, w.catalog(), q);
        queries.iter().map(|q| normalize_rows(run(q).unwrap())).collect()
    };

    let (before, elided_bytes) = {
        let env = open_env();
        let elided = LeafFormat::ZeroElided;
        let forest =
            CubetreeForest::build(&env, w.catalog(), &fact, &cfg.views, &cfg.replicas, elided).unwrap();
        env.pool().flush_all().unwrap();
        (answers(&forest, &env), forest.storage_bytes())
    };
    let env = open_env();
    let forest = CubetreeForest::open(&env, w.catalog(), &cfg.views, &cfg.replicas, LeafFormat::Compressed).unwrap();
    assert_eq!(answers(&forest, &env), before, "same bytes, read under another configured format");
    assert_eq!(forest.storage_bytes(), elided_bytes);

    forest.update(&env, w.catalog(), &delta).unwrap();
    let mut reference = CubetreeEngine::new(w.catalog().clone(), cfg).unwrap();
    reference.load(&fact).unwrap();
    reference.update(&delta).unwrap();
    let expect: Vec<Vec<QueryRow>> =
        queries.iter().map(|q| normalize_rows(reference.query(q).unwrap())).collect();
    assert_eq!(answers(&forest, &env), expect, "after the refresh into compressed leaves");
    let packed_bytes = forest.storage_bytes();
    assert!(
        packed_bytes * 3 < elided_bytes,
        "the refresh rewrote every tree in the configured format: {packed_bytes} vs {elided_bytes} bytes"
    );
}

/// `CubetreeEngine::open_at` over a persistent directory: a fresh directory
/// opens (and reopens) unloaded; an engine that loaded, refreshed, ingested
/// and compacted there reopens after a drop at the same generation, answers
/// like a reference engine that made the same moves in memory, and keeps
/// doing so after both ingest and compact one more batch.
#[test]
fn a_persistent_engine_reopens_at_its_last_commit() {
    use cubetrees_repro::core::ServingEngine;
    use cubetrees_repro::storage::TempDir;

    let w = TpcdWarehouse::new(TpcdConfig { scale_factor: 0.002, seed: 67 });
    let streamed = TpcdWarehouse::new(TpcdConfig { scale_factor: 0.002, seed: 68 });
    let (fact, delta, rows) =
        (w.generate_fact(), w.generate_increment(0.1), streamed.generate_increment(0.05));
    let cfg = paper_configs(&w).cubetree;
    let a = *w.attrs();
    let queries = all_slice_types([a.partkey, a.suppkey, a.custkey], [5, 3, 7]);
    let answers = |e: &CubetreeEngine| -> Vec<Vec<QueryRow>> {
        queries.iter().map(|q| normalize_rows(e.query(q).unwrap())).collect()
    };
    let dir = TempDir::new("engine-reopen").unwrap();
    let open = || CubetreeEngine::open_at(dir.path(), w.catalog().clone(), cfg.clone()).unwrap();

    assert!(open().forest().is_none(), "a fresh directory opens unloaded");
    assert!(open().forest().is_none(), "and reopens unloaded: nothing was committed");

    let mut reference = CubetreeEngine::new(w.catalog().clone(), cfg.clone()).unwrap();
    let mut engine = open();
    for e in [&mut engine, &mut reference] {
        e.load(&fact).unwrap();
        e.update(&delta).unwrap();
        e.ingest(&rows).unwrap();
        assert!(e.compact_delta().unwrap(), "the ingested rows compact");
    }
    let generation = ServingEngine::generation(&engine);
    assert_eq!(generation, ServingEngine::generation(&reference));
    drop(engine);

    let reopened = open();
    assert_eq!(ServingEngine::generation(&reopened), generation);
    assert_eq!(answers(&reopened), answers(&reference));

    // The reopened forest keys its delta tier like the one built here, so
    // it takes the same fact-shaped rows and compacts them alike.
    let more = streamed.generate_increment(0.05);
    for e in [&reopened, &reference] {
        e.ingest(&more).unwrap();
        assert!(e.compact_delta().unwrap(), "the second batch compacts");
    }
    assert_eq!(ServingEngine::generation(&reopened), generation + 1);
    assert_eq!(answers(&reopened), answers(&reference));
}
