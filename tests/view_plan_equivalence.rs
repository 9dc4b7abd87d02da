//! The sort-counting view plan against the direct computation: every view a
//! load, refresh or compaction derives through `compute_views` — by a sort
//! from a parent or a linear pass over a relation whose sort order holds it —
//! must equal `compute_view` run on the fact, row for row. Plus two directed
//! cases: the paper's §3 Cubetree set needs exactly three sorts, and a
//! hierarchy rollup is never a linear pass.

use cubetrees_repro::core::views::{compute_views, plan_views};
use cubetrees_repro::cube::compute::{packed_sort_cols, projection_sort_cols};
use cubetrees_repro::cube::{compute_view, PlanSource, StepKind};
use cubetrees_repro::storage::{Parallelism, StorageEnv};
use cubetrees_repro::workload::paper_configs;
use cubetrees_repro::{AggFn, Catalog, Relation, TpcdConfig, TpcdWarehouse, ViewDef};
use proptest::collection;
use proptest::num::u64::ANY;
use proptest::prelude::*;

/// p(12), s(5), c(7) and `part.brand` (3 brands over p).
fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let p = cat.add_attr("p", 12);
    cat.add_attr("s", 5);
    cat.add_attr("c", 7);
    let brand = cat.add_attr("part.brand", 3);
    cat.add_hierarchy(p, brand, (0..=12).map(|k| k % 3 + 1).collect());
    cat
}

/// A fact over (p, s, c); with `retract`, some rows are retractions.
fn fact(rows: usize, mut x: u64, retract: bool) -> Relation {
    let mut keys = Vec::with_capacity(rows * 3);
    let mut measures = Vec::with_capacity(rows);
    let mut deleted = Vec::with_capacity(rows);
    for _ in 0..rows {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        keys.extend_from_slice(&[x % 12 + 1, (x >> 17) % 5 + 1, (x >> 29) % 7 + 1]);
        measures.push(((x >> 43) % 40) as i64 - 10);
        deleted.push(retract && (x >> 53).is_multiple_of(4));
    }
    let attrs = (0..3).map(cubetrees_repro::common::AttrId).collect();
    Relation::from_changes(attrs, keys, &measures, &deleted)
}

/// A view over a subset of {p, s, c, brand} (never both p and brand), its
/// columns in the order `perm` picks.
fn view(id: u32, mask: u8, perm: u64) -> ViewDef {
    let mut attrs: Vec<u16> = (0..4u16).filter(|a| mask & (1 << a) != 0).collect();
    if attrs.contains(&0) {
        attrs.retain(|&a| a != 3);
    }
    // A deterministic shuffle driven by `perm`.
    let mut r = perm;
    for i in (1..attrs.len()).rev() {
        attrs.swap(i, (r % (i as u64 + 1)) as usize);
        r /= i as u64 + 1;
    }
    let projection = attrs.into_iter().map(cubetrees_repro::common::AttrId).collect();
    ViewDef::new(id, projection, AggFn::Sum)
}

fn env(threads: usize) -> StorageEnv {
    StorageEnv::with_config(
        "view-plan",
        64,
        cubetrees_repro::common::CostModel::default(),
        Parallelism::new(threads),
        cubetrees_repro::obs::Recorder::disabled(),
        cubetrees_repro::storage::FaultPlan::none(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random view sets (a base view's attributes again, in a permuted
    /// order, stand in for a replica), both sort conventions, facts with and
    /// without retractions, and the empty delta.
    #[test]
    fn prop_planned_views_equal_direct_computation(
        specs in collection::vec((1u8..16, ANY), 1..7),
        replicas in collection::vec((0usize..7, ANY), 0..3),
        rows in 0usize..1000,
        seed in ANY,
        flags in 0u8..4,
        threads in 1usize..4,
    ) {
        // About one case in ten is the empty delta.
        let rows = rows.saturating_sub(100);
        let (retract, packed) = (flags & 1 != 0, flags & 2 != 0);
        let cat = catalog();
        let mut views: Vec<ViewDef> =
            specs.iter().enumerate().map(|(i, &(m, perm))| view(i as u32, m, perm)).collect();
        for (k, &(base, perm)) in replicas.iter().enumerate() {
            let base = &views[base % views.len()];
            let mask = base.projection.iter().fold(0u8, |m, a| m | 1 << a.0);
            let replica = view(100 + k as u32, mask, perm);
            views.push(replica);
        }
        // The scalar view rides along in every set.
        views.push(ViewDef::new(200, vec![], AggFn::Sum));
        let sort_cols = if packed { packed_sort_cols } else { projection_sort_cols };
        let source = fact(rows, seed, retract);
        let env = env(threads);
        let plan = plan_views(&cat, &source, &views, sort_cols).unwrap();
        for st in &plan.steps {
            if st.kind == StepKind::Linear {
                let PlanSource::View(j) = st.source else {
                    panic!("a linear pass reads a computed relation");
                };
                let target = &views[st.target].projection;
                prop_assert!(target.iter().all(|a| views[j].projection.contains(a)));
            }
        }
        let planned = compute_views(&env, &cat, &source, &views, sort_cols).unwrap();
        prop_assert_eq!(planned.len(), views.len());
        for (v, rel) in views.iter().zip(&planned) {
            let direct =
                compute_view(&env, &cat, &source, &v.projection, &sort_cols(v.arity())).unwrap();
            prop_assert_eq!(&rel.attrs, &direct.attrs);
            prop_assert_eq!(&rel.keys, &direct.keys, "keys of {:?}", v.projection);
            prop_assert_eq!(&rel.states, &direct.states, "states of {:?}", v.projection);
        }
    }
}

/// Paper §3: the six views plus the top view's replicas (ids after the
/// primaries, as the forest numbers them), all in packed order, plan three
/// sorts for the load and for a refresh, whatever the increment's size. Over
/// an empty source every estimate but the scalar view's is zero, so the
/// scalar view is planned first and sorted from the fact: a sort of no rows
/// beside the same three.
#[test]
fn paper_configs_plan_three_sorts_for_load_and_refresh() {
    let w = TpcdWarehouse::new(TpcdConfig { scale_factor: 0.05, seed: 3 });
    let setup = paper_configs(&w);
    let mut defs = setup.views.clone();
    for (k, (_, projection)) in setup.cubetree.replicas.iter().enumerate() {
        defs.push(ViewDef::new(6 + k as u32, projection.clone(), AggFn::Sum));
    }
    let fact = w.generate_fact();
    let empty = Relation::empty(fact.attrs.clone());
    for source in [&fact, &w.generate_increment(0.1), &w.generate_increment(0.001), &empty] {
        let plan = plan_views(w.catalog(), source, &defs, packed_sort_cols).unwrap();
        assert_eq!(plan.steps.len(), 8);
        // The sorts are the top view and its two replicas (plus the scalar
        // view over an empty source).
        let mut sorted: Vec<usize> = plan
            .steps
            .iter()
            .filter(|st| st.kind == StepKind::Sort)
            .map(|st| st.target)
            .filter(|&t| !(source.is_empty() && defs[t].arity() == 0))
            .collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 6, 7], "{} source rows: {:?}", source.len(), plan.steps);
        if !source.is_empty() {
            assert_eq!(plan.sort_count(), 3);
        }
    }
}

/// `V{brand}` rolls `partkey` up, so no relation's sort order holds it, even
/// one sorted on `partkey` first: it is always sorted.
#[test]
fn hierarchy_target_is_never_a_linear_pass() {
    let w = TpcdWarehouse::new(TpcdConfig { scale_factor: 0.01, seed: 5 });
    let a = w.attrs();
    let views = vec![
        ViewDef::new(0, vec![a.suppkey, a.partkey], AggFn::Sum), // packed (p, s)
        ViewDef::new(1, vec![a.partkey], AggFn::Sum),
        ViewDef::new(2, vec![a.brand], AggFn::Sum),
    ];
    let fact = w.generate_fact();
    for sort_cols in [packed_sort_cols as fn(usize) -> Vec<usize>, projection_sort_cols] {
        let plan = plan_views(w.catalog(), &fact, &views, sort_cols).unwrap();
        let brand_step = plan.steps.iter().find(|st| st.target == 2).unwrap();
        assert_eq!(brand_step.kind, StepKind::Sort);
    }
    let env = env(2);
    let planned = compute_views(&env, w.catalog(), &fact, &views, packed_sort_cols).unwrap();
    for (v, rel) in views.iter().zip(&planned) {
        let direct =
            compute_view(&env, w.catalog(), &fact, &v.projection, &packed_sort_cols(v.arity()))
                .unwrap();
        assert_eq!(rel.keys, direct.keys);
        assert_eq!(rel.states, direct.states);
    }
}
