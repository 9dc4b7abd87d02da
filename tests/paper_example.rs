//! Reproduces the paper's worked examples exactly:
//!
//! * §2.4 Tables 1–4 and Figure 8: views V8/V9 packed into `R3{x,y}`;
//! * Figure 6/7: the 9-view set over the 4-dimension warehouse and its
//!   SelectMapping allocation;
//! * §3 Table 5: the TPC-D view allocation.

use cubetrees_repro::common::{AggFn, AggState, Point, Rect, COORD_MAX};
use cubetrees_repro::core::select_mapping;
use cubetrees_repro::rtree::{LeafFormat, PackedRTree, TreeBuilder, ViewInfo};
use cubetrees_repro::storage::StorageEnv;
use cubetrees_repro::{Catalog, Relation, SliceQuery, ViewDef, ViewId};

/// Paper Table 1: data for view V8 = (partkey, sum(quantity)).
const V8_DATA: [(u64, i64); 6] = [(4, 15), (2, 84), (3, 67), (1, 102), (6, 42), (5, 24)];
/// Paper Table 3: data for view V9 = (suppkey, custkey, sum(quantity)).
const V9_DATA: [(u64, u64, i64); 5] = [(3, 1, 2), (1, 1, 24), (1, 3, 11), (3, 3, 17), (2, 1, 6)];

#[test]
fn tables_2_and_4_sorted_points() {
    // Table 2: V8 points (partkey, 0) sorted by (y, x).
    let mut v8: Vec<Point> = V8_DATA.iter().map(|&(k, _)| Point::new(&[k], 2)).collect();
    v8.sort();
    let xs: Vec<u64> = v8.iter().map(|p| p.coord(0)).collect();
    assert_eq!(xs, vec![1, 2, 3, 4, 5, 6]);

    // Table 4: V9 points sorted in (y, x) order.
    let mut v9: Vec<Point> = V9_DATA.iter().map(|&(x, y, _)| Point::new(&[x, y], 2)).collect();
    v9.sort();
    let got: Vec<(u64, u64)> = v9.iter().map(|p| (p.coord(0), p.coord(1))).collect();
    assert_eq!(got, vec![(1, 1), (2, 1), (3, 1), (1, 3), (3, 3)]);
}

/// Builds `R3{x,y}` exactly as §2.4 describes and checks the Figure 8 leaf
/// content: V8's points first (compressed to their x coordinate), then V9's,
/// with no interleaving.
#[test]
fn figure_8_cubetree_content() {
    let env = StorageEnv::new("paper-fig8").unwrap();
    let fid = env.create_file("r3").unwrap();
    let views = vec![
        ViewInfo { view: 8, arity: 1, agg: AggFn::Sum },
        ViewInfo { view: 9, arity: 2, agg: AggFn::Sum },
    ];
    let mut b =
        TreeBuilder::new(env.pool().clone(), fid, 2, views, LeafFormat::Compressed).unwrap();
    let mut v8 = V8_DATA.to_vec();
    v8.sort();
    for (k, q) in v8 {
        b.push(8, Point::new(&[k], 2), &AggState::from_measure(q)).unwrap();
    }
    let mut v9: Vec<(Point, i64)> =
        V9_DATA.iter().map(|&(x, y, q)| (Point::new(&[x, y], 2), q)).collect();
    v9.sort_by_key(|e| e.0);
    for (p, q) in v9 {
        b.push(9, p, &AggState::from_measure(q)).unwrap();
    }
    let t = b.finish().unwrap();

    // Figure 8 leaf contents, in leaf-chain order.
    let mut scanner = t.scanner();
    let mut content = Vec::new();
    while let Some((v, p, s)) = scanner.next_entry().unwrap() {
        content.push((v, p.coords().to_vec(), s.sum));
    }
    assert_eq!(
        content,
        vec![
            (8, vec![1, 0], 102),
            (8, vec![2, 0], 84),
            (8, vec![3, 0], 67),
            (8, vec![4, 0], 15),
            (8, vec![5, 0], 24),
            (8, vec![6, 0], 42),
            (9, vec![1, 1], 24),
            (9, vec![2, 1], 6),
            (9, vec![3, 1], 2),
            (9, vec![1, 3], 11),
            (9, vec![3, 3], 17),
        ]
    );
    // "the index can be virtually cut in two parts": V8 and V9 occupy
    // disjoint leaf ranges.
    let (_, ext8) = t.view_extent(8).unwrap();
    let (_, ext9) = t.view_extent(9).unwrap();
    assert!(ext8.last_leaf <= ext9.first_leaf);
}

/// Figure 4's queries, phrased against the example tree: Q1 slices one
/// supplier on V1-like data; Q2 slices one customer on V9.
#[test]
fn figure_4_slice_queries() {
    let env = StorageEnv::new("paper-fig4").unwrap();
    let fid = env.create_file("r3").unwrap();
    let views = vec![
        ViewInfo { view: 8, arity: 1, agg: AggFn::Sum },
        ViewInfo { view: 9, arity: 2, agg: AggFn::Sum },
    ];
    let mut b =
        TreeBuilder::new(env.pool().clone(), fid, 2, views, LeafFormat::Compressed).unwrap();
    let mut v8 = V8_DATA.to_vec();
    v8.sort();
    for (k, q) in v8 {
        b.push(8, Point::new(&[k], 2), &AggState::from_measure(q)).unwrap();
    }
    let mut v9: Vec<(Point, i64)> =
        V9_DATA.iter().map(|&(x, y, q)| (Point::new(&[x, y], 2), q)).collect();
    v9.sort_by_key(|e| e.0);
    for (p, q) in v9 {
        b.push(9, p, &AggState::from_measure(q)).unwrap();
    }
    let t: PackedRTree = b.finish().unwrap();

    // Slice custkey = 3 on V9: suppliers 1 and 3.
    let mut got = Vec::new();
    t.search(&Rect::new(&[1, 3], &[COORD_MAX, 3]), |v, p, s| {
        assert_eq!(v, 9);
        got.push((p.coord(0), s.sum));
        true
    })
    .unwrap();
    assert_eq!(got, vec![(1, 11), (3, 17)]);
}

/// Figure 6/7: the full 9-view example over the part/supplier/customer/time
/// warehouse, with real hierarchy views, mapped by SelectMapping into three
/// trees exactly as the paper shows.
#[test]
fn figures_6_and_7_nine_view_mapping() {
    let mut catalog = Catalog::new();
    let p = catalog.add_attr("partkey", 12);
    let s = catalog.add_attr("suppkey", 4);
    let c = catalog.add_attr("custkey", 5);
    let t = catalog.add_attr("timekey", 8);
    let brand = catalog.add_attr("part.brand", 3);
    let month = catalog.add_attr("time.month", 4);
    let year = catalog.add_attr("time.year", 2);
    catalog.add_hierarchy(p, brand, (0..=12).map(|v: u64| if v == 0 { 0 } else { v % 3 + 1 }).collect());
    catalog.add_hierarchy(t, month, (0..=8).map(|v: u64| if v == 0 { 0 } else { (v - 1) / 2 + 1 }).collect());
    catalog.add_hierarchy(month, year, vec![0, 1, 1, 2, 2]);

    // Figure 6's views V1..V9 (ids 1..9).
    let views = vec![
        ViewDef::new(1, vec![brand], AggFn::Count),
        ViewDef::new(2, vec![s, p], AggFn::Sum),
        ViewDef::new(3, vec![brand, s, c, month], AggFn::Sum),
        ViewDef::new(4, vec![p, s, c, year], AggFn::Sum),
        ViewDef::new(5, vec![p, c, year], AggFn::Sum),
        ViewDef::new(6, vec![c], AggFn::Avg),
        ViewDef::new(7, vec![c, p], AggFn::Avg),
        ViewDef::new(8, vec![p], AggFn::Sum),
        ViewDef::new(9, vec![s, c], AggFn::Sum),
    ];
    let plan = select_mapping(&views);
    assert_eq!(plan.tree_count(), 3, "Figure 7 shows exactly three Cubetrees");
    assert_eq!(plan.trees[0].dims, 4);
    assert_eq!(
        plan.trees[0].views,
        vec![ViewId(1), ViewId(2), ViewId(5), ViewId(3)],
        "R1 = {{V1, V2, V5, V3}}"
    );
    assert_eq!(
        plan.trees[1].views,
        vec![ViewId(6), ViewId(7), ViewId(4)],
        "R2 = {{V6, V7, V4}}"
    );
    assert_eq!(plan.trees[2].views, vec![ViewId(8), ViewId(9)], "R3 = {{V8, V9}}");
    assert_eq!(plan.trees[2].dims, 2);

    // Now actually build the forest over a tiny fact table and answer a
    // drill-down query through the hierarchy (total per brand and month).
    let env = StorageEnv::new("paper-fig7").unwrap();
    let mut keys = Vec::new();
    let mut measures = Vec::new();
    let mut x = 5u64;
    for _ in 0..300 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        keys.extend_from_slice(&[x % 12 + 1, (x >> 9) % 4 + 1, (x >> 20) % 5 + 1, (x >> 33) % 8 + 1]);
        measures.push(((x >> 45) % 10) as i64 + 1);
    }
    let fact = Relation::from_fact(vec![p, s, c, t], keys, &measures);
    let forest = cubetrees_repro::core::CubetreeForest::build(
        &env,
        &catalog,
        &fact,
        &views,
        &[],
        LeafFormat::Compressed,
    )
    .unwrap();
    assert_eq!(forest.pin().trees().len(), 3);

    // Q: total quantity for brand 2, grouped by month — answerable from V3.
    let q = SliceQuery::new(vec![month], vec![(brand, 2)]);
    let mut rows = cubetrees_repro::core::query::execute_query_with_delta(
        &forest.pin(),
        None,
        &env,
        &catalog,
        &q,
    )
    .unwrap();
    rows.sort_by(|a, b| a.key.cmp(&b.key));
    // Reference from the raw fact.
    let mut expect: std::collections::BTreeMap<u64, i64> = std::collections::BTreeMap::new();
    for i in 0..fact.len() {
        let k = fact.key(i);
        if catalog.translate(&fact.attrs, k, brand).unwrap() == 2 {
            let m = catalog.translate(&fact.attrs, k, month).unwrap();
            *expect.entry(m).or_insert(0) += fact.states[i].sum;
        }
    }
    let got: Vec<(u64, i64)> = rows.iter().map(|r| (r.key[0], r.agg as i64)).collect();
    let want: Vec<(u64, i64)> = expect.into_iter().collect();
    assert_eq!(got, want);
}

/// §3 Table 5: the TPC-D view set allocation.
#[test]
fn table_5_tpcd_allocation() {
    let mut catalog = Catalog::new();
    let p = catalog.add_attr("partkey", 100);
    let s = catalog.add_attr("suppkey", 100);
    let c = catalog.add_attr("custkey", 100);
    let views = vec![
        ViewDef::new(0, vec![p, s, c], AggFn::Sum),
        ViewDef::new(1, vec![p, s], AggFn::Sum),
        ViewDef::new(2, vec![c], AggFn::Sum),
        ViewDef::new(3, vec![s], AggFn::Sum),
        ViewDef::new(4, vec![p], AggFn::Sum),
        ViewDef::new(5, vec![], AggFn::Sum),
    ];
    let plan = select_mapping(&views);
    // Table 5: R1{x,y,z} ← psc, ps, c (+ none at the origin); R2{x} ← s;
    // R3{x} ← p.
    assert_eq!(plan.tree_count(), 3);
    assert_eq!(plan.trees[0].dims, 3);
    let r1: std::collections::BTreeSet<u32> =
        plan.trees[0].views.iter().map(|v| v.0).collect();
    assert_eq!(r1, [0u32, 1, 2, 5].into_iter().collect());
    assert_eq!(plan.trees[1].views, vec![ViewId(3)]);
    assert_eq!(plan.trees[2].views, vec![ViewId(4)]);
}
