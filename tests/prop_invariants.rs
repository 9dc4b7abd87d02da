//! Property-based tests over the core data structures and the end-to-end
//! engines: packed trees against model filters, merge-pack against
//! recomputation, B-trees against `BTreeMap`, and the Cubetree engine
//! against brute-force aggregation.

use cubetrees_repro::btree::BTree;
use cubetrees_repro::common::query::{normalize_rows, QueryRow};
use cubetrees_repro::common::{AggFn, AggState, Point, Rect, COORD_MAX};
use cubetrees_repro::rtree::{
    merge_pack, LeafFormat, PackedRTree, TreeBuilder, VecStream, ViewInfo,
};
use cubetrees_repro::storage::StorageEnv;
use cubetrees_repro::{
    AggFn as Agg, Catalog, CubetreeConfig, CubetreeEngine, Relation, RolapEngine, SliceQuery,
    ViewDef,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

const FORMATS: [LeafFormat; 3] = [LeafFormat::ZeroElided, LeafFormat::Compressed, LeafFormat::Raw];

/// One stored entry of the 3-d test tree: `(point, view, measure)`. View `k`
/// is the view of arity `k`, so packed point order keeps views contiguous.
type Entry = (Point, u32, i64);

/// A coordinate or bound: small values that collide and share leaves, plus a
/// few next to `COORD_MAX`, which force a 64-bit packed column.
fn coord(lowest: u64) -> impl Strategy<Value = u64> {
    (lowest..66u64).prop_map(|v| if v <= 60 { v } else { COORD_MAX - (65 - v) })
}

/// Measures that cross zero, plus both `i64` extremes.
fn measure() -> impl Strategy<Value = i64> {
    (-52i64..52).prop_map(|m| match m {
        -52 => i64::MIN,
        51 => i64::MAX,
        m => m,
    })
}

/// Distinct entries of arities 0–3 (mostly 3, so that a view outgrows one
/// leaf in every format and leaves are sealed exactly full; the arity-0 view
/// is a single-entry leaf whenever it is drawn), in packed order.
fn entries(max_len: usize) -> impl Strategy<Value = Vec<Entry>> {
    let key = (0..8usize, coord(1), coord(1), coord(1));
    proptest::collection::btree_map(key, measure(), 1..max_len).prop_map(|m| {
        let distinct: BTreeMap<(Point, u32), i64> = m
            .into_iter()
            .map(|((arity, x, y, z), q)| {
                let arity = arity.min(3);
                ((Point::new(&[x, y, z][..arity], 3), arity as u32), q)
            })
            .collect();
        distinct.into_iter().map(|((p, v), q)| (p, v, q)).collect()
    })
}

/// A region of the 3-d space; bounds may be 0, where the padding lives.
fn region() -> impl Strategy<Value = Rect> {
    proptest::collection::vec((coord(0), coord(0)), 3).prop_map(|b| {
        let (lo, hi): (Vec<u64>, Vec<u64>) = b.iter().map(|&(a, b)| (a.min(b), a.max(b))).unzip();
        Rect::new(&lo, &hi)
    })
}

fn views() -> Vec<ViewInfo> {
    (0..=3).map(|k| ViewInfo { view: k, arity: k as u8, agg: AggFn::Sum }).collect()
}

fn build_tree(env: &StorageEnv, name: &str, entries: &[Entry], format: LeafFormat) -> PackedRTree {
    let fid = env.create_file(name).unwrap();
    let mut b = TreeBuilder::new(env.pool().clone(), fid, 3, views(), format).unwrap();
    for &(p, v, q) in entries {
        b.push(v, p, &AggState::from_measure(q)).unwrap();
    }
    b.finish().unwrap()
}

/// "Decode everything": the scanner's output, the reference the in-leaf
/// binary search and column filters are held against.
fn scan(tree: &PackedRTree) -> Vec<Entry> {
    let mut scanner = tree.scanner();
    let mut got = Vec::new();
    while let Some((v, p, s)) = scanner.next_entry().unwrap() {
        got.push((p, v, s.sum));
    }
    got
}

/// Region search must equal a brute-force filter of the full scan.
fn assert_search_is_filter(tree: &PackedRTree, region: &Rect, what: &str) {
    let mut got = Vec::new();
    tree.search(region, |v, p, s| {
        got.push((*p, v, s.sum));
        true
    })
    .unwrap();
    let expect: Vec<Entry> =
        scan(tree).into_iter().filter(|(p, _, _)| region.contains_point(p)).collect();
    assert_eq!(got, expect, "{what}, region {region:?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Packing then scanning returns exactly the input, in packed order,
    /// for every leaf format.
    #[test]
    fn prop_pack_scan_roundtrip(input in entries(700)) {
        let env = StorageEnv::new("prop-pack").unwrap();
        for format in FORMATS {
            let tree = build_tree(&env, &format!("t{:?}", format), &input, format);
            prop_assert_eq!(&scan(&tree), &input, "format {:?}", format);
        }
    }

    /// Region search equals a brute-force filter for arbitrary rectangles,
    /// for every leaf format.
    #[test]
    fn prop_region_search_is_filter(
        input in entries(700),
        regions in proptest::collection::vec(region(), 6),
    ) {
        let env = StorageEnv::new("prop-region").unwrap();
        for format in FORMATS {
            let tree = build_tree(&env, &format!("t{:?}", format), &input, format);
            for region in &regions {
                assert_search_is_filter(&tree, region, &format!("format {format:?}"));
            }
        }
    }

    /// merge-pack(tree(A), B) has exactly the contents of tree(A ⊎ B) where
    /// equal keys merge their aggregates — within each format, and from the
    /// fixed-width formats into the bit-packed one (what a reopened forest
    /// does on its next refresh).
    #[test]
    fn prop_merge_pack_equals_recompute(
        base in entries(500),
        delta in entries(250),
        regions in proptest::collection::vec(region(), 3),
    ) {
        let env = StorageEnv::new("prop-merge").unwrap();
        let mut model: BTreeMap<(Point, u32), i64> = BTreeMap::new();
        for &(p, v, q) in base.iter().chain(delta.iter()) {
            let sum = model.entry((p, v)).or_insert(0);
            *sum = sum.wrapping_add(q);
        }
        let expect: Vec<Entry> = model.into_iter().map(|((p, v), q)| (p, v, q)).collect();
        let mixed = [(LeafFormat::ZeroElided, LeafFormat::Compressed), (LeafFormat::Raw, LeafFormat::Compressed)];
        for (i, (from, to)) in FORMATS.map(|f| (f, f)).into_iter().chain(mixed).enumerate() {
            let old = build_tree(&env, &format!("old{i}"), &base, from);
            let items = delta.iter().map(|&(p, v, q)| (v, p, AggState::from_measure(q))).collect();
            let mut stream = VecStream::new(items);
            let new_fid = env.create_file(&format!("new{i}")).unwrap();
            let merged =
                merge_pack(env.pool().clone(), &old, &mut stream, new_fid, views(), to).unwrap();
            prop_assert_eq!(&scan(&merged), &expect, "{:?} into {:?}", from, to);
            for region in &regions {
                assert_search_is_filter(&merged, region, &format!("{from:?} into {to:?}"));
            }
        }
    }

    /// The B+-tree behaves like a `BTreeMap` under interleaved inserts,
    /// upserts, lookups and range scans.
    #[test]
    fn prop_btree_models_btreemap(
        ops in proptest::collection::vec((0..800u64, -100i64..100), 1..400),
        probe in 0..800u64,
        range in (0..800u64, 0..800u64),
    ) {
        let env = StorageEnv::new("prop-btree").unwrap();
        let fid = env.create_file("t").unwrap();
        let mut tree = BTree::create(env.pool().clone(), fid, 1, 1).unwrap();
        let mut model: BTreeMap<u64, i64> = BTreeMap::new();
        for &(k, v) in &ops {
            tree.upsert(&[k], &[v as u64], |old, new| {
                old[0] = (old[0] as i64 + new[0] as i64) as u64;
            })
            .unwrap();
            *model.entry(k).or_insert(0) += v;
        }
        prop_assert_eq!(tree.len() as usize, model.len());
        let got = tree.get(&[probe]).unwrap().map(|p| p[0] as i64);
        prop_assert_eq!(got, model.get(&probe).copied());
        let (lo, hi) = (range.0.min(range.1), range.0.max(range.1));
        let mut got_range = Vec::new();
        tree.scan_range(&[lo], &[hi], |k, p| {
            got_range.push((k[0], p[0] as i64));
            true
        })
        .unwrap();
        let expect_range: Vec<(u64, i64)> =
            model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got_range, expect_range);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// End to end: a Cubetree engine over random facts answers arbitrary
    /// slice queries (equality + ranges) identically to brute force.
    #[test]
    fn prop_engine_matches_brute_force(
        rows in proptest::collection::vec((1..12u64, 1..6u64, 1..8u64, 1..20i64), 20..150),
        fix_p in proptest::option::of(1..12u64),
        fix_s in proptest::option::of(1..6u64),
        range_c in proptest::option::of((1..8u64, 1..8u64)),
    ) {
        let mut catalog = Catalog::new();
        let p = catalog.add_attr("p", 12);
        let s = catalog.add_attr("s", 6);
        let c = catalog.add_attr("c", 8);
        let mut keys = Vec::new();
        let mut measures = Vec::new();
        for &(a, b, d, q) in &rows {
            keys.extend_from_slice(&[a, b, d]);
            measures.push(q);
        }
        let fact = Relation::from_fact(vec![p, s, c], keys, &measures);
        let views = vec![
            ViewDef::new(0, vec![p, s, c], Agg::Sum),
            ViewDef::new(1, vec![p, s], Agg::Sum),
            ViewDef::new(2, vec![c], Agg::Sum),
            ViewDef::new(3, vec![], Agg::Sum),
        ];
        let mut engine = CubetreeEngine::new(catalog, CubetreeConfig::new(views)).unwrap();
        engine.load(&fact).unwrap();

        let mut predicates = Vec::new();
        let mut group_by = vec![];
        if let Some(v) = fix_p { predicates.push((p, v)); } else { group_by.push(p); }
        if let Some(v) = fix_s { predicates.push((s, v)); } else { group_by.push(s); }
        let mut q = SliceQuery::new(group_by.clone(), predicates.clone());
        let crange = range_c.map(|(a, b)| (a.min(b), a.max(b)));
        if let Some((lo, hi)) = crange {
            q = q.with_range(c, lo, hi);
        } else {
            q = SliceQuery::new(
                group_by.into_iter().chain([c]).collect(),
                predicates,
            );
        }
        let got = normalize_rows(engine.query(&q).unwrap());
        // Brute force.
        let mut groups: HashMap<Vec<u64>, i64> = HashMap::new();
        'rows: for i in 0..fact.len() {
            let key = fact.key(i);
            for (a, v) in &q.predicates {
                if key[fact.col_of(*a).unwrap()] != *v { continue 'rows; }
            }
            for (a, lo, hi) in &q.ranges {
                let v = key[fact.col_of(*a).unwrap()];
                if v < *lo || v > *hi { continue 'rows; }
            }
            let g: Vec<u64> =
                q.group_by.iter().map(|a| key[fact.col_of(*a).unwrap()]).collect();
            *groups.entry(g).or_insert(0) += fact.states[i].sum;
        }
        let expect = normalize_rows(
            groups
                .into_iter()
                .map(|(key, sum)| QueryRow { key, agg: sum as f64 })
                .collect(),
        );
        prop_assert_eq!(got, expect, "query {:?}", q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Page checksums round-trip through the pager: an intact page reads
    /// back verified, and any single corrupted byte on disk surfaces as
    /// `CtError::Corrupt` — never a panic or a silent wrong read.
    #[test]
    fn prop_page_checksum_detects_single_byte_corruption(
        data in proptest::collection::vec(0u8..=255, cubetrees_repro::storage::PAGE_SIZE),
        pos in 0usize..cubetrees_repro::storage::PAGE_SIZE,
        xor in 1u8..=255,
    ) {
        use cubetrees_repro::storage::Page;
        let env = StorageEnv::new("prop-sum").unwrap();
        let fid = env.create_file("t").unwrap();
        let file = env.pool().file(fid).unwrap();
        let pid = file.allocate();
        let mut page = Page::zeroed();
        page.bytes_mut().copy_from_slice(&data);
        file.write_page(pid, &page).unwrap();

        // Intact round-trip: the recorded checksum verifies.
        let mut back = Page::zeroed();
        file.read_page(pid, &mut back).unwrap();
        prop_assert_eq!(back.bytes(), &data[..]);

        // A one-byte flip changes exactly one little-endian word. Each
        // checksum step is injective in its word and bijective in the lane
        // state, and so is every fold step, so the sum must change and the
        // next verified read must fail.
        let mut raw = std::fs::read(file.path()).unwrap();
        raw[pos] ^= xor;
        std::fs::write(file.path(), &raw).unwrap();
        let err = file.read_page(pid, &mut back).expect_err("corruption detected");
        prop_assert!(
            matches!(err, cubetrees_repro::common::CtError::Corrupt(_)),
            "unexpected error kind: {err}"
        );
    }
}
