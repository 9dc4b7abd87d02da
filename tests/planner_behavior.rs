//! Pins the planning behaviour the paper discusses in §3.3:
//!
//! * a query may be answered from a larger view if an index/sort order fits
//!   better ("view V{p,s,c} … is indeed faster due to the index");
//! * the Cubetree replicas take over slices whose attribute is not the
//!   primary copy's leading sort key;
//! * the buffer pool drives the I/O counts (the §2.4 buffer-hit argument).

use cubetrees_repro::workload::{paper_configs, run_batch, QueryGenerator};
use cubetrees_repro::{
    ConventionalEngine, CubetreeEngine, RolapEngine, SliceQuery, TpcdConfig, TpcdWarehouse,
};

fn warehouse(sf: f64, seed: u64) -> TpcdWarehouse {
    TpcdWarehouse::new(TpcdConfig { scale_factor: sf, seed })
}

#[test]
fn conventional_indexed_path_beats_scan_on_io() {
    let w = warehouse(0.005, 3);
    let fact = w.generate_fact();
    let cfg = paper_configs(&w);
    let a = w.attrs();

    // With the paper's secondary indexes.
    let mut with_ix =
        ConventionalEngine::new(w.catalog().clone(), cfg.conventional.clone()).unwrap();
    with_ix.load(&fact).unwrap();
    // Without any index at all (scan-only baseline) — strip the primaries by
    // querying a node whose best view has no usable prefix.
    let mut no_ix = ConventionalEngine::new(
        w.catalog().clone(),
        cubetrees_repro::ConventionalConfig::new(cfg.views.clone()),
    )
    .unwrap();
    no_ix.load(&fact).unwrap();

    // Node {p, c} is unmaterialized; it must be answered from V{p,s,c}.
    // Fixing custkey only: with I{c,s,p} the probe touches a few RIDs; the
    // index-less engine's best option is a prefix-less full scan.
    let q = SliceQuery::new(vec![a.partkey], vec![(a.custkey, 7)]);
    let stats = |e: &dyn RolapEngine| {
        let before = e.env().snapshot();
        let rows = e.query(&q).unwrap();
        (rows, e.env().snapshot().since(&before).tuples)
    };
    let (rows_ix, tuples_ix) = stats(&with_ix);
    let (rows_scan, tuples_scan) = stats(&no_ix);
    let mut a_rows = rows_ix;
    let mut b_rows = rows_scan;
    a_rows.sort_by(|x, y| x.key.cmp(&y.key));
    b_rows.sort_by(|x, y| x.key.cmp(&y.key));
    assert_eq!(a_rows, b_rows, "same answers either way");
    assert!(
        tuples_ix * 10 < tuples_scan,
        "indexed path should process ≫ fewer tuples: {tuples_ix} vs {tuples_scan}"
    );
}

#[test]
fn replicas_absorb_non_leading_slices() {
    let w = warehouse(0.005, 5);
    let fact = w.generate_fact();
    let cfg = paper_configs(&w);
    let a = w.attrs();

    let mut with_replicas =
        CubetreeEngine::new(w.catalog().clone(), cfg.cubetree.clone()).unwrap();
    with_replicas.load(&fact).unwrap();
    let mut without = CubetreeEngine::new(
        w.catalog().clone(),
        cubetrees_repro::CubetreeConfig::new(cfg.views.clone()),
    )
    .unwrap();
    without.load(&fact).unwrap();

    // Slice partkey on the unmaterialized {p,c} node: the replica whose
    // leading sort attribute is partkey makes this a contiguous read.
    // The matching entry count is identical either way; the win is in how
    // many *pages* the search walks (contiguous run vs scattered leaves), so
    // measure logical page reads (buffer hits + physical reads).
    let q = SliceQuery::new(vec![a.custkey], vec![(a.partkey, 42)]);
    let cost = |e: &CubetreeEngine| {
        let before = e.env().snapshot();
        let rows = e.query(&q).unwrap();
        let d = e.env().snapshot().since(&before);
        (rows.len(), d.buffer_hits + d.seq_reads + d.rand_reads)
    };
    let (n1, pages1) = cost(&with_replicas);
    let (n2, pages2) = cost(&without);
    assert_eq!(n1, n2);
    assert!(
        pages1 * 3 < pages2,
        "replica slice should read ≫ fewer pages: {pages1} vs {pages2}"
    );
}

#[test]
fn smaller_buffer_pool_means_more_physical_io() {
    let w = warehouse(0.005, 7);
    let fact = w.generate_fact();
    let cfg = paper_configs(&w);
    let a = w.attrs();
    let mut generator =
        QueryGenerator::new(w.catalog(), vec![a.partkey, a.suppkey, a.custkey], 11);
    let queries = generator.batch(60);

    let run_with_pool = |pages: usize| {
        let mut c = cfg.cubetree.clone();
        c.pool_pages = pages;
        let mut e = CubetreeEngine::new(w.catalog().clone(), c).unwrap();
        e.load(&fact).unwrap();
        let before = e.env().snapshot();
        let stats = run_batch(&e, &queries).unwrap();
        let d = e.env().snapshot().since(&before);
        (stats.checksum, d.seq_reads + d.rand_reads, d.hit_ratio())
    };
    // The SF 0.005 forest is about 60 pages of bit-packed leaves: the small
    // pool must be smaller than that to evict.
    let (sum_small, io_small, hit_small) = run_with_pool(16);
    let (sum_big, io_big, hit_big) = run_with_pool(8192);
    assert_eq!(sum_small, sum_big, "pool size must not change answers");
    assert!(
        io_small > io_big,
        "small pool must do more physical reads: {io_small} vs {io_big}"
    );
    assert!(hit_small < hit_big, "hit ratio ordering: {hit_small} vs {hit_big}");
}

#[test]
fn recompute_does_not_leak_storage() {
    let w = warehouse(0.002, 9);
    let fact = w.generate_fact();
    let cfg = paper_configs(&w);
    let mut e = ConventionalEngine::new(w.catalog().clone(), cfg.conventional).unwrap();
    e.load(&fact).unwrap();
    let before = e.storage_bytes();
    for _ in 0..3 {
        e.recompute(&fact).unwrap();
    }
    let after = e.storage_bytes();
    assert_eq!(before, after, "recompute must replace, not accumulate, files");
}

#[test]
fn cubetree_update_does_not_leak_storage() {
    let w = warehouse(0.002, 11);
    let fact = w.generate_fact();
    let cfg = paper_configs(&w);
    let mut e = CubetreeEngine::new(w.catalog().clone(), cfg.cubetree).unwrap();
    e.load(&fact).unwrap();
    let before = e.storage_bytes();
    // Empty increments: merge-pack rebuilds files but storage must not grow.
    let empty = cubetrees_repro::Relation::empty(fact.attrs.clone());
    for _ in 0..3 {
        e.update(&empty).unwrap();
    }
    let after = e.storage_bytes();
    assert_eq!(before, after, "merge-pack must remove the old generation's files");
}
