//! Ablations of the Cubetree design choices (DESIGN.md):
//!
//! 1. **Leaf compression** — raw vs the paper's zero-elided vs the engine's
//!    bit-packed columnar leaves: storage and query cost (§2.4's ">2:1
//!    storage" mechanism, and what frame-of-reference packing adds to it);
//!    exits non-zero unless all three answer alike and their bytes order;
//! 2. **Mapping policy** — SelectMapping vs one-tree-per-view: tree count,
//!    non-leaf overhead and query cost (§2.3/§2.4's minimality claim);
//! 3. **Replicas** — the §3 multi-sort-order replication: query cost on
//!    slices that fix a non-leading sort attribute.

use ct_bench::experiments::estimate_data_bytes;
use ct_bench::report::{fmt_mb, fmt_ratio, fmt_secs, Report};
use ct_bench::BenchArgs;
use ct_rtree::LeafFormat;
use ct_tpcd::{TpcdConfig, TpcdWarehouse};
use ct_workload::{paper_configs, run_batch, QueryGenerator};
use cubetree::engine::{CubetreeConfig, CubetreeEngine, RolapEngine};

fn engine_with(
    w: &TpcdWarehouse,
    mut config: CubetreeConfig,
    pool_pages: usize,
    recorder: ct_obs::Recorder,
) -> CubetreeEngine {
    config.pool_pages = pool_pages;
    config.recorder = recorder;
    let mut e = CubetreeEngine::new(w.catalog().clone(), config).expect("engine");
    e.load(&w.generate_fact()).expect("load");
    e
}

fn main() {
    let args = BenchArgs::parse();
    let w = TpcdWarehouse::new(TpcdConfig { scale_factor: args.sf, seed: args.seed });
    let fact_rows = w.generate_fact().len() as u64;
    let pool = args.pool_pages(estimate_data_bytes(fact_rows));
    let setup = paper_configs(&w);
    let a = w.attrs();
    let base = vec![a.partkey, a.suppkey, a.custkey];

    let mut report = Report::new("ablations", "design-choice ablations", args.sf);
    report.meta("fact rows", fact_rows);

    // --- 1. compression ---
    // Every format is named: the engine default is the bit-packed one, and
    // the other sections ablate the paper's design on the paper's leaf.
    let with_format = |format| CubetreeConfig { format, ..setup.cubetree.clone() };
    let paper = with_format(LeafFormat::ZeroElided);
    let elided = engine_with(&w, paper.clone(), pool, args.recorder());
    let packed = engine_with(&w, with_format(LeafFormat::Compressed), pool, args.recorder());
    let raw = engine_with(&w, with_format(LeafFormat::Raw), pool, args.recorder());
    let mut g = QueryGenerator::new(w.catalog(), base.clone(), args.seed);
    let queries = g.batch(args.queries * 2);
    let qe = run_batch(&elided, &queries).expect("zero-elided batch");
    let qp = run_batch(&packed, &queries).expect("bit-packed batch");
    let qr = run_batch(&raw, &queries).expect("raw batch");
    // The gate ci.sh relies on: one answer in every format, and each step of
    // compression pays for itself in bytes.
    assert_eq!(qe.checksum, qr.checksum, "raw answers differ");
    assert_eq!(qe.checksum, qp.checksum, "bit-packed answers differ");
    let (raw_b, elided_b, packed_b) =
        (raw.storage_bytes(), elided.storage_bytes(), packed.storage_bytes());
    assert!(
        packed_b < elided_b && elided_b <= raw_b,
        "storage must order bit-packed < zero-elided <= raw: {packed_b} / {elided_b} / {raw_b}"
    );
    let s = report.section(
        "leaf compression ablation",
        &["format", "storage", "query batch (sim)"],
    );
    s.row(vec!["raw (padding stored)".into(), fmt_mb(raw_b), fmt_secs(qr.total_sim())]);
    s.row(vec!["zero-elided (paper §2.4)".into(), fmt_mb(elided_b), fmt_secs(qe.total_sim())]);
    s.row(vec![
        "bit-packed columns (engine default)".into(),
        fmt_mb(packed_b),
        fmt_secs(qp.total_sim()),
    ]);
    s.row(vec![
        "raw/zero-elided".into(),
        fmt_ratio(raw_b as f64, elided_b as f64),
        fmt_ratio(qr.total_sim(), qe.total_sim()),
    ]);
    s.row(vec![
        "zero-elided/bit-packed".into(),
        fmt_ratio(elided_b as f64, packed_b as f64),
        fmt_ratio(qe.total_sim(), qp.total_sim()),
    ]);

    // --- 2. replicas ---
    let no_replicas = engine_with(
        &w,
        CubetreeConfig { replicas: Vec::new(), ..paper },
        pool,
        args.recorder(),
    );
    // Queries that slice on partkey/suppkey over unmaterialized nodes force
    // the top view; without replicas the only sort order is (c,s,p).
    let mut g = QueryGenerator::new(w.catalog(), base.clone(), args.seed + 1);
    let pc_queries = g.batch_on(0b101, args.queries); // {partkey, custkey}
    let with_r = run_batch(&elided, &pc_queries).expect("with replicas");
    let without_r = run_batch(&no_replicas, &pc_queries).expect("without replicas");
    assert_eq!(with_r.checksum, without_r.checksum);
    let s = report.section(
        "top-view replicas (multi-sort-order)",
        &["configuration", "storage", "{p,c} batch (sim)"],
    );
    s.row(vec![
        "primary + 2 replicas".into(),
        fmt_mb(elided_b),
        fmt_secs(with_r.total_sim()),
    ]);
    s.row(vec![
        "primary only".into(),
        fmt_mb(no_replicas.storage_bytes()),
        fmt_secs(without_r.total_sim()),
    ]);
    s.row(vec![
        "no-replica slowdown".into(),
        String::new(),
        fmt_ratio(without_r.total_sim(), with_r.total_sim()),
    ]);

    // --- 3. mapping policy ---
    // One-tree-per-view: emulate by giving every view a distinct arity-class
    // via per-view engines is invasive; instead measure the forest shape
    // SelectMapping produces vs the per-view alternative's page overhead.
    if let Some(forest) = elided.forest() {
        let s = report.section(
            "SelectMapping forest shape",
            &["tree", "dims", "views", "entries", "internal pages"],
        );
        let pin = forest.pin();
        for (i, t) in pin.trees().iter().enumerate() {
            let st = t.stats();
            let views: Vec<String> =
                t.views().iter().map(|(v, _)| format!("V{}", v.view)).collect();
            s.row(vec![
                format!("R{}", i + 1),
                t.dims().to_string(),
                views.join("+"),
                st.entries.to_string(),
                st.internal_pages.to_string(),
            ]);
        }
    }
    // --- 4. pack order: low sort vs Morton (space-filling curve) ---
    // Paper §2.4 rejects space-filling curves; quantify on a single-view
    // tree: the top view packed both ways, sliced on each dimension.
    {
        use ct_common::{AggState, Point, Rect, COORD_MAX};
        use ct_cube::compute::packed_sort_cols;
        use ct_rtree::{morton_cmp, PackOrder, TreeBuilder, ViewInfo};
        use ct_storage::StorageEnv;

        let env = StorageEnv::with_config(
            "pack-order",
            pool,
            ct_common::CostModel::DISK_1998,
            ct_storage::Parallelism::default(),
            ct_obs::Recorder::disabled(),
            ct_storage::FaultPlan::none(),
        )
        .expect("env");
        let fact = w.generate_fact();
        let top = ct_cube::compute_view(
            &env,
            w.catalog(),
            &fact,
            &[a.partkey, a.suppkey, a.custkey],
            &packed_sort_cols(3),
        )
        .expect("top view");
        let info = ViewInfo { view: 0, arity: 3, agg: ct_common::AggFn::Sum };
        // Low-sort tree (relation is already in packed order).
        let fid_low = env.create_file("low").expect("file");
        let mut b = TreeBuilder::new(env.pool().clone(), fid_low, 3, vec![info], LeafFormat::ZeroElided)
            .expect("builder");
        for i in 0..top.len() {
            b.push(0, Point::new(top.key(i), 3), &top.states[i]).expect("push");
        }
        let low = b.finish().expect("finish");
        // Morton tree (re-sort).
        let mut idx: Vec<usize> = (0..top.len()).collect();
        idx.sort_by(|&i, &j| morton_cmp(&Point::new(top.key(i), 3), &Point::new(top.key(j), 3)));
        let fid_z = env.create_file("morton").expect("file");
        let mut b = TreeBuilder::with_order(
            env.pool().clone(),
            fid_z,
            3,
            vec![info],
            LeafFormat::ZeroElided,
            PackOrder::Morton,
        )
        .expect("builder");
        for &i in &idx {
            b.push(0, Point::new(top.key(i), 3), &top.states[i]).expect("push");
        }
        let morton = b.finish().expect("finish");

        // Slice each axis 50 times, counting simulated I/O.
        let s = report.section(
            "pack order: low sort (paper) vs Morton curve — slice cost (sim)",
            &["sliced axis", "low sort", "morton", "morton/low"],
        );
        let card = [w.parts(), w.suppliers(), w.customers()];
        for axis in 0..3usize {
            let mut cost = [0.0f64; 2];
            for (ti, tree) in [&low, &morton].iter().enumerate() {
                let before = env.snapshot();
                for k in 1..=50u64 {
                    let v = k * card[axis] / 51 + 1;
                    let mut lo = [1u64, 1, 1];
                    let mut hi = [COORD_MAX; 3];
                    lo[axis] = v;
                    hi[axis] = v;
                    let mut acc = 0i64;
                    tree.search(&Rect::new(&lo, &hi), |_, _, st: &AggState| {
                        acc = acc.wrapping_add(st.sum);
                        true
                    })
                    .expect("search");
                }
                cost[ti] =
                    env.snapshot().since(&before).simulated_seconds(env.cost_model());
            }
            let axis_name = ["partkey", "suppkey", "custkey"][axis];
            s.row(vec![
                axis_name.into(),
                fmt_secs(cost[0]),
                fmt_secs(cost[1]),
                fmt_ratio(cost[1], cost[0]),
            ]);
        }
    }

    report.emit(args.json.as_deref());
    ct_bench::metrics::emit_metrics_if_requested(
        args.metrics.as_deref(),
        &[
            ("zero_elided", elided.env()),
            ("bit_packed", packed.env()),
            ("raw", raw.env()),
            ("no_replicas", no_replicas.env()),
        ],
    );
}
