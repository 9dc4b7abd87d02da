//! Figure 14: Cubetree scalability — per-view query batches at SF and 2×SF.
//!
//! Paper: "query performance is practically unaffected by the larger input";
//! small differences track output size only.

use ct_bench::experiments::estimate_data_bytes;
use ct_bench::report::{fmt_ratio, fmt_secs, Report};
use ct_bench::BenchArgs;
use ct_rtree::LeafFormat;
use ct_tpcd::{TpcdConfig, TpcdWarehouse};
use ct_workload::{paper_configs, run_batch, QueryGenerator};
use cubetree::engine::{CubetreeEngine, RolapEngine};

fn load_cubetrees(args: &BenchArgs, sf: f64) -> (TpcdWarehouse, CubetreeEngine) {
    let w = TpcdWarehouse::new(TpcdConfig { scale_factor: sf, seed: args.seed });
    let fact = w.generate_fact();
    let mut setup = paper_configs(&w);
    setup.cubetree.pool_pages = args.pool_pages(estimate_data_bytes(fact.len() as u64));
    setup.cubetree.recorder = args.recorder();
    // Figure 14 is the paper's: measured on the paper's leaf format.
    setup.cubetree.format = LeafFormat::ZeroElided;
    let mut engine = CubetreeEngine::new(w.catalog().clone(), setup.cubetree)
        .expect("engine creation");
    engine.load(&fact).expect("load");
    (w, engine)
}

fn main() {
    let args = BenchArgs::parse();
    let (w1, small) = load_cubetrees(&args, args.sf);
    let (_w2, large) = load_cubetrees(&args, args.sf * 2.0);

    let mut report = Report::new("fig14_scalability", "Figure 14", args.sf);
    report.meta("datasets", format!("SF {} vs SF {}", args.sf, args.sf * 2.0));
    report.meta("queries per view", args.queries);
    let a = w1.attrs();
    let base = vec![a.partkey, a.suppkey, a.custkey];
    let names = |mask: usize| -> String {
        (0..3)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| w1.catalog().attr(base[i]).name.clone())
            .collect::<Vec<_>>()
            .join(",")
    };
    let s = report.section(
        "cubetrees only: total simulated seconds per view batch",
        &["view", "1x dataset", "2x dataset", "growth"],
    );
    let node_order = [0b111usize, 0b011, 0b101, 0b110, 0b001, 0b010, 0b100];
    for &mask in &node_order {
        // Same query stream for both datasets (domains scale, so values are
        // drawn per-warehouse with the same seed).
        let mut g1 = QueryGenerator::new(w1.catalog(), base.clone(), args.seed + mask as u64);
        let q1 = g1.batch_on(mask, args.queries);
        let s1 = run_batch(&small, &q1).expect("small batch");
        let mut g2 = QueryGenerator::new(_w2.catalog(), base.clone(), args.seed + mask as u64);
        let q2 = g2.batch_on(mask, args.queries);
        let s2 = run_batch(&large, &q2).expect("large batch");
        s.row(vec![
            names(mask),
            fmt_secs(s1.total_sim()),
            fmt_secs(s2.total_sim()),
            fmt_ratio(s2.total_sim(), s1.total_sim()),
        ]);
    }

    report.emit(args.json.as_deref());
    ct_bench::metrics::emit_metrics_if_requested(
        args.metrics.as_deref(),
        &[("cubetrees_1x", small.env()), ("cubetrees_2x", large.env())],
    );
}
