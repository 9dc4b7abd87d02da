//! Figure 12: total time of `--queries` random slice queries per lattice
//! view, both configurations.
//!
//! Paper shape (SF 1, 100 queries per view): Cubetrees beat the conventional
//! organization on every view; the conventional bars are largest on the
//! nodes answered through the big top view.

use ct_bench::experiments::build_engines_or_die;
use ct_bench::report::{fmt_ratio, fmt_secs, Report};
use ct_bench::BenchArgs;
use cubetree::engine::RolapEngine;
use ct_workload::{run_batch, QueryGenerator};

fn main() {
    let args = BenchArgs::parse();
    let engines = build_engines_or_die(&args);
    engines.start_cold().expect("cold pools");
    let w = &engines.warehouse;
    let a = w.attrs();
    let base = vec![a.partkey, a.suppkey, a.custkey];
    let mut report = Report::new("fig12_queries", "Figure 12", args.sf);
    report.meta("queries per view", args.queries);
    report.meta("fact rows", engines.fact.len());
    report.meta("threads", args.threads);

    let s = report.section(
        "total simulated seconds per view batch",
        &["view", "conventional", "cubetrees", "speedup", "checksums equal"],
    );
    let names = |mask: usize| -> String {
        (0..3)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| w.catalog().attr(base[i]).name.clone())
            .collect::<Vec<_>>()
            .join(",")
    };
    // Figure 12 orders views from the top of the lattice down.
    let node_order = [0b111usize, 0b011, 0b101, 0b110, 0b001, 0b010, 0b100];
    for &mask in &node_order {
        let mut generator = QueryGenerator::new(w.catalog(), base.clone(), args.seed + mask as u64);
        let queries = generator.batch_on(mask, args.queries);
        let conv = run_batch(&engines.conventional, &queries).expect("conventional batch");
        let cube = run_batch(&engines.cubetree, &queries).expect("cubetree batch");
        s.row(vec![
            names(mask),
            fmt_secs(conv.total_sim()),
            fmt_secs(cube.total_sim()),
            fmt_ratio(conv.total_sim(), cube.total_sim()),
            (conv.checksum == cube.checksum).to_string(),
        ]);
    }
    report.emit(args.json.as_deref());
    ct_bench::metrics::emit_metrics_if_requested(
        args.metrics.as_deref(),
        &[
            ("conventional", engines.conventional.env()),
            ("cubetrees", engines.cubetree.env()),
        ],
    );
}
