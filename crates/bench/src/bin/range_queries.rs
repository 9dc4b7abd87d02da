//! Bounded-range query extension (paper §3.1's prediction: "in a more
//! general experiment where arbitrary range queries are allowed we expect
//! that the Cubetrees would be even faster").
//!
//! Sweeps the range span as a fraction of the attribute domain and compares
//! both configurations on each lattice node.

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
    let mut report = Report::new("range_queries", "§3.1 range-query extension", args.sf);
    report.meta("queries per cell", args.queries);

    let s = report.section(
        "total simulated seconds (range over one attribute, group by the rest)",
        &["node", "span", "conventional", "cubetrees", "speedup", "agree"],
    );
    let names = |mask: usize| -> String {
        (0..3)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| w.catalog().attr(base[i]).name.clone())
            .collect::<Vec<_>>()
            .join(",")
    };
    for &mask in &[0b111usize, 0b011, 0b101] {
        for &span in &[0.01f64, 0.1, 0.5] {
            let mut g =
                QueryGenerator::new(w.catalog(), base.clone(), args.seed + mask as u64);
            let queries = g.range_batch_on(mask, args.queries, span);
            let conv = run_batch(&engines.conventional, &queries).expect("conventional");
            let cube = run_batch(&engines.cubetree, &queries).expect("cubetrees");
            s.row(vec![
                names(mask),
                format!("{:.0}%", span * 100.0),
                fmt_secs(conv.total_sim()),
                fmt_secs(cube.total_sim()),
                fmt_ratio(conv.total_sim(), cube.total_sim()),
                (conv.checksum == cube.checksum).to_string(),
            ]);
        }
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
