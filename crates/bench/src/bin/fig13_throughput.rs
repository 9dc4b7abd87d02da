//! Figure 13: system throughput (queries/second), min and max over windows,
//! for both configurations.
//!
//! Paper (SF 1): conventional averages ~1.1 q/s, Cubetrees ~10.1 q/s —
//! "the peak performance of the conventional approach barely matches the
//! system low for the Cubetrees implementation."

use ct_bench::experiments::build_engines_or_die;
use ct_bench::report::{fmt_ratio, Report};
use ct_bench::BenchArgs;
use cubetree::engine::RolapEngine;
use ct_workload::{run_batch, QueryGenerator};

fn main() {
    let args = BenchArgs::parse();
    let engines = build_engines_or_die(&args);
    let w = &engines.warehouse;
    let a = w.attrs();
    let total_queries = args.queries * 7; // the paper ran 100 per view
    let window = 10usize;

    let mut generator = QueryGenerator::new(
        w.catalog(),
        vec![a.partkey, a.suppkey, a.custkey],
        args.seed,
    );
    let queries = generator.batch(total_queries);
    let conv = run_batch(&engines.conventional, &queries).expect("conventional batch");
    let cube = run_batch(&engines.cubetree, &queries).expect("cubetree batch");
    assert_eq!(conv.checksum, cube.checksum, "engines disagreed on answers");

    let mut report = Report::new("fig13_throughput", "Figure 13", args.sf);
    report.meta("queries", total_queries);
    report.meta("window (queries)", window);
    report.meta("threads", args.threads);
    let (conv_min, conv_max) = conv.throughput_window_sim(window);
    let (cube_min, cube_max) = cube.throughput_window_sim(window);
    let s = report.section(
        "throughput (queries/simulated-second)",
        &["configuration", "min", "max", "avg"],
    );
    s.row(vec![
        "conventional (paper avg 1.1)".into(),
        format!("{conv_min:.2}"),
        format!("{conv_max:.2}"),
        format!("{:.2}", conv.avg_throughput_sim()),
    ]);
    s.row(vec![
        "cubetrees (paper avg 10.1)".into(),
        format!("{cube_min:.2}"),
        format!("{cube_max:.2}"),
        format!("{:.2}", cube.avg_throughput_sim()),
    ]);
    let s2 = report.section("headline ratio (paper ~10:1)", &["metric", "value"]);
    s2.row(vec![
        "avg throughput ratio".into(),
        fmt_ratio(cube.avg_throughput_sim(), conv.avg_throughput_sim()),
    ]);
    s2.row(vec![
        "cubetree min vs conventional max".into(),
        fmt_ratio(cube_min, conv_max),
    ]);
    report.emit(args.json.as_deref());
    ct_bench::metrics::emit_metrics_if_requested(
        args.metrics.as_deref(),
        &[
            ("conventional", engines.conventional.env()),
            ("cubetrees", engines.cubetree.env()),
        ],
    );
}
