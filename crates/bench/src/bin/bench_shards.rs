//! Partitioned-forest benchmark: sharded scatter-gather build and query.
//!
//! Sweeps shard counts (default {1, 2, 4, 8}) over the same TPC-D fact
//! relation and the same query batch. For each shard count it reports the
//! parallel build wall time and speedup over the unsharded engine, the
//! physical pages read per query (the scatter-gather overhead), and the
//! partition skew (max/mean shard rows).
//!
//! Two properties are enforced, not just reported:
//!
//! * every shard count returns bit-identical answers to the unsharded
//!   engine (AggState merge is associative and commutative; finalization
//!   happens once, after the gather);
//! * the widest sweep point must not read more pages per query than the
//!   unsharded engine beyond the gather overhead allowed by the checked-in
//!   baseline (`results/bench_shards_baseline.json`) — fan-out without
//!   pruning would show up here. Exits non-zero on regression.
//!
//! Default JSON output `BENCH_shards.json`.

use ct_bench::experiments::estimate_data_bytes;
use ct_bench::report::{fmt_ratio, fmt_secs, Report};
use ct_bench::BenchArgs;
use ct_common::query::{normalize_rows, QueryRow};
use ct_server::json::Json;
use ct_tpcd::{TpcdConfig, TpcdWarehouse};
use ct_workload::{paper_configs, QueryGenerator};
use cubetree::engine::RolapEngine;
use cubetree::{ShardSpec, ShardedConfig, ShardedEngine};
use std::time::Instant;

struct Outcome {
    shards: usize,
    build_secs: f64,
    query_secs: f64,
    query_pages: u64,
    rows_max: u64,
    rows_mean: f64,
    answers: Vec<Vec<QueryRow>>,
}

fn main() {
    let args = BenchArgs::parse();
    let w = TpcdWarehouse::new(TpcdConfig { scale_factor: args.sf, seed: args.seed });
    let fact = w.generate_fact();
    let setup = paper_configs(&w);
    let total_pool = args.pool_pages(estimate_data_bytes(fact.len() as u64));
    let a = w.attrs();
    let base = vec![a.partkey, a.suppkey, a.custkey];

    // The same query stream for every shard count: a mix of every class the
    // routing layer has to handle (full group-bys prune to one shard on the
    // partition key, coarser group-bys fan out and gather).
    let mut queries = Vec::new();
    for (i, mask) in [0b111usize, 0b011, 0b101, 0b110, 0b001, 0b010, 0b100]
        .iter()
        .enumerate()
    {
        let mut g = QueryGenerator::new(w.catalog(), base.clone(), args.seed + i as u64);
        queries.extend(g.batch_on(*mask, (args.queries / 7).max(2)));
    }

    let mut sweep = vec![1usize, 2, 4, 8];
    if args.shards > 1 && !sweep.contains(&args.shards) {
        sweep.push(args.shards);
        sweep.sort_unstable();
    }

    let mut outcomes = Vec::new();
    for &n in &sweep {
        // Total buffer-pool budget is held constant across the sweep: each
        // shard's env gets an equal slice, so page counts compare storage
        // organizations rather than aggregate cache size.
        let mut cfg = setup.cubetree.clone().with_threads(args.threads.max(n));
        cfg.pool_pages = (total_pool / n).max(128);
        let spec = ShardSpec::new(n).with_partition_attr(a.partkey);

        // Build wall is the best of two fresh builds: the sweep compares
        // storage organizations, and a single load on a shared box can eat
        // an unrelated I/O stall that dwarfs the organizational difference.
        let mut build_secs = f64::INFINITY;
        let mut built = None;
        for _ in 0..2 {
            let mut engine = ShardedEngine::new(
                w.catalog().clone(),
                ShardedConfig::new(cfg.clone(), spec.clone()),
            )
            .expect("sharded engine");
            let t0 = Instant::now();
            engine.load(&fact).expect("sharded load");
            build_secs = build_secs.min(t0.elapsed().as_secs_f64());
            built = Some(engine);
        }
        let engine = built.expect("at least one build");

        let rows = engine.shard_rows().to_vec();
        let rows_max = rows.iter().copied().max().unwrap_or(0);
        let rows_mean = rows.iter().sum::<u64>() as f64 / rows.len().max(1) as f64;

        let before = engine.io_snapshot();
        let t1 = Instant::now();
        let answers: Vec<Vec<QueryRow>> = queries
            .iter()
            .map(|q| normalize_rows(engine.query(q).expect("sharded query")))
            .collect();
        let query_secs = t1.elapsed().as_secs_f64();
        let io = engine.io_snapshot().since(&before);
        outcomes.push(Outcome {
            shards: n,
            build_secs,
            query_secs,
            query_pages: io.seq_reads + io.rand_reads,
            rows_max,
            rows_mean,
            answers,
        });
    }

    // Bit-identity gate: every sweep point must answer exactly like the
    // unsharded engine.
    let mut failed = false;
    let baseline_answers = &outcomes[0].answers;
    for o in &outcomes[1..] {
        if &o.answers != baseline_answers {
            eprintln!(
                "regression: shards={} answers differ from the unsharded engine",
                o.shards
            );
            failed = true;
        }
    }

    let baseline_ratio = read_baseline_ratio("results/bench_shards_baseline.json");
    let per_query = |o: &Outcome| o.query_pages as f64 / queries.len() as f64;
    // The gated sweep point: shards=4 (the paper-scale acceptance point)
    // when the sweep includes it, else the widest point run.
    let gated = outcomes
        .iter()
        .find(|o| o.shards == 4)
        .unwrap_or_else(|| outcomes.last().expect("non-empty sweep"));
    let ratio = if per_query(&outcomes[0]) > 0.0 {
        per_query(gated) / per_query(&outcomes[0])
    } else if per_query(gated) > 0.0 {
        f64::INFINITY
    } else {
        1.0
    };

    let mut report = Report::new(
        "bench_shards",
        "Partitioned forests: sharded build, scatter-gather query",
        args.sf,
    );
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    report.meta("fact rows", fact.len());
    report.meta("queries", queries.len());
    report.meta("threads", args.threads.max(1));
    report.meta("cpu cores", cores);
    if cores < *sweep.last().unwrap_or(&1) {
        // Shard builds do the same total work in parallel slices; with
        // fewer cores than shards the wall-clock speedup column measures
        // host scheduling, not the organization. Page I/O and query wall
        // remain meaningful (pruning reduces *work*, not just concurrency).
        report.meta(
            "note",
            format!(
                "host has {cores} core(s) < {} shards: build speedup requires \
                 >= shards cores; query-side columns are core-independent",
                sweep.last().unwrap_or(&1)
            ),
        );
    }
    report.meta("partition attr", w.catalog().attr(a.partkey).name.clone());
    report.meta("total pool pages", total_pool);
    report.meta("baseline max pages/query ratio", baseline_ratio);

    let s = report.section(
        "shard sweep",
        &[
            "shards",
            "build s",
            "build speedup",
            "query s",
            "pages read",
            "pages/query",
            "skew max/mean",
        ],
    );
    let build1 = outcomes[0].build_secs;
    for o in &outcomes {
        s.row(vec![
            o.shards.to_string(),
            fmt_secs(o.build_secs),
            fmt_ratio(build1, o.build_secs),
            fmt_secs(o.query_secs),
            o.query_pages.to_string(),
            format!("{:.3}", per_query(o)),
            format!("{} / {:.1}", o.rows_max, o.rows_mean),
        ]);
    }

    let s2 = report.section("gather overhead", &["metric", "value"]);
    s2.row(vec![
        format!("pages/query, shards={}", outcomes[0].shards),
        format!("{:.3}", per_query(&outcomes[0])),
    ]);
    s2.row(vec![
        format!("pages/query, shards={}", gated.shards),
        format!("{:.3}", per_query(gated)),
    ]);
    s2.row(vec!["sharded / unsharded".into(), format!("{ratio:.3}")]);
    s2.row(vec![
        format!("query wall speedup, shards={}", gated.shards),
        fmt_ratio(outcomes[0].query_secs, gated.query_secs),
    ]);
    s2.row(vec!["within baseline".into(), (ratio <= baseline_ratio).to_string()]);
    s2.row(vec![
        "answers bit-identical".into(),
        outcomes[1..]
            .iter()
            .all(|o| &o.answers == baseline_answers)
            .to_string(),
    ]);

    let json = args.json.clone().unwrap_or_else(|| "BENCH_shards.json".into());
    report.emit(Some(&json));

    if ratio > baseline_ratio {
        eprintln!(
            "regression: shards={} read {:.3} pages/query vs {:.3} unsharded \
             (ratio {ratio:.3} > baseline {baseline_ratio:.3})",
            gated.shards,
            per_query(gated),
            per_query(&outcomes[0]),
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// Reads `max_sharded_pages_per_query_ratio` from the checked-in baseline,
/// falling back to 1.0 (scatter-gather must not read more pages per query
/// than the unsharded engine) if the file is missing or unparsable.
fn read_baseline_ratio(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| doc.get("max_sharded_pages_per_query_ratio")?.as_f64())
        .unwrap_or(1.0)
}
