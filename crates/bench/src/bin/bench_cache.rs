//! Answer-cache benchmark: a skewed serving workload against two identical
//! ct-servers, one with the generation-keyed answer cache enabled and one
//! without. Both replay the same per-client query streams (same seed), so
//! their physical page counts compare like for like.
//!
//! The cache's whole value proposition is checked here:
//!
//! * **Page economy** — under a Zipf-skewed stream, hits skip planning and
//!   R-tree scans entirely, so the cache-on run must read no more pages per
//!   answered query than cache-off times the checked-in baseline ratio
//!   (`results/bench_cache_baseline.json`).
//! * **Transparency** — after the load, a deterministic verification pass
//!   asks both servers the same queries (twice each, so the second round on
//!   the cached server is served from memory) and requires byte-identical
//!   response bodies.
//! * **Liveness** — with skew, the cache must actually record hits; a zero
//!   hit count means the wiring is broken even if nothing else trips.
//!
//! Exits non-zero on any of the three. Default output `BENCH_cache.json`.

use ct_bench::experiments::estimate_data_bytes;
use ct_bench::report::{fmt_ratio, Report};
use ct_bench::BenchArgs;
use ct_server::json::Json;
use ct_server::{CtServer, ServerConfig, ServerHandle};
use ct_tpcd::{TpcdConfig, TpcdWarehouse};
use ct_workload::serving::{query_body, HttpClient, LoopMode, ServingConfig, ServingStats};
use ct_workload::{paper_configs, run_serving, QueryGenerator};
use cubetree::engine::{CubetreeEngine, RolapEngine};
use cubetree::ServingEngine;
use std::sync::Arc;

struct Side {
    label: &'static str,
    cache: bool,
    engine: Arc<dyn ServingEngine>,
    server: Option<ServerHandle>,
    stats: Option<ServingStats>,
    pages: u64,
}

fn main() {
    let args = BenchArgs::parse();
    let threads = args.threads.max(2);
    // A cache benchmark over a uniform stream would measure nothing; default
    // to a realistic hot-set skew, overridable with --skew.
    let skew = if args.skew == 0.0 { 1.1 } else { args.skew };
    let w = TpcdWarehouse::new(TpcdConfig { scale_factor: args.sf, seed: args.seed });
    let fact = w.generate_fact();
    let setup = paper_configs(&w);
    let pool = args.pool_pages(estimate_data_bytes(fact.len() as u64));
    let a = w.attrs();
    let base = vec![a.partkey, a.suppkey, a.custkey];
    let total_requests = args.queries.max(16);

    let build = |label: &'static str, cache: bool| -> Side {
        let mut cfg = setup.cubetree.clone().with_threads(threads);
        cfg.pool_pages = pool;
        cfg.recorder = ct_obs::Recorder::enabled();
        let mut engine = CubetreeEngine::new(w.catalog().clone(), cfg).expect("cubetree engine");
        engine.load(&fact).expect("cubetree load");
        let engine: Arc<dyn ServingEngine> = Arc::new(engine);
        let mut server_cfg = ServerConfig::default();
        server_cfg.cache.enabled = cache;
        // Threshold 1: every miss populates, so the warm-up cost of the
        // frequency doorkeeper doesn't blur a short benchmark run.
        server_cfg.cache.admission_threshold = 1;
        let server = CtServer::start(engine.clone(), server_cfg).expect("start server");
        Side { label, cache, engine, server: Some(server), stats: None, pages: 0 }
    };

    let mut sides = vec![build("cache off", false), build("cache on", true)];

    // Identical skewed load against each side (same seed → same per-client
    // query streams).
    for side in &mut sides {
        let load = ServingConfig {
            clients: 8,
            requests_per_client: total_requests / 8,
            mode: LoopMode::Closed,
            seed: args.seed,
            skew,
            ..ServingConfig::default()
        };
        let addr = side.server.as_ref().expect("running").addr().to_string();
        let before = side.engine.io_snapshot();
        let stats = run_serving(&addr, w.catalog(), base.clone(), &load)
            .expect("serving run");
        let io = side.engine.io_snapshot().since(&before);
        side.pages = io.seq_reads + io.rand_reads;
        side.stats = Some(stats);
    }

    // Transparency pass: the same deterministic queries to both servers,
    // twice each. The second round on the cached side replays memoized rows;
    // every body must still be byte-identical to the uncached server's.
    let mut generator =
        QueryGenerator::new(w.catalog(), base.clone(), args.seed ^ 0x5eed)
            .with_skew(skew);
    let probes: Vec<_> = (0..32).map(|_| generator.next_query()).collect();
    let mut mismatches = 0u64;
    let mut clients: Vec<HttpClient> = sides
        .iter()
        .map(|s| {
            let addr = s.server.as_ref().expect("running").addr().to_string();
            HttpClient::connect(&addr).expect("connect")
        })
        .collect();
    for round in 0..2 {
        for (qi, q) in probes.iter().enumerate() {
            let body = query_body(w.catalog(), q, false);
            let replies: Vec<String> = clients
                .iter_mut()
                .map(|c| {
                    let r = c.request("POST", "/query", &body).expect("query");
                    assert_eq!(r.status, 200, "probe query must succeed");
                    r.text()
                })
                .collect();
            if replies[1] != replies[0] {
                mismatches += 1;
                eprintln!("answer mismatch (round {round}, probe {qi}): {q:?}");
            }
        }
    }
    drop(clients);

    let cache_counter = |side: &Side, name: &str| side.engine.recorder().counter(name).get();
    let hits = cache_counter(&sides[1], "cache.hits");
    let misses = cache_counter(&sides[1], "cache.misses");
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;

    for side in &mut sides {
        side.server.take().expect("running").join();
    }

    let baseline_ratio = read_baseline_ratio("results/bench_cache_baseline.json");
    let per_query = |s: &Side| {
        s.pages as f64 / s.stats.as_ref().map_or(1, |st| st.ok.max(1)) as f64
    };
    let ratio = per_query(&sides[1]) / per_query(&sides[0]);

    let mut report = Report::new(
        "bench_cache",
        "generation-keyed answer cache: skewed serving, cache on vs off",
        args.sf,
    );
    report.meta("fact rows", fact.len());
    report.meta("threads", threads);
    report.meta("skew", skew);
    report.meta("requests per side", total_requests);
    report.meta("baseline max pages/query ratio", baseline_ratio);

    let s = report.section(
        "serving",
        &["setting", "ok", "429", "errors", "qps", "p50 ms", "p99 ms", "pages", "pages/query"],
    );
    for side in &sides {
        let st = side.stats.as_ref().expect("ran");
        s.row(vec![
            side.label.to_string(),
            st.ok.to_string(),
            st.rejected.to_string(),
            st.errors.to_string(),
            format!("{:.1}", st.qps()),
            format!("{:.3}", st.percentile(50.0) * 1e3),
            format!("{:.3}", st.percentile(99.0) * 1e3),
            side.pages.to_string(),
            format!("{:.3}", per_query(side)),
        ]);
    }

    let s2 = report.section("cache", &["metric", "value"]);
    s2.row(vec!["cache.hits".into(), hits.to_string()]);
    s2.row(vec!["cache.misses".into(), misses.to_string()]);
    s2.row(vec!["hit rate".into(), format!("{hit_rate:.3}")]);
    s2.row(vec![
        "cache.inserts".into(),
        cache_counter(&sides[1], "cache.inserts").to_string(),
    ]);
    s2.row(vec![
        "cache.evictions".into(),
        cache_counter(&sides[1], "cache.evictions").to_string(),
    ]);
    s2.row(vec![
        "cache.invalidations".into(),
        cache_counter(&sides[1], "cache.invalidations").to_string(),
    ]);
    s2.row(vec![
        "cached / uncached pages per query".into(),
        fmt_ratio(per_query(&sides[1]), per_query(&sides[0])),
    ]);
    s2.row(vec!["probe mismatches".into(), mismatches.to_string()]);
    s2.row(vec!["within baseline".into(), (ratio <= baseline_ratio).to_string()]);

    let json = args.json.clone().unwrap_or_else(|| "BENCH_cache.json".into());
    report.emit(Some(&json));
    if let Some(path) = args.metrics.as_deref() {
        let docs: Vec<String> = sides
            .iter()
            .map(|side| {
                format!(
                    "{}: {}",
                    ct_server::json::escape(side.label),
                    side.engine.metrics_json()
                )
            })
            .collect();
        std::fs::write(path, format!("{{{}}}", docs.join(", "))).expect("write metrics");
        eprintln!("(metrics written to {path})");
    }

    let mut failed = false;
    for side in &sides {
        let st = side.stats.as_ref().expect("ran");
        if st.errors > 0 || st.ok == 0 {
            eprintln!(
                "regression: {} had {} errors, {} ok",
                side.label, st.errors, st.ok
            );
            failed = true;
        }
        assert!(side.cache || cache_counter(side, "cache.hits") == 0);
    }
    if mismatches > 0 {
        eprintln!("regression: {mismatches} cached answers differed from uncached");
        failed = true;
    }
    if hits == 0 {
        eprintln!("regression: cache recorded zero hits under skew {skew}");
        failed = true;
    }
    if ratio > baseline_ratio {
        eprintln!(
            "regression: cache-on read {:.3} pages/query vs {:.3} cache-off \
             (ratio {:.3} > baseline {baseline_ratio:.3})",
            per_query(&sides[1]),
            per_query(&sides[0]),
            ratio
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// Reads `max_cached_pages_per_query_ratio` from the checked-in baseline,
/// falling back to 1.0 (a cache must never cost pages) if the file is
/// missing or unparsable.
fn read_baseline_ratio(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| doc.get("max_cached_pages_per_query_ratio")?.as_f64())
        .unwrap_or(1.0)
}
