//! What the benchmark runs and what it reports: the fixed sizes, the four
//! workloads and the two metric tables. `BENCHMARK.json` repeats the names
//! and units; a unit test keeps the two in step.

/// TPC-D scale factor of every workload (600,121 fact rows; the forest is
/// about 8,100 pages after the set-up's refresh). The driver's budget of 92
/// runs in 3420 s caps a run near 25 s, three set-ups included, which rules
/// out the SF 0.2 the issue sketched.
pub const SCALE_FACTOR: f64 = 0.1;
/// Buffer pool: 128 pages = 1 MiB, about 1.6 % of the forest, so the upper
/// tree levels stay resident and the leaves do not.
pub const POOL_PAGES: usize = 128;
/// Engine worker threads (= cores of the sandbox).
pub const THREADS: usize = 2;
/// Closed-loop clients, one keep-alive connection each (= cores).
pub const CLIENTS: usize = 2;
/// Untimed warm-up before the measured window.
pub const WARMUP_SECS: f64 = 4.0;
/// Set-ups per untraced run; `setup_s` and the load/refresh rates of the
/// serve workloads are medians over them.
pub const SETUPS: usize = 3;
/// Size of one refresh increment relative to the base fact table.
pub const REFRESH_FRAC: f64 = 0.10;
/// Successive refreshes per `bulk_load_refresh` cycle (paper Table 7).
pub const BULK_REFRESHES: usize = 8;
/// Share of `serve_zipf_hot` requests that are one-off point lookups on the
/// top view instead of draws from the hot pool: ad-hoc look-ups beside the
/// dashboards. Without them the window would read exactly zero pages, and a
/// metric that is 0 has no spread to bound; a tail of uniform slice queries
/// would make it a lottery instead (a few of those read hundreds of pages).
pub const ZIPF_COLD_TAIL: f64 = 0.02;
/// Rows per ingested batch. With 10 % of the requests ingesting, 256 rows
/// fill the compactor's 50,000-row threshold every two to three seconds, so
/// a 10 s window sees several merge-packs and not one or two.
pub const INGEST_ROWS: usize = 256;
/// Batches in the uncontended ingest pass after the window: 160 × 256 rows
/// stay below the compactor's threshold, so no merge-pack interferes.
pub const INGEST_PASS: usize = 160;
/// Direct `engine.query` calls timed after a `bulk_load_refresh` window.
pub const BULK_QUERIES: usize = 12_000;
/// HTTP answers compared with `engine.query()` after a serve window.
pub const VERIFY_HTTP: usize = 200;
/// Probe queries compared with the naive group-by after `bulk_load_refresh`.
pub const VERIFY_ORACLE: usize = 100;
/// Requests replayed per ladder rung.
pub const LADDER_REQUESTS: usize = 500;
/// Queries in each half of the delta-fold comparison.
pub const FOLD_QUERIES: usize = 200;

/// One workload: a traffic mix over the common set-up.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Zipf skew of the query stream (0 = uniform).
    pub skew: f64,
    /// Share of requests that are `POST /ingest`.
    pub ingest_frac: f64,
    /// No server: the window loads and refreshes instead of serving.
    pub bulk: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload { name: "serve_uniform_cold", skew: 0.0, ingest_frac: 0.0, bulk: false },
    Workload { name: "serve_zipf_hot", skew: 1.1, ingest_frac: 0.0, bulk: false },
    Workload { name: "serve_ingest_mix", skew: 0.0, ingest_frac: 0.10, bulk: false },
    Workload { name: "bulk_load_refresh", skew: 0.0, ingest_frac: 0.0, bulk: true },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// `(name, unit)` of every end-to-end metric, printed by `--trace 0`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("query_qps", "1/s"),
    ("pages_per_query", "count"),
    ("load_rows_per_s", "1/s"),
    ("refresh_rows_per_s", "1/s"),
    ("storage_bytes_per_fact_row", "B"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed by `--trace 1`.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("server.socket_us", "us"),
    ("server.http.parse_us", "us"),
    ("server.json.validate_us", "us"),
    ("server.routes.render_us", "us"),
    ("server.http.write_us", "us"),
    ("server.admission.wait_us", "us"),
    ("server.batch.size_mean", "count"),
    ("server.admission.rejected", "count"),
    ("server.cache.probe_us", "us"),
    ("server.cache.hit_rate", "ratio"),
    ("server.cache.invalidations", "count"),
    ("server.cache.evictions", "count"),
    ("server.cache.bytes", "B"),
    ("server.compactor.cycles", "count"),
    ("server.compactor.busy_s", "s"),
    ("core.engine.serve_us", "us"),
    ("core.pin_us", "us"),
    ("core.plan_us", "us"),
    ("core.exec_us", "us"),
    ("core.query.entries_per_row", "ratio"),
    ("core.sched.shared_scans", "count"),
    ("core.sched.reordered_frac", "ratio"),
    ("core.delta.fold_us", "us"),
    ("core.delta.resident_rows_max", "count"),
    ("core.delta.merged_frac", "ratio"),
    ("core.forest.build_s", "s"),
    ("core.forest.update_s", "s"),
    ("rtree.search_us", "us"),
    ("rtree.pages_per_search", "count"),
    ("rtree.pack_rows_per_s", "1/s"),
    ("rtree.merge_rows_per_s", "1/s"),
    ("rtree.bytes_per_entry", "B"),
    ("storage.pool.hit_rate", "ratio"),
    ("storage.pool.evictions", "count"),
    ("storage.reads_seq", "count"),
    ("storage.reads_rand", "count"),
    ("storage.prefetch.wasted_frac", "ratio"),
    ("storage.sim_io_s", "s"),
    ("storage.sort_rows_per_s", "1/s"),
    ("storage.writes", "count"),
    ("storage.write_amp", "ratio"),
    ("cube.compute_rows_per_s", "1/s"),
    ("tpcd.generate_s", "s"),
    ("client.query_p50_ms", "ms"),
    ("client.query_p95_ms", "ms"),
    ("client.ingest_p50_ms", "ms"),
    ("client.ingest_p95_ms", "ms"),
    ("client.ingest_rows_per_s", "1/s"),
    ("client.error_rate", "ratio"),
    ("ladder.http_us", "us"),
    ("ladder.dispatch_us", "us"),
    ("ladder.submit_us", "us"),
    ("ladder.pages_per_query", "count"),
    ("ladder.logical_pages_per_query", "count"),
    ("ladder.page_recon_diff", "count"),
    ("workload.client_busy_frac", "ratio"),
    ("workload.window_slice_spread", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use ct_server::json::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        let entries = doc.get(key).and_then(Json::as_array).expect("a list in BENCHMARK.json");
        let field = |e: &Json, f: &str| e.get(f).and_then(Json::as_str).unwrap_or("").to_string();
        entries.iter().map(|e| (field(e, "name"), field(e, "unit"))).collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn benchmark_json_names_what_the_code_measures() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
        let names: Vec<String> = listed(&doc, "workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name.to_string()));
    }
}
