//! Streaming ingestion under concurrency, end to end over HTTP.
//!
//! Writers hammer `POST /ingest`, readers hammer `POST /query`, and the
//! background compactor merge-packs generations underneath both. Pinned
//! invariants:
//!
//! * **Zero 5xx** — ingest may answer `429` (backpressure) but nothing on
//!   either path may fail as a server error, no matter how ingest, query
//!   and compaction interleave.
//! * **Monotonic visibility** — with strictly positive measures the grand
//!   total (scalar SUM) observed by any reader never decreases: rows enter
//!   exactly once (delta → tree hand-off is atomic) and are never lost or
//!   double-counted mid-compaction.
//! * **Snapshot-consistent generations** — every response carries the
//!   generation it answered from, and generations only move forward.
//! * **Drain on shutdown** — after the server stops, the delta tier is
//!   empty and the engine's grand total equals exactly the sum of every
//!   acknowledged ingest (`200`s count, refused `429`s do not).

use cubetrees_repro::server::compactor::IngestConfig;
use cubetrees_repro::server::json::Json;
use cubetrees_repro::server::{CtServer, ServerConfig};
use cubetrees_repro::workload::serving::HttpClient;
use cubetrees_repro::{
    AggFn, Catalog, CubetreeConfig, CubetreeEngine, Relation, RolapEngine, SliceQuery, ViewDef,
};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WRITERS: usize = 3;
const READERS: usize = 3;
const BATCHES_PER_WRITER: usize = 40;
const ROWS_PER_BATCH: usize = 5;

fn build_engine() -> Arc<CubetreeEngine> {
    let mut catalog = Catalog::new();
    let p = catalog.add_attr("partkey", 12);
    let s = catalog.add_attr("suppkey", 7);
    let views = vec![
        ViewDef::new(0, vec![p, s], AggFn::Sum),
        ViewDef::new(1, vec![s], AggFn::Sum),
    ];
    let mut engine = CubetreeEngine::new(catalog, CubetreeConfig::new(views)).unwrap();
    engine
        .load(&Relation::from_fact(vec![p, s], vec![1, 1, 2, 2], &[100, 200]))
        .unwrap();
    Arc::new(engine)
}

/// Deterministic per-writer row stream with strictly positive measures.
fn batch_body(writer: usize, batch: usize) -> (String, i64) {
    let mut x = (writer as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(batch as u64);
    let mut rows = Vec::new();
    let mut total = 0i64;
    for _ in 0..ROWS_PER_BATCH {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let p = x % 12 + 1;
        let s = (x >> 17) % 7 + 1;
        let m = ((x >> 37) % 50) as i64 + 1;
        total += m;
        rows.push(format!("[{p}, {s}, {m}]"));
    }
    (
        format!("{{\"attrs\": [\"partkey\", \"suppkey\"], \"rows\": [{}]}}", rows.join(", ")),
        total,
    )
}

#[test]
fn concurrent_ingest_query_compaction_zero_5xx_and_exact_drain() {
    let engine = build_engine();
    let base_total: i64 = 300;
    let config = ServerConfig {
        // Low thresholds so compactions really interleave with the
        // ingest/query traffic.
        ingest: IngestConfig { max_rows: 40, max_age: Duration::from_millis(50) },
        ..ServerConfig::default()
    };
    let server = CtServer::start(engine.clone(), config).unwrap();
    let addr = server.addr().to_string();

    let acknowledged = AtomicI64::new(0); // sum of measures in 200-acked batches
    let refused = AtomicU64::new(0);
    let server_errors = AtomicU64::new(0);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (addr, acknowledged, refused, server_errors) =
                (&addr, &acknowledged, &refused, &server_errors);
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for b in 0..BATCHES_PER_WRITER {
                    let (body, total) = batch_body(w, b);
                    let reply = client.request("POST", "/ingest", &body).unwrap();
                    match reply.status {
                        200 => {
                            acknowledged.fetch_add(total, Ordering::SeqCst);
                        }
                        429 => {
                            refused.fetch_add(1, Ordering::SeqCst);
                            // Honor the advertised backoff (bounded).
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        s if s >= 500 => {
                            server_errors.fetch_add(1, Ordering::SeqCst);
                        }
                        s => panic!("unexpected ingest status {s}: {}", reply.text()),
                    }
                }
            });
        }
        for _ in 0..READERS {
            let (addr, done, server_errors, acknowledged) =
                (&addr, &done, &server_errors, &acknowledged);
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                let mut last_total = -1.0f64;
                let mut last_generation = 0u64;
                while !done.load(Ordering::SeqCst) {
                    // Acknowledged-before-query is a visibility floor: those
                    // rows must already be readable (read-your-writes across
                    // clients is stronger than needed, but holds because
                    // ingest publishes under the same lock queries pin).
                    let floor = acknowledged.load(Ordering::SeqCst);
                    let reply = client
                        .request("POST", "/query", r#"{"group_by": ["suppkey"]}"#)
                        .unwrap();
                    if reply.status >= 500 {
                        server_errors.fetch_add(1, Ordering::SeqCst);
                        continue;
                    }
                    assert_eq!(reply.status, 200, "{}", reply.text());
                    let doc = Json::parse(&reply.text()).unwrap();
                    let generation =
                        doc.get("generation").and_then(Json::as_u64).expect("generation");
                    assert!(
                        generation >= last_generation,
                        "generation went backwards: {last_generation} -> {generation}"
                    );
                    last_generation = generation;
                    let total: f64 = doc
                        .get("rows")
                        .and_then(Json::as_array)
                        .expect("rows")
                        .iter()
                        .map(|r| r.as_array().unwrap().last().unwrap().as_f64().unwrap())
                        .sum();
                    assert!(
                        total >= last_total,
                        "grand total decreased: {last_total} -> {total} \
                         (rows lost or double-counted during compaction)"
                    );
                    assert!(
                        total >= (base_total + floor) as f64,
                        "acknowledged rows not visible: total {total} < floor {}",
                        base_total + floor
                    );
                    last_total = total;
                }
            });
        }
        // Writers finish first; then let readers observe the quiesced state
        // briefly before stopping them.
        while acknowledged.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // (scope joins writers when their closures return; readers poll
        // until `done`.)
        std::thread::sleep(Duration::from_millis(100));
        done.store(true, Ordering::SeqCst);
    });

    assert_eq!(server_errors.load(Ordering::SeqCst), 0, "no 5xx on any path");

    // Shutdown drains the delta tier into the packed trees.
    server.join();
    let stats = engine.delta_stats().unwrap();
    assert_eq!(stats.resident_rows(), 0, "shutdown drain leaves nothing resident");

    // Exactness: the engine's grand total equals base + every acknowledged
    // batch, no more, no less — refused batches contributed nothing.
    let rows = engine.query(&SliceQuery::new(vec![], vec![])).unwrap();
    let expect = base_total + acknowledged.load(Ordering::SeqCst);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].agg, expect as f64, "drained total is exact");

    // The run must have actually exercised background compaction.
    assert!(
        engine.forest().unwrap().generation_number() >= 1,
        "no compaction ever ran — thresholds too high for the traffic"
    );
    let _ = refused.load(Ordering::SeqCst); // informational only
}
