//! End-to-end contract of the HTTP serving layer.
//!
//! Three properties pinned over a real server on loopback:
//!
//! 1. **Robust validation** — malformed JSON, unknown attributes,
//!    out-of-domain values, grouped-and-sliced overlap and underivable
//!    group-by sets all come back as 4xx, and the server keeps serving.
//! 2. **Bit-identical answers** — rows served over HTTP (JSON *and* CSV,
//!    through admission and the answer cache) equal the engine's sequential
//!    `query()` answers exactly, including every `f64` bit (Rust's float
//!    formatting is shortest-round-trip, so the wire is lossless).
//! 3. **Snapshot consistency under refresh** — while clients hammer the
//!    query path, `POST /refresh` merge-packs new generations; every
//!    response's stamped generation must match that generation's exact
//!    answer, and the query path must never see a 5xx.

use cubetrees_repro::common::query::{normalize_rows, QueryRow};
use cubetrees_repro::server::json::Json;
use cubetrees_repro::server::{CtServer, ServerConfig};
use cubetrees_repro::workload::serving::{query_body, HttpClient};
use cubetrees_repro::{
    AggFn, Catalog, CubetreeConfig, CubetreeEngine, Relation, RolapEngine, SliceQuery, ViewDef,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A small deterministic warehouse: 3 attributes, 2 views, 300 rows.
fn build_engine(threads: usize) -> (Arc<CubetreeEngine>, Vec<cubetrees_repro::common::AttrId>) {
    let mut catalog = Catalog::new();
    let p = catalog.add_attr("partkey", 12);
    let s = catalog.add_attr("suppkey", 7);
    let t = catalog.add_attr("timekey", 5);
    let views = vec![
        ViewDef::new(0, vec![p, s, t], AggFn::Sum),
        ViewDef::new(1, vec![p, s], AggFn::Sum),
        ViewDef::new(2, vec![t], AggFn::Sum),
    ];
    let mut keys = Vec::new();
    let mut measures = Vec::new();
    let mut x = 0xC0FFEEu64;
    for _ in 0..300 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        keys.extend_from_slice(&[x % 12 + 1, (x >> 17) % 7 + 1, (x >> 37) % 5 + 1]);
        measures.push(((x >> 51) % 100) as i64 - 20);
    }
    let fact = Relation::from_fact(vec![p, s, t], keys, &measures);
    let mut engine = CubetreeEngine::new(
        catalog,
        CubetreeConfig::new(views).with_threads(threads),
    )
    .unwrap();
    engine.load(&fact).unwrap();
    (Arc::new(engine), vec![p, s, t])
}

/// Parses a `POST /query` JSON answer into `(generation, rows)`.
fn parse_answer(text: &str) -> (u64, Vec<QueryRow>) {
    let doc = Json::parse(text).unwrap_or_else(|e| panic!("bad answer {text:?}: {e}"));
    let generation = doc.get("generation").and_then(Json::as_u64).expect("generation");
    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .expect("rows")
        .iter()
        .map(|row| {
            let cells = row.as_array().expect("row array");
            let (key, agg) = cells.split_at(cells.len() - 1);
            QueryRow {
                key: key.iter().map(|c| c.as_u64().expect("key")).collect(),
                agg: agg[0].as_f64().expect("agg"),
            }
        })
        .collect();
    (generation, rows)
}

#[test]
fn validation_errors_return_4xx_and_server_survives() {
    let (engine, _) = build_engine(1);
    let server = CtServer::start(engine, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let mut client = HttpClient::connect(&addr).unwrap();
    for (body, why) in [
        ("{ not json", "malformed JSON"),
        (r#"{"group_by": ["bogus_attr"]}"#, "unknown attribute"),
        (r#"{"group_by": ["partkey"], "where": {"partkey": 1}}"#, "overlap"),
        (r#"{"where": {"suppkey": 999}}"#, "out of domain"),
        (r#"{"group_by": ["partkey", "nope"]}"#, "unknown in list"),
        ("{}", "empty query"),
    ] {
        let reply = client.request("POST", "/query", body).unwrap();
        assert!(
            (400..500).contains(&reply.status),
            "{why}: wanted 4xx, got {} for {body:?}: {}",
            reply.status,
            reply.text()
        );
        let err = Json::parse(&reply.text()).expect("error body is JSON");
        assert!(err.get("error").is_some(), "{why}: error body names the problem");
    }
    // Underivable group-by (no view covers timekey+partkey... actually the
    // top view covers everything; exercise the planner 400 by querying an
    // engine whose views cannot derive the node).
    let mut catalog = Catalog::new();
    let p = catalog.add_attr("partkey", 6);
    let s = catalog.add_attr("suppkey", 4);
    let views = vec![ViewDef::new(0, vec![s], AggFn::Sum)];
    let mut narrow = CubetreeEngine::new(catalog, CubetreeConfig::new(views)).unwrap();
    narrow.load(&Relation::from_fact(vec![p, s], vec![1, 1, 2, 2], &[5, 6])).unwrap();
    let narrow_server = CtServer::start(Arc::new(narrow), ServerConfig::default()).unwrap();
    let mut narrow_client = HttpClient::connect(&narrow_server.addr().to_string()).unwrap();
    let reply =
        narrow_client.request("POST", "/query", r#"{"group_by": ["partkey"]}"#).unwrap();
    assert_eq!(reply.status, 400, "underivable arity: {}", reply.text());
    assert!(reply.text().contains("no materialized view"), "{}", reply.text());
    narrow_server.join();

    // The original server kept serving through all the bad input.
    let reply = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(reply.status, 200);
    server.join();
}

#[test]
fn loopback_answers_are_bit_identical_to_sequential_query() {
    // threads=2: the thread budget must not change what the served path
    // answers; the reference answers use the engine's query() directly.
    let (engine, attrs) = build_engine(2);
    let server = CtServer::start(engine.clone(), ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let (p, s, t) = (attrs[0], attrs[1], attrs[2]);
    let queries = vec![
        SliceQuery::new(vec![p, s], vec![(t, 1)]),
        SliceQuery::new(vec![s], vec![(p, 3)]),
        SliceQuery::new(vec![t], vec![]),
        SliceQuery::new(vec![p], vec![(s, 2), (t, 4)]),
        SliceQuery::new(vec![s, t], vec![]).with_range(p, 2, 9),
    ];
    // Several clients in parallel, so requests contend for the execution
    // mutex.
    std::thread::scope(|scope| {
        for client_id in 0..4 {
            let addr = &addr;
            let engine = &engine;
            let queries = &queries;
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for (i, q) in queries.iter().enumerate() {
                    let body = query_body(engine.catalog(), q, false);
                    let reply = client.request("POST", "/query", &body).unwrap();
                    assert_eq!(reply.status, 200, "client {client_id} q{i}: {}", reply.text());
                    let (generation, served) = parse_answer(&reply.text());
                    assert_eq!(generation, 0);
                    let expected = normalize_rows(engine.query(q).unwrap());
                    assert_eq!(served, expected, "client {client_id} query {i} diverged");
                }
            });
        }
    });
    // CSV path: same rows, rendered as text, generation in a header.
    let mut client = HttpClient::connect(&addr).unwrap();
    let q = &queries[1];
    let body = query_body(engine.catalog(), q, true);
    let reply = client.request("POST", "/query", &body).unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("content-type"), Some("text/csv"));
    assert_eq!(reply.header("x-generation"), Some("0"));
    let text = reply.text();
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("suppkey,agg"));
    let expected = normalize_rows(engine.query(q).unwrap());
    let served: Vec<QueryRow> = lines
        .map(|line| {
            let mut cells = line.split(',');
            let key = vec![cells.next().unwrap().parse().unwrap()];
            let agg: f64 = cells.next().unwrap().parse().unwrap();
            assert!(cells.next().is_none());
            QueryRow { key, agg }
        })
        .collect();
    assert_eq!(served, expected, "CSV answer diverged");
    server.join();
}

#[test]
fn refresh_during_queries_is_snapshot_consistent() {
    let (engine, attrs) = build_engine(2);
    let server = CtServer::start(engine.clone(), ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let (p, s) = (attrs[0], attrs[1]);
    let probe = SliceQuery::new(vec![s], vec![(p, 1)]);
    let probe_body = query_body(engine.catalog(), &probe, false);

    // Reference answers per committed generation, computed engine-side.
    // Generation g exists exactly after g refreshes (load produces 0).
    let mut expected: BTreeMap<u64, Vec<QueryRow>> = BTreeMap::new();
    expected.insert(0, normalize_rows(engine.query(&probe).unwrap()));

    let refreshes = 4usize;
    let done = std::sync::atomic::AtomicBool::new(false);
    let observed: std::sync::Mutex<Vec<(u64, Vec<QueryRow>)>> =
        std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let addr = &addr;
            let done = &done;
            let observed = &observed;
            let probe_body = &probe_body;
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    let reply = client.request("POST", "/query", probe_body).unwrap();
                    assert!(
                        reply.status < 500,
                        "query path saw a 5xx during refresh: {} {}",
                        reply.status,
                        reply.text()
                    );
                    if reply.status == 200 {
                        observed.lock().unwrap().push(parse_answer(&reply.text()));
                    }
                }
            });
        }

        let mut writer = HttpClient::connect(&addr).unwrap();
        let mut x = 0xBEEFu64;
        for round in 0..refreshes {
            let mut rows = Vec::new();
            for _ in 0..40 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                rows.push(format!(
                    "[{}, {}, {}, {}]",
                    x % 12 + 1,
                    (x >> 17) % 7 + 1,
                    (x >> 37) % 5 + 1,
                    (x >> 51) % 50
                ));
            }
            let body = format!(
                "{{\"attrs\": [\"partkey\", \"suppkey\", \"timekey\"], \"rows\": [{}]}}",
                rows.join(", ")
            );
            let reply = writer.request("POST", "/refresh", &body).unwrap();
            assert_eq!(reply.status, 200, "refresh {round}: {}", reply.text());
            let doc = Json::parse(&reply.text()).unwrap();
            let generation = doc.get("generation").and_then(Json::as_u64).unwrap();
            assert_eq!(generation, round as u64 + 1);
            assert_eq!(doc.get("applied_rows").and_then(Json::as_u64), Some(40));
            // The refresh response means generation `round+1` is current:
            // record its exact answer before the next refresh starts (the
            // writer is the only thread issuing refreshes).
            expected.insert(generation, normalize_rows(engine.query(&probe).unwrap()));
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    let observed = observed.into_inner().unwrap();
    assert!(!observed.is_empty(), "readers never got an answer");
    let mut generations_seen = std::collections::BTreeSet::new();
    for (generation, rows) in &observed {
        let reference = expected.get(generation).unwrap_or_else(|| {
            panic!("response stamped with unknown generation {generation}")
        });
        assert_eq!(
            rows, reference,
            "generation {generation} answer diverged from its snapshot"
        );
        generations_seen.insert(*generation);
    }
    // The run actually exercised MVCC: answers from more than one
    // generation were served.
    assert!(
        generations_seen.len() > 1 || observed.len() < 4,
        "all {} answers came from one generation: {generations_seen:?}",
        observed.len()
    );
    server.join();
}

#[test]
fn overload_returns_429_with_retry_after() {
    let (engine, attrs) = build_engine(1);
    let mut config = ServerConfig::default();
    // No query may be in flight, so every /query is refused — the bound is
    // exercised without having to make requests collide. (The unit tests in
    // `admission.rs` park real submitters to check a non-zero bound.)
    config.admission.max_depth = 0;
    let server = CtServer::start(engine.clone(), config).unwrap();
    let body = query_body(
        engine.catalog(),
        &SliceQuery::new(vec![attrs[1]], vec![(attrs[0], 1)]),
        false,
    );
    let mut client = HttpClient::connect(&server.addr().to_string()).unwrap();
    for _ in 0..3 {
        let reply = client.request("POST", "/query", &body).unwrap();
        assert_eq!(reply.status, 429, "{}", String::from_utf8_lossy(&reply.body));
        assert_eq!(reply.header("retry-after"), Some("1"), "429 carries Retry-After");
    }
    // Refusing queries does not wedge the rest of the server.
    assert_eq!(client.request("GET", "/healthz", "").unwrap().status, 200);
    server.join();
}
