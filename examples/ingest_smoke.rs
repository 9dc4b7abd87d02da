//! Ingest smoke: start a real ct-server on an ephemeral loopback port,
//! stream rows in through `POST /ingest`, and check the two promises the
//! delta tier makes: the rows are visible to the very next query *before*
//! any compaction (generation still 0), and after the background
//! compactor folds the tier into the packed trees the same query answers
//! bit-identically from the new generation. Exercised by ci.sh; exits
//! non-zero (panics) on any unexpected status or mismatched answer.
//!
//! Run with: `cargo run --release --example ingest_smoke`

use cubetrees_repro::server::compactor::IngestConfig;
use cubetrees_repro::server::{CtServer, ServerConfig};
use cubetrees_repro::workload::serving::HttpClient;
use cubetrees_repro::{
    AggFn, Catalog, CubetreeConfig, CubetreeEngine, Relation, RolapEngine, ViewDef,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Strip the leading `"generation": N` stamp so pre- and post-compaction
/// answers can be compared for bit-identity of the actual rows.
fn rows_part(text: &str) -> String {
    let at = text.find("\"columns\"").expect("answer has a columns field");
    text[at..].to_string()
}

fn main() {
    let mut catalog = Catalog::new();
    let partkey = catalog.add_attr("partkey", 20);
    let suppkey = catalog.add_attr("suppkey", 8);
    let views = vec![
        ViewDef::new(0, vec![partkey, suppkey], AggFn::Sum),
        ViewDef::new(1, vec![suppkey], AggFn::Sum),
    ];
    let mut keys = Vec::new();
    let mut quantities = Vec::new();
    let mut x: u64 = 7;
    for _ in 0..2_000 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        keys.extend_from_slice(&[x % 20 + 1, (x >> 13) % 8 + 1]);
        quantities.push(((x >> 29) % 30) as i64 + 1);
    }
    let fact = Relation::from_fact(vec![partkey, suppkey], keys, &quantities);
    let mut engine = CubetreeEngine::new(catalog, CubetreeConfig::new(views)).unwrap();
    engine.load(&fact).unwrap();

    // The row threshold is out of reach; only the age trigger fires, well
    // after the freshness probe below but quickly enough to watch here.
    let config = ServerConfig {
        ingest: IngestConfig { max_age: Duration::from_millis(400), ..IngestConfig::default() },
        ..ServerConfig::default()
    };
    let server = CtServer::start(Arc::new(engine), config).unwrap();
    let addr = server.addr().to_string();
    println!("serving on http://{addr}");
    let mut client = HttpClient::connect(&addr).unwrap();

    let probe = r#"{"group_by": ["suppkey"], "where": {"partkey": 3}}"#;
    let before = client.request("POST", "/query", probe).unwrap();
    assert_eq!(before.status, 200, "{}", before.text());
    println!("baseline     → {}", before.text());

    let ingest = client
        .request(
            "POST",
            "/ingest",
            r#"{"attrs": ["partkey", "suppkey"], "rows": [[3, 1, 100], [3, 2, 50]]}"#,
        )
        .unwrap();
    assert_eq!(ingest.status, 200, "{}", ingest.text());
    assert!(ingest.text().contains("\"accepted_rows\": 2"), "{}", ingest.text());
    assert!(ingest.text().contains("\"generation\": 0"), "{}", ingest.text());
    println!("ingest       → {}", ingest.text());

    // Freshness: the very next query sees the rows with no merge-pack run.
    let fresh = client.request("POST", "/query", probe).unwrap();
    assert_eq!(fresh.status, 200, "{}", fresh.text());
    assert!(fresh.text().contains("\"generation\": 0"), "{}", fresh.text());
    assert_ne!(rows_part(&fresh.text()), rows_part(&before.text()), "ingested rows invisible");
    println!("pre-compact  → {}", fresh.text());

    // Wait for the age threshold to trip and the compactor to publish.
    let deadline = Instant::now() + Duration::from_secs(10);
    let compacted = loop {
        let health = client.request("GET", "/healthz", "").unwrap();
        assert_eq!(health.status, 200, "{}", health.text());
        if !health.text().contains("\"generation\": 0") {
            break client.request("POST", "/query", probe).unwrap();
        }
        assert!(Instant::now() < deadline, "compactor never published a generation");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(compacted.status, 200, "{}", compacted.text());
    assert!(compacted.text().contains("\"generation\": 1"), "{}", compacted.text());
    assert_eq!(
        rows_part(&compacted.text()),
        rows_part(&fresh.text()),
        "post-compaction answer must be bit-identical to the delta-merged one"
    );
    println!("post-compact → {}", compacted.text());

    server.join();
    println!("clean shutdown");
}
