//! Deterministic request streams, one per client: the same seed gives the
//! same requests. The mix follows `ct_workload::serving` (half the queries
//! drill into the top lattice node, a quarter ask for CSV); the queries, the
//! mix decisions and the ingested rows each draw from a generator of their
//! own.

use ct_common::{AttrId, Catalog, SliceQuery};
use ct_tpcd::TpcdWarehouse;
use ct_workload::serving::query_body;
use ct_workload::QueryGenerator;

use crate::spec::{Workload, INGEST_ROWS, ZIPF_COLD_TAIL};

const DRILLDOWN_FRAC: f64 = 0.5;
const CSV_FRAC: f64 = 0.25;

/// One request of a stream.
pub enum Request {
    Query { query: SliceQuery, body: String },
    Ingest { body: String, measure: i64 },
}

impl Request {
    pub fn path(&self) -> &'static str {
        match self {
            Request::Query { .. } => "/query",
            Request::Ingest { .. } => "/ingest",
        }
    }

    pub fn body(&self) -> &str {
        match self {
            Request::Query { body, .. } | Request::Ingest { body, .. } => body,
        }
    }
}

/// Seed of the hot pools of `serve_zipf_hot` (client `i` uses `+ i`).
const HOT_POOL_SEED: u64 = 0x5EED_CAFE;

/// The SplitMix64 finaliser: spreads nearby seeds over the whole state space.
fn splitmix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn unit(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// What a client draws from its stream.
#[derive(Clone, Copy)]
pub enum Draw {
    /// The workload's mix of queries and ingests.
    Mix,
    Queries,
    Ingests,
}

pub struct Stream<'a> {
    catalog: &'a Catalog,
    fact_attrs: [AttrId; 4],
    /// Uniform draws over the lattice at skew 0, Zipf draws over the hot
    /// pools otherwise.
    generator: QueryGenerator,
    skewed: bool,
    ingest_frac: f64,
    mix: u64,
    ingest_rng: u64,
}

impl<'a> Stream<'a> {
    pub fn new(warehouse: &'a TpcdWarehouse, workload: Workload, seed: u64, client: usize) -> Self {
        let a = warehouse.attrs();
        let base = vec![a.partkey, a.suppkey, a.custkey];
        let catalog = warehouse.catalog();
        // Every random source of every client gets a state of its own.
        let state = |salt: u64| splitmix(seed ^ splitmix(salt ^ client as u64)) | 1;
        // The hot pools are the dashboards: part of the workload, like the
        // view set, so they are the same for every seed. A handful of
        // queries carry a quarter of a Zipf stream, and drawing them anew per
        // seed would let their answer sizes decide the run.
        let generator_seed =
            if workload.skew > 0.0 { HOT_POOL_SEED + client as u64 } else { state(1) };
        Stream {
            catalog,
            fact_attrs: [a.partkey, a.suppkey, a.custkey, a.timekey],
            generator: QueryGenerator::new(catalog, base, generator_seed).with_skew(workload.skew),
            skewed: workload.skew > 0.0,
            ingest_frac: workload.ingest_frac,
            mix: state(2),
            ingest_rng: state(3),
        }
    }

    pub fn draw(&mut self, draw: Draw) -> Request {
        match draw {
            Draw::Mix => self.next_request(),
            Draw::Queries => self.next_query(),
            Draw::Ingests => self.next_ingest(),
        }
    }

    /// The next request of the workload's mix.
    pub fn next_request(&mut self) -> Request {
        if self.ingest_frac > 0.0 && unit(&mut self.mix) < self.ingest_frac {
            self.next_ingest()
        } else {
            self.next_query()
        }
    }

    /// The next query of the stream (never an ingest).
    pub fn next_query(&mut self) -> Request {
        let query = if self.skewed && unit(&mut self.mix) < ZIPF_COLD_TAIL {
            // A one-off point lookup on the top view, never seen before and
            // never again: the cache's doorkeeper must keep it out.
            let pins = self.fact_attrs[..3]
                .iter()
                .map(|a| (*a, xorshift(&mut self.mix) % self.catalog.attr(*a).cardinality + 1))
                .collect();
            SliceQuery::new(vec![], pins)
        } else if unit(&mut self.mix) < DRILLDOWN_FRAC {
            self.generator.next_query_on(0b111)
        } else {
            self.generator.next_query()
        };
        let csv = unit(&mut self.mix) < CSV_FRAC;
        let body = query_body(self.catalog, &query, csv);
        Request::Query { query, body }
    }

    /// A batch of fresh fact rows: keys uniform over each attribute's
    /// domain, measures in `1..=50`.
    pub fn next_ingest(&mut self) -> Request {
        let mut keys = Vec::with_capacity(INGEST_ROWS * 4);
        let mut measures = Vec::with_capacity(INGEST_ROWS);
        for _ in 0..INGEST_ROWS {
            for a in self.fact_attrs {
                let card = self.catalog.attr(a).cardinality;
                keys.push(xorshift(&mut self.ingest_rng) % card + 1);
            }
            measures.push((xorshift(&mut self.ingest_rng) % 50 + 1) as i64);
        }
        let names: Vec<String> =
            self.fact_attrs.iter().map(|a| format!("\"{}\"", self.catalog.attr(*a).name)).collect();
        let rows: Vec<String> = keys
            .chunks(4)
            .zip(&measures)
            .map(|(k, m)| format!("[{}, {}, {}, {}, {m}]", k[0], k[1], k[2], k[3]))
            .collect();
        let body =
            format!("{{\"attrs\": [{}], \"rows\": [{}]}}", names.join(", "), rows.join(", "));
        Request::Ingest { body, measure: measures.iter().sum() }
    }
}
