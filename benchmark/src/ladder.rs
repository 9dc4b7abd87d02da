//! The traced ladder: one client replays the same request prefix once per
//! rung, each rung entering the system one public entry point lower, so a
//! layer's own time is its rung minus the rung below.
//!
//! | rung | entry point |
//! |---|---|
//! | R0 | `HttpClient::request` against the running server |
//! | R1 | `read_request` + `routes::dispatch` + `Response::write` into a `Vec` |
//! | R2 | `validate_query_request` + `Admission::submit` + `recv` |
//! | R3 | `ServingEngine::serve_batch(&[q])` |
//! | R4 | `pin_with_delta` + `plan_generation_query` + `execute_planned_query_partial` |
//! | R5 | `PackedRTree::search` on the planned placement |
//!
//! R1 and R2 run against a fresh `Admission` with its own answer cache that
//! has seen the prefix exactly once, as the server's cache has after the
//! warm-up, so a rung hits and misses the cache where R0 does.

use std::sync::{Arc, Mutex};

use ct_common::{Catalog, Rect, SliceQuery, ViewDef, COORD_MAX};
use ct_obs::Recorder;
use ct_server::admission::{Admission, AdmissionConfig};
use ct_server::cache::{AnswerCache, CacheConfig};
use ct_server::compactor::IngestConfig;
use ct_server::http::{read_request, Request as HttpRequest};
use ct_server::routes;
use ct_storage::IoSnapshot;
use ct_workload::serving::HttpClient;
use cubetree::engine::RolapEngine;
use cubetree::query::{execute_planned_query_partial, plan_generation_query};
use cubetree::ServingEngine;

use crate::setup::Stack;
use crate::spec::Workload;
use crate::stats::median;
use crate::stream::{Request, Stream};
use crate::trace::Tracer;

/// Per-request microseconds of every span of the ladder, indexed by request.
#[derive(Default)]
pub struct Ladder {
    pub http: Vec<f64>,
    pub parse: Vec<f64>,
    pub dispatch: Vec<f64>,
    pub write: Vec<f64>,
    pub validate: Vec<f64>,
    pub submit: Vec<f64>,
    /// Whether the R2 submit was answered by the answer cache.
    pub cache_hit: Vec<bool>,
    pub serve: Vec<f64>,
    pub pin: Vec<f64>,
    pub plan: Vec<f64>,
    pub exec: Vec<f64>,
    pub search: Vec<f64>,
    pub probe: Vec<f64>,
    /// Page I/O of rungs R0..R5, in order.
    pub io: Vec<IoSnapshot>,
    /// Entries the R5 searches touched and rows the R3 answers returned.
    pub touched_entries: u64,
    pub rows_returned: u64,
}

/// The search region of `q` over a placement: predicates pin their axis,
/// open attributes span the domain, padding axes pin to 0 (paper Figure 4).
/// `cubetree::query` keeps its copy private, so the R5 rung restates it.
fn query_region(def: &ViewDef, dims: usize, q: &SliceQuery) -> Rect {
    let mut lo = vec![0u64; dims];
    let mut hi = vec![0u64; dims];
    for (axis, attr) in def.projection.iter().enumerate() {
        (lo[axis], hi[axis]) = match q.range_of(*attr) {
            Some((l, h)) => (l.max(1), h.min(COORD_MAX)),
            None => (1, COORD_MAX),
        };
    }
    Rect::new(&lo, &hi)
}

struct Prefix {
    query: SliceQuery,
    body: String,
    /// The request as `HttpClient::request` puts it on the wire.
    wire: Vec<u8>,
}

fn prefix(stack: &Stack, workload: Workload, seed: u64, n: usize) -> Vec<Prefix> {
    let mut stream = Stream::new(&stack.data.warehouse, workload, seed, 0);
    (0..n)
        .map(|_| {
            let Request::Query { query, body } = stream.next_query() else { unreachable!() };
            let wire = format!(
                "POST /query HTTP/1.1\r\nhost: ct-server\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes();
            Prefix { query, body, wire }
        })
        .collect()
}

/// A bench-owned admission queue whose cache has seen the prefix once.
fn warmed_admission(engine: &Arc<dyn ServingEngine>, requests: &[Prefix]) -> Admission {
    let cache = AnswerCache::from_config(&CacheConfig::default(), engine.recorder());
    let admission = Admission::start(Arc::clone(engine), AdmissionConfig::default(), cache);
    for r in requests {
        submit(&admission, r.query.clone());
    }
    admission
}

fn submit(admission: &Admission, query: SliceQuery) {
    let answer = admission.submit(query).expect("idle admission queue").recv();
    assert!(matches!(answer, Ok(Ok(_))), "ladder query failed in the admission path");
}

/// Replays the first `n` queries of client 0's stream down the ladder.
pub fn run(
    addr: &str,
    stack: &Stack,
    workload: Workload,
    seed: u64,
    n: usize,
    tracer: &mut Tracer,
) -> Ladder {
    let requests = prefix(stack, workload, seed, n);
    let engine: Arc<dyn ServingEngine> = stack.engine.clone();
    let concrete = &*stack.engine;
    let catalog: &Catalog = RolapEngine::catalog(concrete);
    let forest = concrete.forest().expect("loaded engine");
    let env = concrete.env();
    let recorder = engine.recorder().clone();
    let cache_hits = recorder.counter("cache.hits");
    let mut out = Ladder::default();
    let rung_io = |out: &mut Ladder, before: IoSnapshot| {
        out.io.push(engine.io_snapshot().since(&before));
    };

    // The same warm-up before the first rung as every later rung gets from
    // its predecessor: one full replay through the engine.
    for r in &requests {
        engine.serve_batch(std::slice::from_ref(&r.query));
    }

    // R0: the whole request over the socket.
    let before = engine.io_snapshot();
    let mut conn = HttpClient::connect(addr).expect("connect to the server");
    for (i, r) in requests.iter().enumerate() {
        let (reply, us) =
            tracer.time("R0.http", "ladder", i as u64, || conn.request("POST", "/query", &r.body));
        assert_eq!(reply.expect("ladder request").status, 200, "ladder request refused");
        out.http.push(us);
    }
    rung_io(&mut out, before);

    // R1: parse, dispatch and serialise without the socket.
    let refresh_lock = Mutex::new(());
    let ingest = IngestConfig::default();
    let admission = warmed_admission(&engine, &requests);
    let before = engine.io_snapshot();
    let mut sink = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        let i = i as u64;
        let (parsed, us) = tracer.time("R1.parse", "R0.http", i, || read_request(&mut &r.wire[..]));
        out.parse.push(us);
        let parsed = parsed.ok().flatten().expect("ladder request parses");
        let (response, us) = tracer.time("R1.dispatch", "R0.http", i, || {
            routes::dispatch(&*engine, &admission, &refresh_lock, &ingest, &parsed)
        });
        out.dispatch.push(us);
        assert_eq!(response.status, 200, "ladder dispatch refused");
        sink.clear();
        let (_, us) = tracer.time("R1.write", "R0.http", i, || response.write(&mut sink, true));
        out.write.push(us);
    }
    rung_io(&mut out, before);
    admission.shutdown();

    // R2: validation and the admission hand-off.
    let admission = warmed_admission(&engine, &requests);
    let before = engine.io_snapshot();
    for (i, r) in requests.iter().enumerate() {
        let i = i as u64;
        let parsed = HttpRequest {
            method: "POST".into(),
            path: "/query".into(),
            query_string: String::new(),
            headers: Vec::new(),
            body: r.body.clone().into_bytes(),
        };
        let (validated, us) = tracer.time("R2.validate", "R1.dispatch", i, || {
            routes::validate_query_request(&*engine, &parsed)
        });
        out.validate.push(us);
        let query = validated.expect("ladder request validates").query;
        let hits_before = cache_hits.get();
        let (_, us) = tracer.time("R2.submit", "R1.dispatch", i, || submit(&admission, query));
        out.submit.push(us);
        out.cache_hit.push(cache_hits.get() > hits_before);
    }
    rung_io(&mut out, before);
    admission.shutdown();

    // R3: the engine's batch entry point, one query per batch.
    let probe_cache = AnswerCache::from_config(&CacheConfig::default(), &Recorder::disabled())
        .expect("default cache is enabled");
    let before = engine.io_snapshot();
    for (i, r) in requests.iter().enumerate() {
        let ((_, mut answers), us) = tracer.time("R3.serve_batch", "R2.submit", i as u64, || {
            engine.serve_batch(std::slice::from_ref(&r.query))
        });
        out.serve.push(us);
        let served = answers.pop().expect("one answer").expect("ladder query serves");
        out.rows_returned += served.rows.len() as u64;
        probe_cache.populate(r.query.cache_key(), served.stamps, Arc::new(served.rows));
    }
    rung_io(&mut out, before);

    // R4: pin, plan and execute as separate calls.
    let before = engine.io_snapshot();
    for (i, r) in requests.iter().enumerate() {
        let i = i as u64;
        let ((pin, delta), us) =
            tracer.time("R4.pin", "R3.serve_batch", i, || forest.pin_with_delta());
        out.pin.push(us);
        let (plan, us) = tracer.time("R4.plan", "R3.serve_batch", i, || {
            plan_generation_query(&pin, catalog, &r.query)
        });
        out.plan.push(us);
        let plan = plan.expect("ladder query plans");
        let (rows, us) = tracer.time("R4.exec", "R3.serve_batch", i, || {
            execute_planned_query_partial(&pin, delta.as_option(), env, catalog, &r.query, &plan)
                .map(|partial| partial.finish())
        });
        out.exec.push(us);
        rows.expect("ladder query executes");
    }
    rung_io(&mut out, before);

    // R5: the R-tree descent alone.
    let before = engine.io_snapshot();
    let pin = forest.pin();
    for (i, r) in requests.iter().enumerate() {
        let plan = plan_generation_query(&pin, catalog, &r.query).expect("ladder query plans");
        let placement = &pin.placements()[plan.placement];
        let tree = pin.tree(placement.tree);
        let region = query_region(&placement.def, tree.dims(), &r.query);
        let mut touched = 0u64;
        let (found, us) = tracer.time("R5.search", "R4.exec", i as u64, || {
            tree.search(&region, |_, _, _| {
                touched += 1;
                true
            })
        });
        found.expect("ladder search");
        out.search.push(us);
        out.touched_entries += touched;
    }
    rung_io(&mut out, before);

    // Beside the ladder: what one probe of a warm answer cache costs.
    for (i, r) in requests.iter().enumerate() {
        let (_, us) = tracer.time("cache.probe", "R2.submit", i as u64, || {
            probe_cache.probe(&r.query.cache_key(), &engine.answer_stamps(&r.query))
        });
        out.probe.push(us);
    }
    out
}

fn physical(io: &IoSnapshot) -> u64 {
    io.seq_reads + io.rand_reads
}

impl Ladder {
    fn per_request(&self, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..self.http.len()).map(f).collect()
    }

    /// What the engine spent on request `i` below the admission queue.
    fn engine_us(&self, i: usize) -> f64 {
        if self.cache_hit[i] {
            0.0
        } else {
            self.serve[i]
        }
    }

    /// Each layer's own time per request: its span minus the spans below it.
    fn self_times(&self) -> Vec<(&'static str, Vec<f64>)> {
        vec![
            (
                "server.socket_us",
                self.per_request(|i| {
                    self.http[i] - self.parse[i] - self.dispatch[i] - self.write[i]
                }),
            ),
            ("server.http.parse_us", self.parse.clone()),
            ("server.json.validate_us", self.validate.clone()),
            (
                "server.routes.render_us",
                self.per_request(|i| self.dispatch[i] - self.validate[i] - self.submit[i]),
            ),
            ("server.http.write_us", self.write.clone()),
            (
                "server.admission.wait_us",
                self.per_request(|i| self.submit[i] - self.probe[i] - self.engine_us(i)),
            ),
            ("server.cache.probe_us", self.probe.clone()),
        ]
    }

    /// `(metric name, value)` for everything the ladder measures.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let n = self.http.len() as f64;
        let selfs = self.self_times();
        let mut out: Vec<(&'static str, f64)> =
            selfs.iter().map(|(name, v)| (*name, median(v))).collect();
        // What the medians above leave of the median request, counting the
        // engine for the requests the answer cache did not serve.
        let engine = median(&self.per_request(|i| self.engine_us(i)));
        let placed: f64 = out.iter().map(|(_, us)| us).sum::<f64>() + engine;
        out.extend([
            ("trace.unaccounted_frac", 1.0 - placed / median(&self.http)),
            ("ladder.http_us", median(&self.http)),
            ("ladder.dispatch_us", median(&self.dispatch)),
            ("ladder.submit_us", median(&self.submit)),
            ("core.engine.serve_us", median(&self.serve)),
            ("core.pin_us", median(&self.pin)),
            ("core.plan_us", median(&self.plan)),
            ("core.exec_us", median(&self.exec)),
            ("rtree.search_us", median(&self.search)),
            (
                "core.query.entries_per_row",
                self.touched_entries as f64 / self.rows_returned.max(1) as f64,
            ),
            ("rtree.pages_per_search", (physical(&self.io[5]) + self.io[5].buffer_hits) as f64 / n),
            ("ladder.pages_per_query", physical(&self.io[4]) as f64 / n),
            (
                "ladder.logical_pages_per_query",
                (physical(&self.io[4]) + self.io[4].buffer_hits) as f64 / n,
            ),
            ("ladder.page_recon_diff", self.page_recon_diff() as f64),
        ]);
        out
    }

    /// Logical page accesses (hits + reads) do not depend on the pool's
    /// state, so R3, R4 and R5 must agree exactly, and R2 with them when none
    /// of its requests was answered by the cache. Returns the largest
    /// disagreement in pages; anything but 0 is a bug in the ladder or below.
    pub fn page_recon_diff(&self) -> u64 {
        let logical = |rung: usize| physical(&self.io[rung]) + self.io[rung].buffer_hits;
        let mut rungs = vec![logical(3), logical(4), logical(5)];
        if !self.cache_hit.iter().any(|hit| *hit) {
            rungs.push(logical(2));
        }
        rungs.iter().max().unwrap() - rungs.iter().min().unwrap()
    }
}
