//! The load generator: closed-loop clients that wait for each reply before
//! sending the next request (the callers are BI front ends), against the HTTP
//! server or, for the queries of `bulk_load_refresh`, the engine in process.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ct_common::stats::percentile_of_sorted;
use ct_common::SliceQuery;
use ct_obs::MetricsSnapshot;
use ct_storage::IoSnapshot;
use ct_workload::serving::HttpClient;
use cubetree::engine::{CubetreeEngine, RolapEngine};
use cubetree::ServingEngine;

use crate::setup::Stack;
use crate::spec::{Workload, CLIENTS, INGEST_ROWS};
use crate::stats::{median, quartile_spread, sorted};
use crate::stream::{Draw, Request, Stream};

/// Where a client sends its requests.
pub enum Target<'a> {
    Http { addr: String, conn: HttpClient },
    Direct(&'a CubetreeEngine),
}

enum Outcome {
    /// Answered; an ingest reply carries the resident delta rows it reported.
    Ok { resident_rows: u64 },
    /// Refused (429) or failed; either way the request missed.
    Failed,
}

impl Target<'_> {
    pub fn http(addr: &str) -> Target<'static> {
        let conn = HttpClient::connect(addr).expect("connect to the server");
        Target::Http { addr: addr.to_string(), conn }
    }

    fn send(&mut self, req: &Request) -> Outcome {
        match self {
            Target::Http { addr, conn } => match conn.request("POST", req.path(), req.body()) {
                Ok(reply) if reply.status == 200 => {
                    let resident_rows = match req {
                        Request::Ingest { .. } => field_u64(&reply.text(), "resident_rows"),
                        Request::Query { .. } => 0,
                    };
                    Outcome::Ok { resident_rows }
                }
                Ok(_) => Outcome::Failed,
                Err(_) => {
                    if let Ok(fresh) = HttpClient::connect(addr) {
                        *conn = fresh;
                    }
                    Outcome::Failed
                }
            },
            // In process there is only the query path to call.
            Target::Direct(engine) => match req {
                Request::Query { query, .. } if engine.query(query).is_ok() => {
                    Outcome::Ok { resident_rows: 0 }
                }
                _ => Outcome::Failed,
            },
        }
    }
}

/// Reads `"name": <integer>` out of a flat JSON reply.
fn field_u64(text: &str, name: &str) -> u64 {
    text.split(&format!("\"{name}\": "))
        .nth(1)
        .map(|rest| rest.chars().take_while(char::is_ascii_digit).collect::<String>())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

/// One answered request.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Completion time in seconds since the log's origin.
    pub end_s: f64,
    pub latency_s: f64,
    pub ingest: bool,
    /// Index of the request in its client's stream.
    pub index: u64,
}

/// Everything one client saw.
#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    /// Completion times of requests that were refused or failed.
    pub failures: Vec<f64>,
    /// Sum of the measures of every acknowledged ingested row.
    pub acked_measure: i64,
    pub resident_rows_max: u64,
}

/// Sends requests drawn from `stream` until `done(sent)` says stop.
pub fn run_client(
    target: &mut Target<'_>,
    origin: Instant,
    stream: &mut Stream<'_>,
    draw: Draw,
    done: impl Fn(u64) -> bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut index = 0u64;
    while !done(index) {
        let req = stream.draw(draw);
        let started = Instant::now();
        let outcome = target.send(&req);
        let latency_s = started.elapsed().as_secs_f64();
        let end_s = origin.elapsed().as_secs_f64();
        match outcome {
            Outcome::Ok { resident_rows } => {
                let ingest = matches!(req, Request::Ingest { .. });
                if let Request::Ingest { measure, .. } = req {
                    log.acked_measure += measure;
                    log.resident_rows_max = log.resident_rows_max.max(resident_rows);
                }
                log.samples.push(Sample { end_s, latency_s, ingest, index });
            }
            Outcome::Failed => log.failures.push(end_s),
        }
        index += 1;
    }
    log
}

/// A measured window of the closed loop.
pub struct Window {
    /// Window bounds in seconds since the clients started.
    pub t0: f64,
    pub t1: f64,
    /// Page I/O of the engine between the bounds.
    pub io: IoSnapshot,
    /// The engine's recorder at the two bounds (empty when it is disabled).
    pub rec0: MetricsSnapshot,
    pub rec1: MetricsSnapshot,
    pub logs: Vec<ClientLog>,
}

/// Starts the clients, lets them warm the server up for `warmup_s`, measures
/// for `seconds`, then stops them. Each client keeps sending across the two
/// boundaries; a request belongs to the window it completed in.
pub fn run_window(
    addr: &str,
    stack: &Stack,
    workload: Workload,
    seed: u64,
    warmup_s: f64,
    seconds: f64,
) -> Window {
    let stop = AtomicBool::new(false);
    let origin = Instant::now();
    let warehouse = &stack.data.warehouse;
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut stream = Stream::new(warehouse, workload, seed, client);
                    let mut target = Target::http(addr);
                    run_client(&mut target, origin, &mut stream, Draw::Mix, |_| {
                        stop.load(Ordering::Relaxed)
                    })
                })
            })
            .collect();
        sleep_until(origin, warmup_s);
        let recorder = stack.engine.recorder();
        let (before, rec0) = (stack.engine.io_snapshot(), recorder.snapshot());
        let t0 = origin.elapsed().as_secs_f64();
        sleep_until(origin, warmup_s + seconds);
        let (io, rec1) = (stack.engine.io_snapshot().since(&before), recorder.snapshot());
        let t1 = origin.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let logs = clients.into_iter().map(|c| c.join().expect("client thread")).collect();
        Window { t0, t1, io, rec0, rec1, logs }
    })
}

fn sleep_until(origin: Instant, at_s: f64) {
    if let Some(left) = Duration::from_secs_f64(at_s).checked_sub(origin.elapsed()) {
        std::thread::sleep(left);
    }
}

/// Slices per summarised interval. A stall, a compaction or one monster
/// query moves the slice it falls in; the run's number is the median slice.
pub const SLICES: usize = 10;

/// The requests that completed in one slice of an interval.
#[derive(Default)]
struct Slice {
    query_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
}

/// What a set of client logs says about one interval.
pub struct Summary {
    slices: Vec<Slice>,
    /// Query latencies of the whole interval in milliseconds, ascending.
    pub query_ms: Vec<f64>,
    /// Ingest latencies of the whole interval in milliseconds, ascending.
    pub ingest_ms: Vec<f64>,
    pub wall_s: f64,
    pub failed: u64,
    /// Mean share of the interval the clients spent outside `send`.
    pub client_busy_frac: f64,
}

impl Summary {
    pub fn attempted(&self) -> u64 {
        (self.query_ms.len() + self.ingest_ms.len()) as u64 + self.failed
    }

    /// `f` of every slice that has a value, in time order.
    fn per_slice(&self, f: impl Fn(&Slice) -> Option<f64>) -> Vec<f64> {
        self.slices.iter().filter_map(f).collect()
    }

    fn slice_qps(&self) -> Vec<f64> {
        let slice_s = self.wall_s / SLICES as f64;
        self.per_slice(|s| Some(s.query_ms.len() as f64 / slice_s))
    }

    /// Answered queries per second: the median slice.
    pub fn qps(&self) -> f64 {
        median(&self.slice_qps())
    }

    /// The `p`-th query latency percentile in ms: the median over slices.
    pub fn query_p(&self, p: f64) -> f64 {
        median(
            &self.per_slice(|s| {
                (!s.query_ms.is_empty()).then(|| percentile_of_sorted(&s.query_ms, p))
            }),
        )
    }

    /// The `p`-th ingest latency percentile in ms: the median over slices.
    pub fn ingest_p(&self, p: f64) -> f64 {
        median(&self.per_slice(|s| {
            (!s.ingest_ms.is_empty()).then(|| percentile_of_sorted(&s.ingest_ms, p))
        }))
    }

    /// Ingested rows per second of time spent ingesting: the median slice.
    pub fn ingest_rows_per_s(&self) -> f64 {
        median(&self.per_slice(|s| {
            let busy_s = s.ingest_ms.iter().sum::<f64>() / 1e3;
            (busy_s > 0.0).then(|| (s.ingest_ms.len() * INGEST_ROWS) as f64 / busy_s)
        }))
    }

    /// Quartile spread of the slices' throughput: how steady the interval was.
    pub fn slice_spread(&self) -> f64 {
        quartile_spread(&self.slice_qps())
    }
}

/// Summarises the requests that completed in `[t0, t1)`.
pub fn summarize(logs: &[ClientLog], t0: f64, t1: f64) -> Summary {
    let inside = |t: f64| t >= t0 && t < t1;
    let wall_s = t1 - t0;
    let mut slices: Vec<Slice> = (0..SLICES).map(|_| Slice::default()).collect();
    let mut in_send_s = 0.0;
    for s in logs.iter().flat_map(|l| &l.samples).filter(|s| inside(s.end_s)) {
        in_send_s += s.latency_s;
        let slice =
            &mut slices[(((s.end_s - t0) / wall_s * SLICES as f64) as usize).min(SLICES - 1)];
        if s.ingest { &mut slice.ingest_ms } else { &mut slice.query_ms }.push(s.latency_s * 1e3);
    }
    for slice in &mut slices {
        slice.query_ms = sorted(std::mem::take(&mut slice.query_ms));
        slice.ingest_ms = sorted(std::mem::take(&mut slice.ingest_ms));
    }
    let all = |f: fn(&Slice) -> &Vec<f64>| sorted(slices.iter().flat_map(f).copied().collect());
    Summary {
        query_ms: all(|s| &s.query_ms),
        ingest_ms: all(|s| &s.ingest_ms),
        wall_s,
        failed: logs.iter().flat_map(|l| &l.failures).filter(|t| inside(**t)).count() as u64,
        client_busy_frac: 1.0 - in_send_s / (wall_s * logs.len() as f64),
        slices,
    }
}

/// The query pass of `bulk_load_refresh`: the first `n` queries of stream 0,
/// back to back from one thread, in process. The summary covers the pass.
pub fn run_direct_queries(
    stack: &Stack,
    workload: Workload,
    seed: u64,
    n: usize,
) -> (Summary, Vec<ClientLog>) {
    let origin = Instant::now();
    let mut stream = Stream::new(&stack.data.warehouse, workload, seed, 0);
    let mut target = Target::Direct(&stack.engine);
    let log = run_client(&mut target, origin, &mut stream, Draw::Queries, |sent| sent >= n as u64);
    let logs = vec![log];
    (summarize(&logs, 0.0, origin.elapsed().as_secs_f64()), logs)
}

/// The ingest pass: every client sends `n` batches back to back over HTTP,
/// from streams the window did not use, with no query beside them.
pub fn run_ingest_pass(
    addr: &str,
    stack: &Stack,
    workload: Workload,
    seed: u64,
    n: usize,
) -> (Summary, Vec<ClientLog>) {
    let origin = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut stream =
                        Stream::new(&stack.data.warehouse, workload, seed, CLIENTS + client);
                    let mut target = Target::http(addr);
                    run_client(&mut target, origin, &mut stream, Draw::Ingests, |sent| {
                        sent >= n as u64
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    (summarize(&logs, 0.0, origin.elapsed().as_secs_f64()), logs)
}

/// The grand total over everything loaded, refreshed and ingested.
pub fn grand_total(engine: &CubetreeEngine) -> f64 {
    let rows = engine.query(&SliceQuery::new(vec![], vec![])).expect("grand-total query");
    rows.first().map_or(0.0, |r| r.agg)
}
