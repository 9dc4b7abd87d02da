//! One run of one workload: set-up, warm-up, measured window, the passes and
//! checks that follow it and, when tracing, the ladder.
//!
//! Every run reports the whole cost sheet of a warehouse user — load,
//! refresh, query, ingest, bytes stored, memory — because the driver wants
//! every end-to-end metric from every workload. The workload decides which of
//! them are measured under its traffic; the others come from the fixed
//! set-up (one load and one 10 % refresh) and from a fixed uncontended pass
//! after the window. `benchmark/README.md` says which is which.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use ct_common::stats::percentile_of_sorted;
use ct_common::SliceQuery;
use ct_obs::{MetricsSnapshot, Recorder};
use ct_server::{CtServer, ServerConfig, ServerHandle};
use ct_storage::{IoSnapshot, PAGE_SIZE};
use cubetree::engine::RolapEngine;
use cubetree::ServingEngine;

use crate::check::{self, Check};
use crate::drive::{
    run_direct_queries, run_ingest_pass, run_window, summarize, ClientLog, Summary,
};
use crate::setup::{peak_rss_mb, Dataset, Stack, WorkDir};
use crate::spec::*;
use crate::stats::median;
use crate::stream::{Request, Stream};
use crate::trace::{Span, Tracer};
use crate::{bulkrungs, ladder};

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `benchmark/` directory; scratch files and results live under it.
    pub home: PathBuf,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order of the metric table.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// What the set-ups and the measured window of a run produced.
struct Measured {
    stack: Stack,
    server: Option<ServerHandle>,
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
    build_s: Vec<f64>,
    update_s: Vec<f64>,
    load_rows_per_s: Vec<f64>,
    refresh_rows_per_s: Vec<f64>,
    storage_bytes_per_fact_row: f64,
    /// The workload's queries (and ingests, if it has any).
    traffic: Summary,
    /// Page I/O while `traffic` ran.
    io: IoSnapshot,
    rec0: MetricsSnapshot,
    /// The recorder when the serving that `rec0` precedes ended; `None` while
    /// it is still to come (`bulk_load_refresh` serves only the ladder).
    rec1: Option<MetricsSnapshot>,
    logs: Vec<ClientLog>,
    /// Start of `traffic` on the tracer's clock, in seconds.
    traffic_origin_s: f64,
    /// Traced over untraced cost of the workload's main operation, minus 1.
    trace_overhead_frac: f64,
}

/// Seconds after the clients start over which a traced run and its untraced
/// reference compare their median latency.
const REFERENCE: (f64, f64) = (1.0, 3.0);

/// Parent names of the window's spans, one per client.
const CLIENT_SPANS: [&str; CLIENTS] = ["client0", "client1"];

fn start_server(stack: &Stack) -> ServerHandle {
    CtServer::start(stack.engine.clone(), ServerConfig::default()).expect("start the server")
}

/// Set-ups and window of a serve workload. Every set-up generates, loads,
/// refreshes once and starts a server; the last one is kept and measured.
fn measure_serve(
    cfg: &RunConfig,
    work: &mut WorkDir,
    recorder: &Recorder,
    epoch: Instant,
) -> Measured {
    let w = cfg.workload;
    // A traced run has no use for a third set-up: the first, built without a
    // recorder, serves a short untraced window to hold the traced one against.
    let setups = if cfg.trace { 2 } else { SETUPS };
    let (mut setup_s, mut generate_s, mut build_s, mut update_s) = (vec![], vec![], vec![], vec![]);
    let (mut load_rate, mut refresh_rate) = (vec![], vec![]);
    let mut untraced_p50 = None;
    let mut kept: Option<(Stack, ServerHandle)> = None;
    for i in 0..setups {
        if let Some((stack, server)) = kept.take() {
            if cfg.trace {
                let addr = server.addr().to_string();
                let win =
                    run_window(&addr, &stack, w, cfg.seed, REFERENCE.0, REFERENCE.1 - REFERENCE.0);
                untraced_p50 = Some(summarize(&win.logs, REFERENCE.0, REFERENCE.1).query_p(50.0));
            }
            server.join();
        }
        let started = Instant::now();
        let data = Dataset::generate(cfg.seed, 1);
        let last = i + 1 == setups;
        let stack =
            Stack::build(work, data, if last { recorder.clone() } else { Recorder::disabled() });
        let server = start_server(&stack);
        setup_s.push(started.elapsed().as_secs_f64());
        eprintln!(
            "set-up {}: {:.2} s (load {:.2} s, refresh {:.2} s)",
            i + 1,
            setup_s[i],
            stack.build_s,
            stack.update_s[0]
        );
        generate_s.push(stack.data.generate_s);
        build_s.push(stack.build_s);
        update_s.extend(&stack.update_s);
        load_rate.push(stack.load_rows_per_s());
        refresh_rate.extend(stack.refresh_rows_per_s());
        kept = Some((stack, server));
    }
    let (stack, server) = kept.expect("at least one set-up");
    let storage_bytes_per_fact_row = stack.storage_bytes_per_fact_row();
    let addr = server.addr().to_string();
    let traffic_origin_s = epoch.elapsed().as_secs_f64();
    let win = run_window(&addr, &stack, w, cfg.seed, WARMUP_SECS, cfg.seconds);
    let traffic = summarize(&win.logs, win.t0, win.t1);
    // Latency drifts while the answer cache fills, so the traced and the
    // untraced p50 are taken over the same seconds of their runs.
    let traced_p50 = summarize(&win.logs, REFERENCE.0, REFERENCE.1).query_p(50.0);
    let trace_overhead_frac = untraced_p50.map_or(0.0, |p50| traced_p50 / p50 - 1.0);
    Measured {
        stack,
        server: Some(server),
        setup_s,
        generate_s,
        build_s,
        update_s,
        load_rows_per_s: load_rate,
        refresh_rows_per_s: refresh_rate,
        storage_bytes_per_fact_row,
        traffic,
        io: win.io,
        rec0: win.rec0,
        rec1: Some(win.rec1),
        logs: win.logs,
        traffic_origin_s,
        trace_overhead_frac,
    }
}

/// Set-ups and window of `bulk_load_refresh`. A set-up only generates the
/// data; the window runs whole cycles of one load and eight refreshes until
/// the time is up, and the forest of the last cycle then answers a fixed
/// pass of queries in process.
fn measure_bulk(
    cfg: &RunConfig,
    work: &mut WorkDir,
    recorder: &Recorder,
    epoch: Instant,
) -> Measured {
    let w = cfg.workload;
    let mut data: Vec<Dataset> =
        (0..SETUPS).map(|_| Dataset::generate(cfg.seed, BULK_REFRESHES)).collect();
    let generate_s: Vec<f64> = data.iter().map(|d| d.generate_s).collect();
    let untraced_build_s = cfg
        .trace
        .then(|| Stack::build(work, Dataset::generate(cfg.seed, 0), Recorder::disabled()).build_s);
    let (mut build_s, mut update_s, mut load_rate, mut refresh_rate) =
        (vec![], vec![], vec![], vec![]);
    let started = Instant::now();
    let stack = loop {
        let cycle = data.pop().unwrap_or_else(|| Dataset::generate(cfg.seed, BULK_REFRESHES));
        let stack = Stack::build(work, cycle, recorder.clone());
        build_s.push(stack.build_s);
        update_s.extend(&stack.update_s);
        load_rate.push(stack.load_rows_per_s());
        // Each refresh meets a larger forest than the one before, so a cycle
        // counts as one sample: its refreshed rows over its refresh seconds.
        let refreshed: usize = stack.data.increments.iter().map(|inc| inc.len()).sum();
        refresh_rate.push(refreshed as f64 / stack.update_s.iter().sum::<f64>());
        if started.elapsed().as_secs_f64() >= cfg.seconds {
            break stack;
        }
    };
    let storage_bytes_per_fact_row = stack.storage_bytes_per_fact_row();
    // Counters from here on belong to the queries and the ladder, not to the
    // cycles' refreshes (which share the `update` phase with compactions).
    let rec0 = recorder.snapshot();
    let before = stack.engine.io_snapshot();
    let traffic_origin_s = epoch.elapsed().as_secs_f64();
    let (traffic, logs) = run_direct_queries(&stack, w, cfg.seed, BULK_QUERIES);
    let io = stack.engine.io_snapshot().since(&before);
    let trace_overhead_frac = untraced_build_s.map_or(0.0, |s| median(&build_s) / s - 1.0);
    Measured {
        stack,
        server: None,
        setup_s: generate_s.clone(),
        generate_s,
        build_s,
        update_s,
        load_rows_per_s: load_rate,
        refresh_rows_per_s: refresh_rate,
        storage_bytes_per_fact_row,
        traffic,
        io,
        rec0,
        rec1: None,
        logs,
        traffic_origin_s,
        trace_overhead_frac,
    }
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.counters.get(name).copied().unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer numbers read off the engine's recorder between two snapshots.
fn recorder_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    from: &MetricsSnapshot,
    to: &MetricsSnapshot,
) {
    let delta = |name: &str| counter(to, name) - counter(from, name);
    let hist = |name: &str| {
        let of = |s: &MetricsSnapshot| s.histograms.get(name).map_or((0, 0), |h| (h.sum, h.count));
        let ((s1, c1), (s0, c0)) = (of(to), of(from));
        ((s1 - s0) as f64, (c1 - c0) as f64)
    };
    let (batch_sum, batches) = hist("server.batch.size");
    let (_, executed) = hist("core.query.touched_entries");
    let (hits, misses) = (delta("cache.hits"), delta("cache.misses"));
    m.insert("server.batch.size_mean", ratio(batch_sum, batches));
    m.insert("server.admission.rejected", delta("server.admission.rejected"));
    m.insert("server.cache.hit_rate", ratio(hits, hits + misses));
    m.insert("server.cache.invalidations", delta("cache.invalidations"));
    m.insert("server.cache.evictions", delta("cache.evictions"));
    m.insert("server.cache.bytes", to.gauges.get("cache.bytes").copied().unwrap_or(0.0));
    m.insert("core.sched.shared_scans", delta("query.sched.shared_scans"));
    m.insert("core.sched.reordered_frac", ratio(delta("query.sched.reordered"), executed));
    m.insert("core.delta.merged_frac", ratio(delta("core.query.delta_merged"), executed));
    m.insert("storage.pool.evictions", delta("storage.buffer.evictions"));
    m.insert(
        "storage.prefetch.wasted_frac",
        ratio(delta("storage.buffer.prefetch.wasted"), delta("storage.buffer.prefetch.pages")),
    );
}

/// Compactions and the wall time of the `update` phase they run in, between
/// two snapshots.
fn compactor_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    from: &MetricsSnapshot,
    to: &MetricsSnapshot,
) {
    let wall = |s: &MetricsSnapshot| s.spans.get("update").map_or(0.0, |span| span.wall_secs);
    m.insert(
        "server.compactor.cycles",
        counter(to, "ingest.compactions") - counter(from, "ingest.compactions"),
    );
    m.insert("server.compactor.busy_s", wall(to) - wall(from));
}

/// Median `serve_batch` time of `queries`, one query per batch, after one
/// untimed replay that leaves the buffer pool in the same state each time.
fn median_serve_us(
    stack: &Stack,
    queries: &[SliceQuery],
    name: &'static str,
    tracer: &mut Tracer,
) -> f64 {
    for q in queries {
        stack.engine.serve_batch(std::slice::from_ref(q));
    }
    let us: Vec<f64> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            tracer
                .time(name, "delta.fold", i as u64, || {
                    stack.engine.serve_batch(std::slice::from_ref(q))
                })
                .1
        })
        .collect();
    median(&us)
}

pub fn run(cfg: &RunConfig) -> RunResult {
    let w = cfg.workload;
    let mut work = WorkDir::create(&cfg.home);
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let recorder = if cfg.trace { Recorder::enabled() } else { Recorder::disabled() };
    let mut measured = if w.bulk {
        measure_bulk(cfg, &mut work, &recorder, epoch)
    } else {
        measure_serve(cfg, &mut work, &recorder, epoch)
    };
    let stack = &measured.stack;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Answers first, while the state the window served is still in place.
    let answers = match &measured.server {
        Some(server) => {
            check::verify_http(&server.addr().to_string(), stack, w, cfg.seed, VERIFY_HTTP)
        }
        None => check::verify_oracle(stack, w, cfg.seed, VERIFY_ORACLE),
    };

    // From here on every workload has a server: `bulk_load_refresh` starts
    // one on its last forest, for the ladder and the ingest pass.
    let addr = measured.server.get_or_insert_with(|| start_server(stack)).addr().to_string();
    let mut ladder_reconciles = true;
    if cfg.trace {
        // An empty delta tier, so that every rung sees the same state and the
        // rungs' times do not depend on what the window happened to leave.
        stack.engine.compact_delta().expect("compact before the ladder");
        let rungs = ladder::run(&addr, stack, w, cfg.seed, LADDER_REQUESTS, &mut tracer);
        ladder_reconciles = rungs.page_recon_diff() == 0;
        m.extend(rungs.metrics());
    }
    // A serve workload's counters are its window's; `bulk_load_refresh` has
    // no server of its own, so its serving counters are the ladder's.
    let rec1 = measured.rec1.take().unwrap_or_else(|| recorder.snapshot());

    // The ingest pass: batches over HTTP with no query beside them. Every run
    // makes it, so that every run checks ingestion end to end; traced, it
    // also leaves the delta that the fold comparison needs.
    let fold = cfg.trace.then(|| {
        let mut stream = Stream::new(&stack.data.warehouse, w, cfg.seed ^ 0xF01D, 0);
        let queries: Vec<SliceQuery> = (0..FOLD_QUERIES)
            .map(|_| match stream.next_query() {
                Request::Query { query, .. } => query,
                Request::Ingest { .. } => unreachable!(),
            })
            .collect();
        let without_delta_us = median_serve_us(stack, &queries, "R3.no_delta", &mut tracer);
        (queries, without_delta_us)
    });
    let (pass, pass_logs) = run_ingest_pass(&addr, stack, w, cfg.seed, INGEST_PASS / CLIENTS);
    let resident_after_pass = stack.engine.delta_stats().map_or(0, |s| s.resident_rows());
    if let Some((queries, without_delta_us)) = fold {
        let with_delta_us = median_serve_us(stack, &queries, "R3.with_delta", &mut tracer);
        m.insert("core.delta.fold_us", with_delta_us - without_delta_us);
    }

    // Shutdown drains the delta tier; then every acknowledged row must show.
    if let Some(server) = measured.server.take() {
        server.join();
    }
    stack.engine.compact_delta().expect("final compaction");
    let acked: i64 = measured.logs.iter().chain(&pass_logs).map(|l| l.acked_measure).sum();
    let drained = check::verify_drained_total(stack, acked);

    let traffic = &measured.traffic;
    let ingests = if w.ingest_frac > 0.0 { traffic } else { &pass };
    let queries = traffic.query_ms.len() as f64;
    let checks = Check {
        checked: answers.checked + drained.checked,
        mismatches: answers.mismatches + drained.mismatches,
    };
    let loads = (measured.build_s.len() + measured.update_s.len()) as u64;
    let attempted = traffic.attempted() + pass.attempted() + loads;
    let failed = traffic.failed + pass.failed;

    m.insert("setup_s", median(&measured.setup_s));
    m.insert("query_p50_ms", traffic.query_p(50.0));
    m.insert("query_p99_ms", traffic.query_p(99.0));
    m.insert("query_qps", traffic.qps());
    m.insert("pages_per_query", (measured.io.seq_reads + measured.io.rand_reads) as f64 / queries);
    m.insert("load_rows_per_s", median(&measured.load_rows_per_s));
    m.insert("refresh_rows_per_s", median(&measured.refresh_rows_per_s));
    m.insert("storage_bytes_per_fact_row", measured.storage_bytes_per_fact_row);

    if cfg.trace {
        let rec_end = recorder.snapshot();
        recorder_metrics(&mut m, &measured.rec0, &rec1);
        compactor_metrics(&mut m, &measured.rec0, &rec_end);
        let rungs = bulkrungs::run(&mut work, &stack.data, &mut tracer);
        m.insert("cube.compute_rows_per_s", rungs.compute_rows_per_s);
        m.insert("storage.sort_rows_per_s", rungs.sort_rows_per_s);
        m.insert("rtree.pack_rows_per_s", rungs.pack_rows_per_s);
        m.insert("rtree.merge_rows_per_s", rungs.merge_rows_per_s);

        let io = &measured.io;
        let env = stack.engine.env();
        m.insert("storage.pool.hit_rate", io.hit_ratio());
        m.insert("storage.reads_seq", io.seq_reads as f64);
        m.insert("storage.reads_rand", io.rand_reads as f64);
        m.insert("storage.sim_io_s", io.simulated_seconds(env.cost_model()));
        let writes = (stack.build_io.seq_writes + stack.build_io.rand_writes) as f64;
        let forest_bytes = measured.storage_bytes_per_fact_row * stack.data.total_rows() as f64;
        m.insert("storage.writes", writes);
        m.insert("storage.write_amp", writes / (forest_bytes / PAGE_SIZE as f64));
        let pin = stack.engine.forest().expect("loaded engine").pin();
        let entries: u64 = pin.trees().iter().map(|t| t.stats().entries).sum();
        m.insert("rtree.bytes_per_entry", pin.storage_bytes() as f64 / entries as f64);
        m.insert("core.forest.build_s", median(&measured.build_s));
        m.insert("core.forest.update_s", median(&measured.update_s));
        m.insert("tpcd.generate_s", median(&measured.generate_s));
        let resident_max = measured.logs.iter().map(|l| l.resident_rows_max).max().unwrap_or(0);
        m.insert("core.delta.resident_rows_max", resident_max.max(resident_after_pass) as f64);
        m.insert("client.query_p50_ms", traffic.query_p(50.0));
        m.insert("client.query_p95_ms", percentile_of_sorted(&traffic.query_ms, 95.0));
        m.insert("client.ingest_p50_ms", ingests.ingest_p(50.0));
        m.insert("client.ingest_p95_ms", percentile_of_sorted(&ingests.ingest_ms, 95.0));
        m.insert("client.ingest_rows_per_s", ingests.ingest_rows_per_s());
        m.insert("client.error_rate", failed as f64 / attempted as f64);
        m.insert("workload.client_busy_frac", traffic.client_busy_frac);
        m.insert("workload.window_slice_spread", traffic.slice_spread());
        m.insert("trace.overhead_frac", measured.trace_overhead_frac);

        // The window's own spans: one per request, as the client saw it.
        let origin_us = measured.traffic_origin_s * 1e6;
        for (client, log) in measured.logs.iter().enumerate() {
            tracer.spans.extend(log.samples.iter().map(|s| Span {
                name: if s.ingest { "client.ingest" } else { "client.query" },
                parent: CLIENT_SPANS[client],
                req: s.index,
                start_us: origin_us + (s.end_s - s.latency_s) * 1e6,
                end_us: origin_us + s.end_s * 1e6,
                io: None,
            }));
        }
        m.insert("trace.spans", tracer.spans.len() as f64);
        let path = cfg.home.join("results").join(format!("trace_{}.jsonl", w.name));
        tracer.write_jsonl(&path).expect("write the trace");
    }
    // Last, so that it covers everything the run allocated.
    m.insert("peak_rss_mb", peak_rss_mb());

    let table: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = table
        .iter()
        .map(|(name, unit)| {
            let value = *m.get(name).unwrap_or_else(|| panic!("metric {name} was not measured"));
            (*name, value, *unit)
        })
        .collect();
    RunResult { correct: checks.mismatches == 0 && ladder_reconciles, attempted, failed, metrics }
}
