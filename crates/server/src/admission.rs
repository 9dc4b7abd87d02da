//! Admission-controlled batching for the query path.
//!
//! Incoming queries land in a bounded queue. A single batch-former thread
//! drains the queue into batches — flushing when either `max_batch` queries
//! have accumulated or the oldest waiter has been queued for `max_delay` —
//! and executes each batch against **one pinned generation** through the
//! engine's one read path ([`ServingEngine::serve_batch`]).
//! Under concurrency this turns N point dispatches into one scheduled sweep
//! (packed-order sorting, shared scans, readahead), so the server reads
//! *fewer* pages per query as load rises. When the queue is already
//! `max_depth` deep, [`Admission::submit`] refuses immediately; the HTTP
//! layer translates that into `429 Too Many Requests` + `Retry-After`,
//! keeping latency bounded instead of letting the queue grow without limit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ct_common::query::QueryRow;
use ct_common::SliceQuery;
use cubetree::ServingEngine;

use crate::cache::{AnswerCache, Probe};

/// Tuning knobs for the admission queue and batch former.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Queue-depth bound; a submit against a full queue is refused (429).
    pub max_depth: usize,
    /// Flush a batch as soon as this many queries have accumulated.
    pub max_batch: usize,
    /// Flush a batch once the oldest queued query has waited this long.
    pub max_delay: Duration,
    /// Advertised `Retry-After` (seconds) on refused submissions.
    pub retry_after_secs: u64,
    /// Flush a forming batch immediately when the scheduler is idle instead
    /// of waiting out `max_delay`. The batcher thread alternates forming
    /// and executing, so arrivals during an execution still accumulate into
    /// full batches under load (page economy is kept); idle-flush only
    /// removes the forming delay when there is nothing to wait for, closing
    /// most of the light-load latency gap against sequential dispatch.
    pub flush_on_idle: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_depth: 256,
            max_batch: 32,
            max_delay: Duration::from_millis(2),
            retry_after_secs: 1,
            flush_on_idle: true,
        }
    }
}

/// A successfully executed query: the rows plus the generation they were
/// answered from (both taken under the same pin, so they always agree).
#[derive(Debug)]
pub struct QueryAnswer {
    /// Generation number the batch was executed against.
    pub generation: u64,
    /// Result rows, in engine order.
    pub rows: Vec<QueryRow>,
}

/// Submission refused without enqueueing.
#[derive(Debug)]
pub enum SubmitError {
    /// The queue is at `max_depth`; the HTTP layer answers `429`.
    Overloaded {
        /// Seconds the client should wait before retrying.
        retry_after_secs: u64,
    },
    /// [`Admission::shutdown`] has been called: the batch former is (or
    /// soon will be) gone, so an enqueued query would never be answered and
    /// its submitter would block forever. The HTTP layer answers `503`.
    ShuttingDown,
}

struct Pending {
    query: SliceQuery,
    enqueued_at: Instant,
    reply: mpsc::Sender<Result<QueryAnswer, String>>,
}

struct Shared {
    queue: Mutex<VecDeque<Pending>>,
    nonempty: Condvar,
    shutdown: AtomicBool,
}

/// Handle for submitting queries into the admission queue.
pub struct Admission {
    shared: Arc<Shared>,
    config: AdmissionConfig,
    enqueued: ct_obs::Counter,
    rejected: ct_obs::Counter,
    depth: ct_obs::Gauge,
}

impl Admission {
    /// Creates the queue and spawns the batch-former thread, which executes
    /// batches against `engine` until [`Admission::shutdown`]. When `cache`
    /// is present, each formed batch is probed against it before dispatch —
    /// hits are answered from the cache, misses execute and populate it.
    pub fn start(
        engine: Arc<dyn ServingEngine>,
        config: AdmissionConfig,
        cache: Option<Arc<AnswerCache>>,
    ) -> Admission {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            nonempty: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let recorder = engine.recorder().clone();
        let admission = Admission {
            shared: Arc::clone(&shared),
            config: config.clone(),
            enqueued: recorder.counter("server.admission.enqueued"),
            rejected: recorder.counter("server.admission.rejected"),
            depth: recorder.gauge("server.admission.depth"),
        };
        std::thread::Builder::new()
            .name("ct-server-batcher".to_string())
            .spawn(move || batcher(engine, shared, config, cache))
            .expect("spawn batcher thread");
        admission
    }

    /// Enqueues one validated query. The receiver yields the answer (or an
    /// execution-error message) once the batch containing it has run.
    ///
    /// # Errors
    /// [`SubmitError::Overloaded`] when the queue is at `max_depth`;
    /// [`SubmitError::ShuttingDown`] after [`Admission::shutdown`].
    pub fn submit(
        &self,
        query: SliceQuery,
    ) -> Result<mpsc::Receiver<Result<QueryAnswer, String>>, SubmitError> {
        let (tx, rx) = mpsc::channel();
        {
            let mut queue = self.shared.queue.lock().expect("queue poisoned");
            // Checked under the queue lock: the batcher only exits after
            // observing shutdown && empty under this same lock, so any query
            // admitted here is guaranteed to be drained before exit (never
            // enqueued into a queue nobody will ever service).
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.rejected.inc();
                return Err(SubmitError::ShuttingDown);
            }
            if queue.len() >= self.config.max_depth {
                self.rejected.inc();
                return Err(SubmitError::Overloaded {
                    retry_after_secs: self.config.retry_after_secs,
                });
            }
            queue.push_back(Pending { query, enqueued_at: Instant::now(), reply: tx });
            self.depth.set(queue.len() as f64);
        }
        self.enqueued.inc();
        self.shared.nonempty.notify_one();
        Ok(rx)
    }

    /// Asks the batch former to drain the queue and exit.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.nonempty.notify_all();
    }

    /// True once [`Admission::shutdown`] has been called. The ingest route
    /// shares this signal so writes stop admitting alongside reads.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

/// The batch-former loop: wait for work, form a batch (size or deadline
/// triggered), execute it, answer every waiter.
fn batcher(
    engine: Arc<dyn ServingEngine>,
    shared: Arc<Shared>,
    config: AdmissionConfig,
    cache: Option<Arc<AnswerCache>>,
) {
    let recorder = engine.recorder().clone();
    let flushes = recorder.counter("server.batch.flushes");
    let batch_size = recorder.histogram("server.batch.size");
    let formed_us = recorder.histogram("server.batch.formed_us");
    let depth = recorder.gauge("server.admission.depth");
    loop {
        let batch: Vec<Pending> = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if queue.is_empty() {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    queue = shared.nonempty.wait(queue).expect("queue poisoned");
                    continue;
                }
                // Items are queued while the batch forms; the depth bound
                // therefore counts forming work too, which is what makes
                // overload refuse instead of stall.
                //
                // This thread alternates forming and executing, so reaching
                // this point means the scheduler is idle. With
                // `flush_on_idle`, dispatch whatever is queued immediately:
                // under load, arrivals accumulate while the previous batch
                // executes and batches stay full; at light load there is
                // nothing to wait for, so waiting out `max_delay` only adds
                // latency.
                let deadline = queue[0].enqueued_at + config.max_delay;
                let now = Instant::now();
                if config.flush_on_idle
                    || queue.len() >= config.max_batch
                    || now >= deadline
                    || shared.shutdown.load(Ordering::SeqCst)
                {
                    let n = queue.len().min(config.max_batch.max(1));
                    let drained = queue.drain(..n).collect();
                    depth.set(queue.len() as f64);
                    break drained;
                }
                let (q, _timeout) = shared
                    .nonempty
                    .wait_timeout(queue, deadline - now)
                    .expect("queue poisoned");
                queue = q;
            }
        };
        flushes.inc();
        batch_size.record(batch.len() as u64);
        formed_us.record(batch[0].enqueued_at.elapsed().as_micros() as u64);
        execute(engine.as_ref(), cache.as_deref(), batch);
    }
}

/// Executes one formed batch through [`ServingEngine::serve_batch`] — a
/// single pinned snapshot per storage environment (one pin, or one per
/// shard for a sharded engine) — and delivers per-query answers.
///
/// With a cache, every query is first probed against the engine's current
/// [`answer stamps`](ServingEngine::answer_stamps): hits are answered
/// straight from the memoized rows (no planning, no pin, no page I/O) and
/// only the misses are dispatched as a (smaller) batch; admitted misses
/// populate the cache with the stamps their answers were computed under.
/// A hit is labelled with the generation of the stamps that matched — the
/// match proves the visible state equals the one the rows were computed
/// from, and the last stamp carries the engine-wide generation (the
/// unsharded engine's only stamp, the sharded engine's plan guard); reading
/// `engine.generation()` again could race a refresh and mislabel the rows.
/// Without a cache every probe misses and nothing populates.
///
/// Execution is panic-isolated by the engine: a panicking query (or batch)
/// is answered as an error to its waiters instead of killing the batcher
/// thread. Without this, one poisoned batch would strand every queued
/// waiter in `recv()` and permanently eat the queue's capacity — the depth
/// gauge would freeze above zero and every later submit would see spurious
/// 429s.
fn execute(engine: &dyn ServingEngine, cache: Option<&AnswerCache>, batch: Vec<Pending>) {
    // Probe phase: answer hits immediately, collect misses for dispatch,
    // each beside the cache and key to populate if the probe admitted it.
    let mut misses: Vec<(Pending, Option<(&AnswerCache, ct_common::QueryKey)>)> = Vec::new();
    for p in batch {
        let Some(cache) = cache else {
            misses.push((p, None));
            continue;
        };
        let key = p.query.cache_key();
        let stamps = engine.answer_stamps(&p.query);
        match cache.probe(&key, &stamps) {
            Probe::Hit(rows) => {
                let generation =
                    stamps.last().map_or_else(|| engine.generation(), |s| s.generation);
                let _ = p.reply.send(Ok(QueryAnswer { generation, rows: (*rows).clone() }));
            }
            Probe::Miss { admit } => misses.push((p, admit.then_some((cache, key)))),
        }
    }
    if misses.is_empty() {
        return;
    }
    let queries: Vec<SliceQuery> = misses.iter().map(|(p, _)| p.query.clone()).collect();
    let (generation, answers) = engine.serve_batch(&queries);
    for ((p, populate), answer) in misses.into_iter().zip(answers) {
        let _ = p.reply.send(answer.map(|served| {
            if let Some((cache, key)) = populate.filter(|_| !served.stamps.is_empty()) {
                cache.populate(key, served.stamps, Arc::new(served.rows.clone()));
            }
            QueryAnswer { generation, rows: served.rows }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_common::{AggFn, Catalog, ViewDef};
    use ct_cube::Relation;
    use cubetree::engine::{CubetreeConfig, CubetreeEngine, RolapEngine};

    fn tiny_engine(threads: usize) -> Arc<CubetreeEngine> {
        let mut catalog = Catalog::new();
        let p = catalog.add_attr("p", 4);
        let s = catalog.add_attr("s", 3);
        let views = vec![ViewDef::new(0, vec![p, s], AggFn::Sum)];
        let config = CubetreeConfig::new(views)
            .with_threads(threads)
            .with_recorder(ct_obs::Recorder::enabled());
        let mut engine = CubetreeEngine::new(catalog, config).unwrap();
        let fact =
            Relation::from_fact(vec![p, s], vec![1, 1, 2, 2, 3, 1, 1, 2], &[10, 20, 30, 40]);
        engine.load(&fact).unwrap();
        Arc::new(engine)
    }

    fn query_for(engine: &CubetreeEngine) -> SliceQuery {
        let p = RolapEngine::catalog(engine).attr_by_name("p").unwrap();
        SliceQuery::new(vec![p], vec![])
    }

    #[test]
    fn answers_match_the_sequential_engine() {
        let engine = tiny_engine(1);
        let admission = Admission::start(engine.clone(), AdmissionConfig::default(), None);
        let q = query_for(&engine);
        let rx = admission.submit(q.clone()).unwrap();
        let answer = rx.recv().unwrap().unwrap();
        assert_eq!(answer.generation, engine.forest().unwrap().generation_number());
        // Engine row order is an implementation detail; compare normalized.
        assert_eq!(
            ct_common::query::normalize_rows(answer.rows),
            ct_common::query::normalize_rows(engine.query(&q).unwrap())
        );
        admission.shutdown();
    }

    #[test]
    fn overload_is_refused_with_retry_after() {
        let engine = tiny_engine(1);
        // A long forming window and depth 2: the queue stays occupied while
        // the batch forms, so the third submit in the window is refused.
        // Idle-flush must be off — it would drain each submit immediately
        // and the queue would never fill.
        let cfg = AdmissionConfig {
            max_depth: 2,
            max_batch: 64,
            max_delay: Duration::from_millis(500),
            retry_after_secs: 7,
            flush_on_idle: false,
        };
        let admission = Admission::start(engine.clone(), cfg, None);
        let q = query_for(&engine);
        let rx1 = admission.submit(q.clone()).unwrap();
        let rx2 = admission.submit(q.clone()).unwrap();
        let refused = admission.submit(q.clone()).unwrap_err();
        assert!(
            matches!(refused, SubmitError::Overloaded { retry_after_secs: 7 }),
            "{refused:?}"
        );
        assert!(rx1.recv().unwrap().is_ok());
        assert!(rx2.recv().unwrap().is_ok());
        admission.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let engine = tiny_engine(2);
        let cfg = AdmissionConfig {
            max_delay: Duration::from_millis(200),
            ..AdmissionConfig::default()
        };
        let admission = Admission::start(engine.clone(), cfg, None);
        let q = query_for(&engine);
        let receivers: Vec<_> =
            (0..8).map(|_| admission.submit(q.clone()).unwrap()).collect();
        admission.shutdown();
        for rx in receivers {
            assert!(rx.recv().unwrap().is_ok(), "queued query dropped on shutdown");
        }
    }

    #[test]
    fn panicked_batch_answers_errors_and_keeps_serving() {
        let engine = tiny_engine(1);
        let recorder = engine.env().recorder().clone();
        let admission = Admission::start(engine.clone(), AdmissionConfig::default(), None);
        let p = RolapEngine::catalog(&*engine).attr_by_name("p").unwrap();
        // An inverted range never passes HTTP validation, but a struct
        // literal reaches the executor, where Rect::new panics. The batcher
        // must answer it as an error and survive.
        let poison = SliceQuery { group_by: vec![], predicates: vec![], ranges: vec![(p, 3, 1)] };
        let rx = admission.submit(poison).unwrap();
        let answer = rx.recv().expect("batcher died on a panicking query");
        assert!(answer.unwrap_err().contains("panicked"));
        // The queue drained and the depth gauge is back at zero, so no
        // capacity was permanently eaten.
        assert_eq!(recorder.gauge("server.admission.depth").get(), 0.0);
        // And the batcher still answers fresh work.
        let rx = admission.submit(query_for(&engine)).unwrap();
        assert!(rx.recv().unwrap().is_ok(), "batcher thread was killed by the panic");
        admission.shutdown();
    }

    #[test]
    fn scheduler_error_releases_depth_capacity() {
        let engine = tiny_engine(1);
        let recorder = engine.env().recorder().clone();
        let admission = Admission::start(engine.clone(), AdmissionConfig::default(), None);
        // An attribute outside every view's derivation set: planning fails
        // with a clean error, which must come back as Err, not eat a slot.
        let alien = ct_common::AttrId(2);
        let rx = admission.submit(SliceQuery::new(vec![alien], vec![])).unwrap();
        assert!(rx.recv().unwrap().is_err());
        assert_eq!(recorder.gauge("server.admission.depth").get(), 0.0);
        let rx = admission.submit(query_for(&engine)).unwrap();
        assert!(rx.recv().unwrap().is_ok());
        admission.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_refused_not_stranded() {
        let engine = tiny_engine(1);
        let admission = Admission::start(engine.clone(), AdmissionConfig::default(), None);
        admission.shutdown();
        // The batcher may already be gone; a submit that enqueued anyway
        // would block its caller in recv() forever. It must refuse instead.
        let refused = admission.submit(query_for(&engine)).unwrap_err();
        assert!(matches!(refused, SubmitError::ShuttingDown), "{refused:?}");
    }
}
