//! Admission control for the query path.
//!
//! [`Admission::submit`] does the whole job on the caller's (connection)
//! thread: refuse when shutting down, refuse when `max_depth` queries are
//! admitted and unanswered (HTTP `429` + `Retry-After`, so waiters cannot
//! pile up), probe the answer cache, and on a miss run the query through
//! [`ServingEngine::serve_batch`] (a batch of one), normalise, populate.
//!
//! Misses serialise on a mutex, so one query executes at a time — on
//! purpose: on two cores, two scans beside the compactor pushed
//! `serve_ingest_mix` p99 up 1.3–1.5×, outside its bound (DESIGN.md,
//! "Admission control"). Cache hits never take the mutex.

use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ct_common::query::{normalize_rows, QueryRow};
use ct_common::SliceQuery;
use cubetree::ServingEngine;

use crate::cache::AnswerCache;

/// Admission-control tuning.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Most queries admitted and not yet answered (one executing, the rest
    /// parked behind it); a submit beyond it is refused (429).
    pub max_depth: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { max_depth: 256 }
    }
}

/// An answered query: the rows and the generation they were read under.
#[derive(Debug)]
pub struct QueryAnswer {
    /// Generation number the query was executed against.
    pub generation: u64,
    /// Result rows, key-sorted; a cache hit shares the cached allocation.
    pub rows: Arc<Vec<QueryRow>>,
}

/// Submission refused without executing.
#[derive(Debug)]
pub enum SubmitError {
    /// `max_depth` queries are in flight; the HTTP layer answers `429`.
    Overloaded,
    /// [`Admission::shutdown`] has been called. The HTTP layer answers `503`.
    ShuttingDown,
}

/// The outcome of an admitted query: the answer, or the engine's error message.
#[derive(Debug)]
pub struct Answered(Result<QueryAnswer, String>);

impl Answered {
    /// Yields the outcome; the query already ran, so this never waits or fails.
    pub fn recv(self) -> Result<Result<QueryAnswer, String>, Infallible> {
        Ok(self.0)
    }
}

/// Handle for submitting queries.
pub struct Admission {
    engine: Arc<dyn ServingEngine>,
    cache: Option<Arc<AnswerCache>>,
    config: AdmissionConfig,
    /// Admitted and not yet answered. A mutex, not an atomic, so the depth
    /// gauge is written in the same order as the count it mirrors.
    in_flight: Mutex<usize>,
    /// Held while a query executes: one at a time (see the module docs).
    executing: Mutex<()>,
    shutdown: AtomicBool,
    enqueued: ct_obs::Counter,
    rejected: ct_obs::Counter,
    depth: ct_obs::Gauge,
}

/// Both mutexes guard state that is valid at every step (a unit; a count
/// changed by one `+= 1` or `-= 1`), so poison carries no information.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One unit of `max_depth`, released on drop so a panic cannot eat capacity.
struct Slot<'a>(&'a Admission);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut in_flight = lock(&self.0.in_flight);
        *in_flight -= 1;
        self.0.depth.set(*in_flight as f64);
    }
}

impl Admission {
    /// Builds the handle; with a `cache`, queries probe it before executing.
    pub fn start(
        engine: Arc<dyn ServingEngine>,
        config: AdmissionConfig,
        cache: Option<Arc<AnswerCache>>,
    ) -> Admission {
        let recorder = engine.recorder().clone();
        Admission {
            engine,
            cache,
            config,
            in_flight: Mutex::new(0),
            executing: Mutex::new(()),
            shutdown: AtomicBool::new(false),
            enqueued: recorder.counter("server.admission.enqueued"),
            rejected: recorder.counter("server.admission.rejected"),
            depth: recorder.gauge("server.admission.depth"),
        }
    }

    /// Answers one validated query on the calling thread.
    ///
    /// # Errors
    /// [`SubmitError::Overloaded`] when `max_depth` queries are in flight;
    /// [`SubmitError::ShuttingDown`] after [`Admission::shutdown`].
    pub fn submit(&self, query: SliceQuery) -> Result<Answered, SubmitError> {
        if self.is_shutting_down() {
            self.rejected.inc();
            return Err(SubmitError::ShuttingDown);
        }
        let _slot = {
            let mut in_flight = lock(&self.in_flight);
            if *in_flight >= self.config.max_depth {
                self.rejected.inc();
                return Err(SubmitError::Overloaded);
            }
            *in_flight += 1;
            self.depth.set(*in_flight as f64);
            Slot(self)
        };
        self.enqueued.inc();
        Ok(Answered(self.answer(&query)))
    }

    /// Stops admitting; queries already admitted finish on their own threads.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True after [`Admission::shutdown`]; `/ingest` stops admitting on the same signal.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Probes the cache with the engine's current
    /// [`answer stamps`](ServingEngine::answer_stamps): a hit shares the
    /// memoized rows (no planning, no pin, no page I/O); a miss executes under
    /// one pinned snapshot and populates. A hit is labelled with the
    /// generation of the stamps that matched — the match
    /// proves the visible state equals the one the rows were computed from,
    /// and the last stamp carries the engine-wide generation (a Cubetree
    /// answer's only stamp); reading `engine.generation()` again could race a
    /// refresh and mislabel the rows.
    /// The engine isolates panics: a panicking query comes back as `Err`.
    fn answer(&self, query: &SliceQuery) -> Result<QueryAnswer, String> {
        let mut populate = None;
        if let Some(cache) = &self.cache {
            let key = query.cache_key();
            let stamps = self.engine.answer_stamps(query);
            if let Some(rows) = cache.probe(&key, &stamps) {
                let generation =
                    stamps.last().map_or_else(|| self.engine.generation(), |s| s.generation);
                return Ok(QueryAnswer { generation, rows });
            }
            populate = Some((cache, key));
        }
        let (generation, mut answers) = {
            let _one_at_a_time = lock(&self.executing);
            self.engine.serve_batch(std::slice::from_ref(query))
        };
        let served = answers.pop().ok_or("engine returned no answer")??;
        let rows = Arc::new(normalize_rows(served.rows));
        if let Some((cache, key)) = populate {
            cache.populate(key, served.stamps, Arc::clone(&rows));
        }
        Ok(QueryAnswer { generation, rows })
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
        let answer = admission.submit(q.clone()).unwrap().recv().unwrap().unwrap();
        assert_eq!(answer.generation, engine.forest().unwrap().generation_number());
        // Engine row order is an implementation detail; admission normalizes.
        assert_eq!(*answer.rows, normalize_rows(engine.query(&q).unwrap()));
        admission.shutdown();
    }

    /// Parks two submitters (the whole `max_depth`) behind an execution
    /// mutex the test holds, runs `while_parked`, then releases the mutex
    /// and returns the parked submitters' outcomes.
    fn with_two_parked(
        while_parked: impl FnOnce(&Admission, &SliceQuery),
    ) -> Vec<Result<QueryAnswer, String>> {
        let engine = tiny_engine(2);
        let cfg = AdmissionConfig { max_depth: 2 };
        let admission = Admission::start(engine.clone(), cfg, None);
        let q = query_for(&engine);
        std::thread::scope(|s| {
            let held = lock(&admission.executing);
            let parked: Vec<_> =
                (0..2).map(|_| s.spawn(|| admission.submit(q.clone()))).collect();
            while *lock(&admission.in_flight) < 2 {
                std::thread::yield_now();
            }
            while_parked(&admission, &q);
            drop(held);
            parked.into_iter().map(|t| t.join().unwrap().unwrap().recv().unwrap()).collect()
        })
    }

    #[test]
    fn overload_is_refused() {
        let answers = with_two_parked(|admission, q| {
            let refused = admission.submit(q.clone()).unwrap_err();
            assert!(matches!(refused, SubmitError::Overloaded), "{refused:?}");
        });
        assert!(answers.iter().all(Result::is_ok), "{answers:?}");
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let answers = with_two_parked(|admission, q| {
            admission.shutdown();
            let refused = admission.submit(q.clone()).unwrap_err();
            assert!(matches!(refused, SubmitError::ShuttingDown), "{refused:?}");
        });
        assert!(answers.iter().all(Result::is_ok), "admitted query dropped on shutdown");
    }

    #[test]
    fn panicked_batch_answers_errors_and_keeps_serving() {
        let engine = tiny_engine(1);
        let recorder = engine.env().recorder().clone();
        let admission = Admission::start(engine.clone(), AdmissionConfig::default(), None);
        let p = RolapEngine::catalog(&*engine).attr_by_name("p").unwrap();
        // An inverted range never passes HTTP validation, but a struct
        // literal reaches the executor, where Rect::new panics. It must be
        // answered as an error, not unwind through the submitter.
        let poison = SliceQuery { group_by: vec![], predicates: vec![], ranges: vec![(p, 3, 1)] };
        let answer = admission.submit(poison).unwrap().recv().unwrap();
        assert!(answer.unwrap_err().contains("panicked"));
        // The slot was released and the depth gauge is back at zero, so no
        // capacity was permanently eaten.
        assert_eq!(recorder.gauge("server.admission.depth").get(), 0.0);
        // And fresh work is still answered.
        let answer = admission.submit(query_for(&engine)).unwrap().recv().unwrap();
        assert!(answer.is_ok(), "admission was wedged by the panic");
        admission.shutdown();
    }

    #[test]
    fn planning_error_releases_depth_capacity() {
        let engine = tiny_engine(1);
        let recorder = engine.env().recorder().clone();
        let admission = Admission::start(engine.clone(), AdmissionConfig::default(), None);
        // An attribute outside every view's derivation set: planning fails
        // with a clean error, which must come back as Err, not eat a slot.
        let alien = ct_common::AttrId(2);
        let answer = admission.submit(SliceQuery::new(vec![alien], vec![])).unwrap();
        assert!(answer.recv().unwrap().is_err());
        assert_eq!(recorder.gauge("server.admission.depth").get(), 0.0);
        let answer = admission.submit(query_for(&engine)).unwrap();
        assert!(answer.recv().unwrap().is_ok());
        admission.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_refused_not_stranded() {
        let engine = tiny_engine(1);
        let admission = Admission::start(engine.clone(), AdmissionConfig::default(), None);
        admission.shutdown();
        let refused = admission.submit(query_for(&engine)).unwrap_err();
        assert!(matches!(refused, SubmitError::ShuttingDown), "{refused:?}");
    }
}
