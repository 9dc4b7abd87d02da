//! Background delta-tier compaction for the serving layer.
//!
//! `POST /ingest` lands rows in the engine's in-memory delta tier; this
//! module's [`Compactor`] thread watches the tier's rows and age against
//! the [`IngestConfig`] thresholds and triggers the forest's merge-pack
//! ([`ServingEngine::compact_delta`]) when any is exceeded. Ingestion
//! never stalls behind a compaction — the tier seals its active runs and
//! keeps absorbing into fresh ones — and a failed compaction
//! leaves the sealed runs resident (still answering queries) for the next
//! attempt. On shutdown the compactor drains: one final merge-pack moves
//! everything resident into the packed trees before the thread exits, so a
//! clean shutdown loses no acknowledged rows.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use cubetree::ServingEngine;

/// Streaming-ingestion tuning: the tier's row and age thresholds. `/ingest`
/// answers `429` once `4 × max_rows` rows are resident, so a compactor that
/// cannot keep up degrades into backpressure instead of unbounded memory
/// growth (the write-side analogue of admission's `max_depth` bound).
pub use cubetree::delta::DeltaConfig as IngestConfig;

/// How often the compactor re-checks the thresholds: a sixteenth of
/// `max_age`, clamped to 5–100 ms, so an aged tier waits at most that long
/// past its deadline.
fn poll_every(config: &IngestConfig) -> Duration {
    (config.max_age / 16).clamp(Duration::from_millis(5), Duration::from_millis(100))
}

struct Shared {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// Handle to the background compaction thread.
pub struct Compactor {
    shared: Arc<Shared>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Compactor {
    /// Spawns the compaction loop over `engine`.
    pub fn start(engine: Arc<dyn ServingEngine>, config: IngestConfig) -> Compactor {
        let shared = Arc::new(Shared { stop: Mutex::new(false), wake: Condvar::new() });
        let run_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("ct-server-compactor".to_string())
            .spawn(move || run(engine, run_shared, config))
            .ok();
        Compactor { shared, thread: Mutex::new(thread) }
    }

    /// Stops the loop, runs the final drain compaction, and joins the
    /// thread. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut stop = self.shared.stop.lock().unwrap_or_else(|e| e.into_inner());
            *stop = true;
        }
        self.shared.wake.notify_all();
        let handle = self.thread.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(t) = handle {
            let _ = t.join();
        }
    }
}

fn run(engine: Arc<dyn ServingEngine>, shared: Arc<Shared>, config: IngestConfig) {
    let errors = engine.recorder().counter("ingest.compact.errors");
    loop {
        {
            let stop = shared.stop.lock().unwrap_or_else(|e| e.into_inner());
            if *stop {
                break;
            }
            let (stop, _timeout) = shared
                .wake
                .wait_timeout(stop, poll_every(&config))
                .unwrap_or_else(|e| e.into_inner());
            if *stop {
                break;
            }
        }
        let due = engine.compaction_due(&config);
        if due {
            if let Err(e) = engine.compact_delta() {
                // The sealed runs stay resident and queryable; log, count,
                // and let the next tick retry.
                errors.inc();
                eprintln!("ct-server: delta compaction failed (will retry): {e}");
            }
        }
    }
    // Shutdown drain: merge-pack whatever is still resident so a clean
    // shutdown persists every acknowledged ingest.
    if let Err(e) = engine.compact_delta() {
        errors.inc();
        eprintln!("ct-server: final delta drain failed: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_common::{AggFn, Catalog, SliceQuery, ViewDef};
    use ct_cube::Relation;
    use cubetree::engine::{CubetreeConfig, CubetreeEngine, RolapEngine};
    use std::time::Instant;

    fn engine() -> Arc<CubetreeEngine> {
        let mut catalog = Catalog::new();
        let p = catalog.add_attr("p", 6);
        let s = catalog.add_attr("s", 3);
        let views = vec![ViewDef::new(0, vec![p, s], AggFn::Sum)];
        let mut engine = CubetreeEngine::new(catalog, CubetreeConfig::new(views)).unwrap();
        engine.load(&Relation::from_fact(vec![p, s], vec![1, 1], &[10])).unwrap();
        Arc::new(engine)
    }

    #[test]
    fn compacts_when_thresholds_trip_and_drains_on_shutdown() {
        let e = engine();
        let p = RolapEngine::catalog(&*e).attr_by_name("p").unwrap();
        let s = RolapEngine::catalog(&*e).attr_by_name("s").unwrap();
        let config = IngestConfig { max_rows: 2, max_age: Duration::from_secs(3600) };
        let compactor = Compactor::start(e.clone(), config);
        e.ingest(&Relation::from_fact(vec![p, s], vec![2, 2, 3, 3], &[5, 7])).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while e.delta_stats().unwrap().resident_rows() > 0 {
            assert!(Instant::now() < deadline, "background compaction never triggered");
            std::thread::sleep(Duration::from_millis(5));
        }
        let gen_after = e.forest().unwrap().generation_number();
        assert!(gen_after >= 1, "compaction commits a new generation");
        // Rows below threshold stay resident until shutdown drains them.
        e.ingest(&Relation::from_fact(vec![p, s], vec![4, 1], &[9])).unwrap();
        compactor.shutdown();
        assert_eq!(e.delta_stats().unwrap().resident_rows(), 0, "shutdown drains the tier");
        let total = e.query(&SliceQuery::new(vec![], vec![])).unwrap();
        assert_eq!(total[0].agg, 31.0, "all ingested rows survive in the trees");
        compactor.shutdown(); // idempotent
    }

    #[test]
    fn poll_interval_follows_max_age() {
        let every =
            |ms| poll_every(&IngestConfig { max_rows: 1, max_age: Duration::from_millis(ms) });
        assert_eq!(every(30_000), Duration::from_millis(100));
        assert_eq!(every(400), Duration::from_millis(25));
        assert_eq!(every(50), Duration::from_millis(5));
    }
}
