//! The two end-to-end ROLAP storage engines of the paper's evaluation.
//!
//! Both engines materialize the *same* logical view set over the same paged
//! storage substrate and answer the same [`SliceQuery`] model, so every
//! difference in the experiments comes from the storage organization itself:
//!
//! * [`ConventionalEngine`] — "the straight forward implementation": each
//!   view in a heap table, indexed by B-trees; row-at-a-time incremental
//!   maintenance (paper §3, the Informix-tables configuration).
//! * [`CubetreeEngine`] — the paper's proposal: the views in a SelectMapping
//!   forest of packed compressed R-trees with merge-pack refresh.

mod conventional;
mod cubetree_engine;

pub use conventional::{ConventionalConfig, ConventionalEngine, LoadBreakdown};
pub use cubetree_engine::{CubetreeConfig, CubetreeEngine};

use crate::delta::{DeltaConfig, DeltaStats};
use crate::forest::AnswerStamp;
use crate::query::{execute_queries, QuerySource};
use ct_common::query::QueryRow;
use ct_common::{AggFn, Catalog, Result, SliceQuery};
use ct_cube::Relation;
use ct_storage::{IoSnapshot, StorageEnv};

/// [`ServingEngine::serve_batch`] over pinned `sources`; every answer
/// carries `stamps`, the freshness stamps of those pins. A query no view can
/// answer fails alone; an execution error fails the batch. Execution is
/// panic-isolated: a panicking batch is answered as errors instead of
/// unwinding into the server's connection thread, which would drop the
/// connection without a response.
pub(crate) fn serve_sources(
    sources: &[QuerySource<'_>],
    catalog: &Catalog,
    queries: &[SliceQuery],
    stamps: &[AnswerStamp],
) -> Vec<std::result::Result<ServedAnswer, String>> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_queries(sources, catalog, queries)
    }));
    let whole_batch = |msg: String| queries.iter().map(|_| Err(msg.clone())).collect();
    match outcome {
        Ok(Ok(results)) => results
            .into_iter()
            .map(|rows| match rows {
                Ok(rows) => Ok(ServedAnswer { rows, stamps: stamps.to_vec() }),
                Err(e) => Err(format!("query execution failed: {e}")),
            })
            .collect(),
        Ok(Err(e)) => whole_batch(format!("batch execution failed: {e}")),
        Err(_) => whole_batch("batch execution panicked".to_string()),
    }
}

/// A complete ROLAP storage engine: load a fact relation, answer slice
/// queries, apply bulk increments.
pub trait RolapEngine {
    /// Short engine name for reports.
    fn name(&self) -> &'static str;

    /// Computes and materializes the configured view set from `fact`.
    fn load(&mut self, fact: &Relation) -> Result<()>;

    /// Answers one slice query from the materialized views.
    fn query(&self, q: &SliceQuery) -> Result<Vec<QueryRow>>;

    /// Applies a fact-table increment to every materialized view
    /// (each engine's native refresh strategy).
    fn update(&mut self, delta: &Relation) -> Result<()>;

    /// Bytes allocated by the materialized views and their indexes.
    fn storage_bytes(&self) -> u64;

    /// The engine's storage environment (for I/O accounting).
    fn env(&self) -> &StorageEnv;

    /// The warehouse catalog.
    fn catalog(&self) -> &Catalog;
}

/// One materialized placement as reported by [`ServingEngine::views`].
#[derive(Clone, Debug)]
pub struct ViewInfo {
    /// Logical view id.
    pub id: u32,
    /// Human-readable view name (`V{a, b}` style).
    pub name: String,
    /// Projection attribute names, in stored sort order.
    pub projection: Vec<String>,
    /// The view's aggregate function.
    pub agg: AggFn,
    /// Materialized entries in the listed generation.
    pub entries: u64,
    /// True for a sort-order replica of another placement.
    pub replica: bool,
}

/// One query's answer from [`ServingEngine::serve_batch`], paired with the
/// freshness stamps of the pinned state it was computed from. The stamps are
/// what the serving layer's answer cache stores alongside the rows: a later
/// probe whose [`ServingEngine::answer_stamps`] equal these proves the
/// current visible state is identical to the one this answer was read under,
/// so replaying the rows is MVCC-equivalent to executing the query again.
///
/// A [`CubetreeEngine`] answer carries exactly one stamp: the generation and
/// delta epoch of its one pin.
#[derive(Clone, Debug)]
pub struct ServedAnswer {
    /// The query's result rows.
    pub rows: Vec<QueryRow>,
    /// Freshness stamps of the state the rows were computed from.
    pub stamps: Vec<AnswerStamp>,
}

/// The engine face the HTTP serving layer binds to: reads under snapshot
/// pins, streaming and bulk writes, delta accounting, and the
/// metrics surface. Object-safe so the server holds it as
/// `Arc<dyn ServingEngine>`; [`CubetreeEngine`] implements it.
pub trait ServingEngine: Send + Sync {
    /// True once a forest is materialized (serving requires a loaded engine).
    fn loaded(&self) -> bool;

    /// The warehouse catalog (request validation resolves names against it).
    fn catalog(&self) -> &Catalog;

    /// The engine's metrics recorder.
    fn recorder(&self) -> &ct_obs::Recorder;

    /// A monotonic freshness stamp: the committed generation number.
    fn generation(&self) -> u64;

    /// Checks that `q` is answerable from the materialized views, without
    /// executing it (the HTTP layer turns a failure into `400`).
    fn plan_check(&self, q: &SliceQuery) -> Result<()>;

    /// The materialized placements plus the generation stamp they were
    /// listed under.
    fn views(&self) -> Result<(u64, Vec<ViewInfo>)>;

    /// Executes `queries` in arrival order, one in-order scan each, under a
    /// single snapshot (one MVCC pin) and returns the generation stamp with
    /// per-query outcomes. The server passes one query; the slice form is
    /// kept for the `benchmark/` package, which calls it.
    ///
    /// Execution must be panic-isolated: a poisoned query (or batch) comes
    /// back as `Err` strings rather than unwinding into the caller, so the
    /// server's connection thread answers `500` instead of dying.
    fn serve_batch(&self, queries: &[SliceQuery]) -> (u64, Vec<std::result::Result<ServedAnswer, String>>);

    /// The freshness stamps a fresh execution of `q` would carry right now
    /// (see [`ServedAnswer::stamps`]), without pinning or executing
    /// anything. The answer cache probes with these: equality against a
    /// stored entry's stamps proves the entry is current, and the last
    /// stamp's generation is the engine-wide generation `serve_batch` would
    /// report, which is how a cache hit is labelled. Returns an empty
    /// vector when the engine is not loaded (an empty probe never matches a
    /// stored entry, so unloaded engines simply miss).
    fn answer_stamps(&self, q: &SliceQuery) -> Vec<AnswerStamp>;

    /// Bulk-incremental refresh through a shared reference (merge-pack the
    /// next generation while concurrent reads keep their pins).
    fn refresh(&self, delta: &Relation) -> Result<()>;

    /// Streams fact rows into the in-memory delta tier; returns rows
    /// absorbed.
    fn ingest(&self, rows: &Relation) -> Result<u64>;

    /// Resident-delta accounting (`None` before load).
    fn delta_stats(&self) -> Option<DeltaStats>;

    /// True when the delta tier has crossed the compaction thresholds.
    fn compaction_due(&self, config: &DeltaConfig) -> bool;

    /// Merge-packs resident delta rows into the next generation; `true`
    /// if anything compacted.
    fn compact_delta(&self) -> Result<bool>;

    /// The `/metrics` JSON body.
    fn metrics_json(&self) -> String {
        self.recorder().snapshot().to_json()
    }

    /// Physical I/O of the engine's storage environment.
    fn io_snapshot(&self) -> IoSnapshot;
}
