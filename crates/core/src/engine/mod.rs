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
pub(crate) use cubetree_engine::view_infos;

use crate::delta::{DeltaConfig, DeltaStats};
use crate::forest::AnswerStamp;
use crate::query::{execute_query_batch, QuerySource};
use crate::sched::SchedSummary;
use ct_common::query::QueryRow;
use ct_common::{AggFn, Catalog, Result, SliceQuery};
use ct_cube::Relation;
use ct_storage::{IoSnapshot, StorageEnv};

/// Results of answering a whole query batch.
pub struct BatchResult {
    /// Per-query result rows, positionally aligned with the input batch.
    pub results: Vec<Vec<QueryRow>>,
    /// Scheduler statistics, when the engine ran the batch through a
    /// scheduler (`None` for the sequential fallback).
    pub sched: Option<SchedSummary>,
}

/// [`RolapEngine::query_batch`] of both Cubetree engines over their pinned
/// `sources` (see [`execute_query_batch`]): all or nothing, the first failing
/// query's error fails the batch.
pub(crate) fn query_sources(
    sources: &[QuerySource<'_>],
    consults: impl Fn(usize, usize) -> bool,
    threads: usize,
    catalog: &Catalog,
    queries: &[SliceQuery],
) -> Result<BatchResult> {
    let (results, sched) = execute_query_batch(sources, consults, threads, catalog, queries)?;
    Ok(BatchResult { results: results.into_iter().collect::<Result<_>>()?, sched })
}

/// [`ServingEngine::serve_batch`] of both Cubetree engines over their pinned
/// `sources`; `stamps(i)` are query `i`'s freshness stamps under those pins.
/// A query no view can answer fails alone; an execution error fails the
/// batch. Execution is panic-isolated: a panicking batch is answered as
/// errors instead of unwinding into the server's connection thread, which
/// would drop the connection without a response.
pub(crate) fn serve_sources(
    sources: &[QuerySource<'_>],
    consults: impl Fn(usize, usize) -> bool,
    threads: usize,
    catalog: &Catalog,
    queries: &[SliceQuery],
    stamps: impl Fn(usize) -> Vec<AnswerStamp>,
) -> Vec<std::result::Result<ServedAnswer, String>> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_query_batch(sources, consults, threads, catalog, queries)
    }));
    let whole_batch = |msg: String| queries.iter().map(|_| Err(msg.clone())).collect();
    match outcome {
        Ok(Ok((results, _))) => results
            .into_iter()
            .enumerate()
            .map(|(i, rows)| match rows {
                Ok(rows) => Ok(ServedAnswer { rows, stamps: stamps(i) }),
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

    /// Answers a batch of slice queries. The default implementation runs
    /// [`RolapEngine::query`] sequentially in arrival order; engines may
    /// override it to schedule and parallelize the batch, as long as the
    /// per-query results are identical to the sequential loop's.
    fn query_batch(&self, queries: &[SliceQuery]) -> Result<BatchResult> {
        let results =
            queries.iter().map(|q| self.query(q)).collect::<Result<Vec<_>>>()?;
        Ok(BatchResult { results, sched: None })
    }

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
    /// Materialized entries (summed across shards for a sharded engine).
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
/// A [`CubetreeEngine`] answer carries exactly one stamp. A sharded answer
/// carries one stamp per shard the query was routed to, in shard order,
/// followed by a *plan guard* stamp (the sum of every shard's generation,
/// with a zero delta epoch): central planning scores placements by entry
/// counts summed over **all** shards, so a refresh anywhere can change which
/// placement answers a query even when the consulted shards did not move.
#[derive(Clone, Debug)]
pub struct ServedAnswer {
    /// The query's result rows.
    pub rows: Vec<QueryRow>,
    /// Freshness stamps of the state the rows were computed from.
    pub stamps: Vec<AnswerStamp>,
}

/// The engine face the HTTP serving layer binds to: batched reads under
/// snapshot pins, streaming and bulk writes, delta accounting, and the
/// metrics surface. Object-safe so one server binary can front either the
/// single [`CubetreeEngine`] or a [`crate::shard::ShardedEngine`] — routes
/// fan out across shards and merge *before* serialization, transparently to
/// clients.
pub trait ServingEngine: Send + Sync {
    /// True once a forest is materialized (serving requires a loaded engine).
    fn loaded(&self) -> bool;

    /// The warehouse catalog (request validation resolves names against it).
    fn catalog(&self) -> &Catalog;

    /// The engine's metrics recorder.
    fn recorder(&self) -> &ct_obs::Recorder;

    /// A monotonic freshness stamp: the committed generation number, or for
    /// a sharded engine the sum of per-shard generations (shards refresh
    /// independently, so a single per-forest number does not exist).
    fn generation(&self) -> u64;

    /// Checks that `q` is answerable from the materialized views, without
    /// executing it (the HTTP layer turns a failure into `400`).
    fn plan_check(&self, q: &SliceQuery) -> Result<()>;

    /// The materialized placements plus the generation stamp they were
    /// listed under.
    fn views(&self) -> Result<(u64, Vec<ViewInfo>)>;

    /// Executes one batch (the server submits batches of one) under a single
    /// snapshot per storage environment (one MVCC pin, plus one per shard for
    /// a sharded engine) and returns the generation stamp with per-query
    /// outcomes.
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
    /// next generation(s) while concurrent reads keep their pins).
    fn refresh(&self, delta: &Relation) -> Result<()>;

    /// Streams fact rows into the in-memory delta tier(s); returns rows
    /// absorbed. A sharded engine routes rows by the partition key.
    fn ingest(&self, rows: &Relation) -> Result<u64>;

    /// Resident-delta accounting, summed across shards (`None` before load).
    fn delta_stats(&self) -> Option<DeltaStats>;

    /// True when any delta tier has crossed the compaction thresholds.
    fn compaction_due(&self, config: &DeltaConfig) -> bool;

    /// Merge-packs resident delta rows into the next generation(s); `true`
    /// if anything compacted.
    fn compact_delta(&self) -> Result<bool>;

    /// The `/metrics` JSON body.
    fn metrics_json(&self) -> String {
        self.recorder().snapshot().to_json()
    }

    /// Physical I/O summed over every storage environment the engine owns.
    fn io_snapshot(&self) -> IoSnapshot;
}
