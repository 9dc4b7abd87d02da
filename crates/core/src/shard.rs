//! Partitioned forests: sharding the fact space across independent
//! Cubetree environments with scatter-gather query merging.
//!
//! The paper packs each Cubetree into one sequential disk organization,
//! which caps build and query parallelism at a single buffer pool and
//! storage environment. A [`ShardedEngine`] partitions the fact space on a
//! *partition attribute* (hash by default, range splits under skew) into N
//! independent shards, each a full [`CubetreeEngine`]: its own buffer pool,
//! manifest, MVCC generations, and delta tier. Builds, refreshes, and
//! compactions run per-shard in parallel on the scoped-worker pool; queries
//! are routed to the owning shard(s) by pruning on the partition key and the
//! partial per-shard answers are merged
//! ([`crate::query::PartialAnswer::absorb`]) before a single finalization —
//! the shards are simply the sources of the one read path
//! (`crate::query::execute_query_batch`).
//!
//! Because every aggregate state is mergeable (COUNT/SUM/MIN/MAX compose;
//! AVG is finalized from SUM+COUNT only after the gather), the merged answer
//! is bit-identical to the unsharded engine for every query class — the
//! equivalence suite proves this at shards ∈ {1, 2, 3, 4}. The gather
//! protocol is partition-agnostic: it would be the same if shards were
//! remote peers instead of local environments.

use crate::delta::{DeltaConfig, DeltaSnapshot, DeltaStats};
use crate::engine::{
    query_sources, serve_sources, BatchResult, CubetreeConfig, CubetreeEngine, RolapEngine,
    ServedAnswer, ServingEngine, ViewInfo,
};
use crate::forest::{AnswerStamp, CubetreeForest, ReaderPin};
use crate::jobs::{map_jobs, run_jobs, Job};
use crate::query::QuerySource;
use ct_common::query::QueryRow;
use ct_common::{AttrId, Catalog, CtError, Result, SliceQuery};
use ct_cube::Relation;
use ct_storage::{FaultPlan, IoSnapshot};
use std::path::{Path, PathBuf};

/// How many partition-column values the skew detector samples when it has
/// to derive range-split boundaries (deterministic stride sampling).
const SKEW_SAMPLE_CAP: usize = 65_536;

/// Partitioning policy of a [`ShardedEngine`].
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// Number of shards (clamped to at least 1).
    pub shards: usize,
    /// The attribute whose value routes a fact row to its shard. Defaults
    /// to the catalog's leading attribute (`AttrId(0)`) when `None`.
    pub partition_attr: Option<AttrId>,
    /// Skew guard: if hash sharding would leave some shard holding more
    /// than `skew_factor ×` the mean row count, the load falls back to
    /// range splits from a sampled quantile sketch (and logs `shard.skew`).
    pub skew_factor: f64,
}

impl ShardSpec {
    /// A hash-sharding spec over `shards` shards with the default 2× skew
    /// guard.
    pub fn new(shards: usize) -> Self {
        ShardSpec { shards: shards.max(1), partition_attr: None, skew_factor: 2.0 }
    }

    /// Selects the partition attribute explicitly.
    pub fn with_partition_attr(mut self, attr: AttrId) -> Self {
        self.partition_attr = Some(attr);
        self
    }

    /// Overrides the skew-fallback threshold (multiples of the mean).
    pub fn with_skew_factor(mut self, factor: f64) -> Self {
        self.skew_factor = factor;
        self
    }
}

impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec::new(1)
    }
}

/// The routing function from partition-key values to shard indices.
///
/// Hash routing spreads arbitrary key distributions but can only prune
/// equality slices; range routing (the skew fallback) keys each shard to a
/// contiguous value interval, so range slices prune too.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardRouter {
    /// `shard = splitmix64(value) mod shards`.
    Hash {
        /// Number of shards.
        shards: usize,
    },
    /// `boundaries` is a sorted list of `shards - 1` inclusive upper cuts:
    /// shard `i` owns values `v` with `boundaries[i-1] < v <= boundaries[i]`
    /// (shard 0 from the bottom, the last shard to the top).
    Range {
        /// Sorted inclusive upper boundaries, one fewer than the shard count.
        boundaries: Vec<u64>,
    },
}

/// A Fibonacci-free 64-bit finalizer (splitmix64). Deterministic across
/// runs and platforms, so shard placement is stable.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl ShardRouter {
    /// Number of shards this router spreads over.
    pub fn shards(&self) -> usize {
        match self {
            ShardRouter::Hash { shards } => *shards,
            ShardRouter::Range { boundaries } => boundaries.len() + 1,
        }
    }

    /// The owning shard of a partition-key value.
    pub fn route(&self, v: u64) -> usize {
        match self {
            ShardRouter::Hash { shards } => (splitmix64(v) % *shards as u64) as usize,
            ShardRouter::Range { boundaries } => boundaries.partition_point(|&b| b < v),
        }
    }

    /// The shards a query must consult, pruned on its partition-key
    /// constraint. Hash routing prunes equality slices to one shard; range
    /// routing prunes interval constraints to the covering shard span; an
    /// unconstrained query fans out to every shard.
    pub fn shards_for(&self, q: &SliceQuery, partition_attr: AttrId) -> Vec<usize> {
        let n = self.shards();
        match q.range_of(partition_attr) {
            Some((lo, hi)) if lo == hi => vec![self.route(lo)],
            Some((lo, hi)) => match self {
                // A hash spreads an interval over every shard.
                ShardRouter::Hash { .. } => (0..n).collect(),
                ShardRouter::Range { .. } => (self.route(lo)..=self.route(hi)).collect(),
            },
            None => (0..n).collect(),
        }
    }
}

/// Configuration of a [`ShardedEngine`]: a per-shard base engine config plus
/// the partitioning spec.
#[derive(Clone)]
pub struct ShardedConfig {
    /// Per-shard engine configuration. `base.threads` is the *total* worker
    /// budget: the sharded layer runs `min(threads, shards)` shard jobs at
    /// once and gives each shard `max(1, threads / shards)` inner workers.
    pub base: CubetreeConfig,
    /// Partitioning policy.
    pub spec: ShardSpec,
    /// Optional *distinct* per-shard fault plans (fault-plan clones share
    /// state, so crash tests that must kill one shard but not its siblings
    /// arm a dedicated plan per shard). Empty means every shard inherits
    /// `base.faults`.
    pub shard_faults: Vec<FaultPlan>,
}

impl ShardedConfig {
    /// Bundles a base engine config with a shard spec.
    pub fn new(base: CubetreeConfig, spec: ShardSpec) -> Self {
        ShardedConfig { base, spec, shard_faults: Vec::new() }
    }

    /// Installs one independent fault plan per shard (length must equal the
    /// shard count; checked at engine construction).
    pub fn with_shard_faults(mut self, plans: Vec<FaultPlan>) -> Self {
        self.shard_faults = plans;
        self
    }
}

/// N independent Cubetree forests behind one [`RolapEngine`] face: rows are
/// partitioned on a leading dimension, queries scatter to the owning shards
/// and gather by merging partial aggregate states.
pub struct ShardedEngine {
    shards: Vec<CubetreeEngine>,
    catalog: Catalog,
    partition_attr: AttrId,
    router: ShardRouter,
    spec: ShardSpec,
    recorder: ct_obs::Recorder,
    /// Persistent root (shard subdirectories + `shards.meta`), when opened
    /// via [`ShardedEngine::open_at`].
    root: Option<PathBuf>,
    /// Concurrent shard jobs (`min(threads, shards)`).
    outer_threads: usize,
    /// Fact rows routed to each shard by the last [`RolapEngine::load`]
    /// (feeds the bench skew report).
    loaded_rows: Vec<u64>,
}

/// Derives the per-shard engine config: split the worker budget, share the
/// recorder (recorder clones share state, so per-shard I/O sums into one
/// snapshot), and install the shard's own fault plan when one was given.
fn shard_config(config: &ShardedConfig, shard: usize) -> CubetreeConfig {
    let mut c = config.base.clone();
    c.threads = (config.base.threads / config.spec.shards).max(1);
    if let Some(plan) = config.shard_faults.get(shard) {
        c.faults = plan.clone();
    }
    c
}

fn check_shard_faults(config: &ShardedConfig) -> Result<()> {
    if !config.shard_faults.is_empty() && config.shard_faults.len() != config.spec.shards {
        return Err(CtError::invalid(format!(
            "shard_faults has {} plans for {} shards",
            config.shard_faults.len(),
            config.spec.shards
        )));
    }
    Ok(())
}

impl ShardedEngine {
    /// Creates a sharded engine over ephemeral per-shard environments.
    pub fn new(catalog: Catalog, config: ShardedConfig) -> Result<Self> {
        check_shard_faults(&config)?;
        let spec = config.spec.clone();
        let partition_attr = spec.partition_attr.unwrap_or(AttrId(0));
        let mut shards = Vec::with_capacity(spec.shards);
        for i in 0..spec.shards {
            shards.push(CubetreeEngine::new(catalog.clone(), shard_config(&config, i))?);
        }
        Ok(ShardedEngine {
            shards,
            catalog,
            partition_attr,
            router: ShardRouter::Hash { shards: spec.shards },
            outer_threads: config.base.threads.min(spec.shards).max(1),
            recorder: config.base.recorder.clone(),
            spec,
            root: None,
            loaded_rows: Vec::new(),
        })
    }

    /// Opens (or creates) a sharded engine over a persistent root
    /// directory. Each shard lives in `root/shard-<i>` and recovers
    /// independently through its own manifest; `root/shards.meta` pins the
    /// shard count, partition attribute, and routing strategy across
    /// restarts (so a range-split layout reopens as range, not hash).
    pub fn open_at(root: &Path, catalog: Catalog, config: ShardedConfig) -> Result<Self> {
        check_shard_faults(&config)?;
        let mut spec = config.spec.clone();
        let meta = read_meta(root)?;
        if let Some(m) = &meta {
            if !config.shard_faults.is_empty() && config.shard_faults.len() != m.shards {
                return Err(CtError::invalid(format!(
                    "shard_faults has {} plans for {} persisted shards",
                    config.shard_faults.len(),
                    m.shards
                )));
            }
            spec.shards = m.shards;
            spec.partition_attr = Some(m.partition_attr);
        }
        let partition_attr = spec.partition_attr.unwrap_or(AttrId(0));
        let router = meta
            .map(|m| m.router)
            .unwrap_or(ShardRouter::Hash { shards: spec.shards });
        let mut shards = Vec::with_capacity(spec.shards);
        for i in 0..spec.shards {
            let dir = root.join(format!("shard-{i}"));
            let mut c = shard_config(&config, i);
            c.threads = (config.base.threads / spec.shards).max(1);
            shards.push(CubetreeEngine::open_at(&dir, catalog.clone(), c)?);
        }
        Ok(ShardedEngine {
            shards,
            catalog,
            partition_attr,
            router,
            outer_threads: config.base.threads.min(spec.shards).max(1),
            recorder: config.base.recorder.clone(),
            spec,
            root: Some(root.to_path_buf()),
            loaded_rows: Vec::new(),
        })
    }

    /// The per-shard engines, in shard order.
    pub fn shards(&self) -> &[CubetreeEngine] {
        &self.shards
    }

    /// The active routing function.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The partition attribute rows and queries are routed on.
    pub fn partition_attr(&self) -> AttrId {
        self.partition_attr
    }

    /// Sum of per-shard generation numbers: a monotonic stamp that advances
    /// whenever any shard commits a new generation (shards refresh
    /// independently, so a single per-forest number does not exist).
    pub fn generation(&self) -> u64 {
        self.shards.iter().map(|s| s.forest().map_or(0, CubetreeForest::generation_number)).sum()
    }

    /// Physical I/O summed over every shard environment ([`ct_storage::IoStats`]
    /// counters are per-environment, unlike recorder metrics which already
    /// share state through the common recorder clone).
    pub fn io_snapshot(&self) -> IoSnapshot {
        let mut t = IoSnapshot::default();
        for s in &self.shards {
            let x = s.env().snapshot();
            t.seq_reads += x.seq_reads;
            t.rand_reads += x.rand_reads;
            t.seq_writes += x.seq_writes;
            t.rand_writes += x.rand_writes;
            t.buffer_hits += x.buffer_hits;
            t.tuples += x.tuples;
        }
        t
    }

    /// Resident-delta accounting summed across the shards' delta tiers (`None`
    /// before load). `oldest` is the oldest resident row anywhere.
    pub fn delta_stats(&self) -> Option<DeltaStats> {
        let mut out: Option<DeltaStats> = None;
        for s in &self.shards {
            let d = s.delta_stats()?;
            let acc = out.get_or_insert_with(DeltaStats::default);
            acc.active_rows += d.active_rows;
            acc.sealed_rows += d.sealed_rows;
            acc.source_rows += d.source_rows;
            acc.bytes += d.bytes;
            acc.sealed_tiers += d.sealed_tiers;
            acc.oldest = match (acc.oldest, d.oldest) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        out
    }

    /// Splits a relation into per-shard parts by routing each row on the
    /// partition column. Aggregate states ride along untouched, so
    /// retraction deltas partition correctly too.
    fn partition(&self, rows: &Relation) -> Result<Vec<Relation>> {
        let col = rows.col_of(self.partition_attr).ok_or_else(|| {
            CtError::invalid(format!(
                "rows lack the partition attribute {}",
                self.catalog.attr(self.partition_attr).name
            ))
        })?;
        let mut parts: Vec<Relation> =
            (0..self.shards.len()).map(|_| Relation::empty(rows.attrs.clone())).collect();
        for i in 0..rows.len() {
            let key = rows.key(i);
            parts[self.router.route(key[col])].push(key, rows.states[i]);
        }
        Ok(parts)
    }

    /// Skew guard: when hash routing would leave some shard holding more
    /// than `skew_factor ×` the mean row count, switch to range splits at
    /// sampled quantiles of the partition column (deterministic stride
    /// sample, so the layout is stable across runs). Logs a `shard.skew`
    /// warning either way the fallback fires.
    fn resolve_router(&mut self, fact: &Relation, col: usize) {
        let n = self.shards.len();
        if n <= 1 || fact.is_empty() {
            return;
        }
        let hash = ShardRouter::Hash { shards: n };
        let mut counts = vec![0u64; n];
        for i in 0..fact.len() {
            counts[hash.route(fact.key(i)[col])] += 1;
        }
        let max = counts.iter().copied().max().unwrap_or(0);
        let mean = fact.len() as f64 / n as f64;
        if (max as f64) <= self.spec.skew_factor * mean {
            self.router = hash;
            return;
        }
        // Degenerate leading dimension: sample, sort, cut at quantiles.
        let stride = (fact.len() / SKEW_SAMPLE_CAP).max(1);
        let mut sample: Vec<u64> =
            (0..fact.len()).step_by(stride).map(|i| fact.key(i)[col]).collect();
        sample.sort_unstable();
        let boundaries: Vec<u64> =
            (1..n).map(|i| sample[(i * sample.len() / n).min(sample.len() - 1)]).collect();
        self.recorder.add("shard.skew", 1);
        eprintln!(
            "shard.skew: hash sharding on `{}` is {:.1}x the mean (max {} of {} rows); \
             falling back to range splits at {:?}",
            self.catalog.attr(self.partition_attr).name,
            max as f64 / mean,
            max,
            fact.len(),
            boundaries
        );
        self.router = ShardRouter::Range { boundaries };
    }

    fn record_shard_gauges(&self, parts: &[Relation]) {
        if !self.recorder.is_enabled() {
            return;
        }
        let rows: Vec<u64> = parts.iter().map(|p| p.len() as u64).collect();
        let max = rows.iter().copied().max().unwrap_or(0);
        let mean = rows.iter().sum::<u64>() as f64 / rows.len().max(1) as f64;
        self.recorder.gauge_set("shard.count", self.shards.len() as f64);
        self.recorder.gauge_set("shard.rows.max", max as f64);
        self.recorder.gauge_set("shard.rows.mean", mean);
    }

    /// Fact rows routed to each shard by the last load (max/mean feed the
    /// bench skew report).
    pub fn shard_rows(&self) -> &[u64] {
        &self.loaded_rows
    }

    /// Streams fact rows into the owning shards' delta tiers, routed on the
    /// partition key. Returns the number of source rows absorbed.
    pub fn ingest(&self, rows: &Relation) -> Result<u64> {
        let parts = self.partition(rows)?;
        let mut total = 0;
        for (shard, part) in self.shards.iter().zip(&parts) {
            if !part.is_empty() {
                total += shard.ingest(part)?;
            }
        }
        Ok(total)
    }

    /// Merge-packs every shard's resident delta tier, in parallel. Returns
    /// `true` if any shard compacted.
    pub fn compact_delta(&self) -> Result<bool> {
        let compacted =
            map_jobs(self.outer_threads, self.shards.len(), |i| self.shards[i].compact_delta())?;
        Ok(compacted.contains(&true))
    }

    /// Bulk-incremental refresh: the delta is routed on the partition key
    /// and each owning shard merge-packs its part in parallel (a shard with
    /// an empty part is skipped, so shard generations advance
    /// independently). Each shard's commit is atomic, but the multi-shard
    /// update as a whole is not — before fanning out, a persistent engine
    /// writes a *refresh intent* (`refresh.intent` at the root: a fresh
    /// refresh id plus the touched shard set) and stamps the id into every
    /// shard's manifest commit, so [`ShardedEngine::recover_update`] can
    /// tell committed shards from aborted ones after a crash. The intent is
    /// marked done once every shard has committed.
    pub fn refresh(&self, delta: &Relation) -> Result<()> {
        let parts = self.partition(delta)?;
        let touched: Vec<usize> =
            parts.iter().enumerate().filter(|(_, p)| !p.is_empty()).map(|(i, _)| i).collect();
        if touched.is_empty() {
            return Ok(());
        }
        let intent = match &self.root {
            Some(root) => {
                let id = read_intent(root)?.map_or(1, |i| i.id + 1);
                let intent = RefreshIntent { id, pending: true, touched: touched.clone() };
                write_intent(root, &intent)?;
                Some(intent)
            }
            None => None,
        };
        let stamp = intent.as_ref().map(|i| refresh_stamp(i.id));
        let stamp = stamp.as_deref();
        map_jobs(self.outer_threads, touched.len(), |k| {
            self.shards[touched[k]].refresh_stamped(&parts[touched[k]], stamp)
        })?;
        if let (Some(root), Some(mut intent)) = (&self.root, intent) {
            intent.pending = false;
            write_intent(root, &intent)?;
        }
        Ok(())
    }

    /// Converges a partially-committed multi-shard [`ShardedEngine::refresh`]
    /// to a consistent cut after a crash, given `delta` (the same relation
    /// the crashed refresh was given). The pending refresh intent names the
    /// touched shards and the refresh id; a touched shard committed exactly
    /// if its manifest carries that id as its stamp — commit status is never
    /// inferred from generation numbers, which legitimately diverge across
    /// shards (empty-part skips, independent delta compactions). If no
    /// touched shard carries the stamp, nothing is re-applied — the cut is
    /// the pre-update state; if at least one does, the delta is re-applied
    /// to exactly the touched shards that lack it. Either way the intent is
    /// then marked done, so a second pass is a no-op.
    pub fn recover_update(&self, delta: &Relation) -> Result<()> {
        let Some(root) = &self.root else {
            // An ephemeral engine cannot survive a crash; there is nothing
            // on disk to converge.
            return Ok(());
        };
        let Some(intent) = read_intent(root)? else {
            return Ok(());
        };
        if !intent.pending {
            return Ok(());
        }
        if intent.touched.iter().any(|&i| i >= self.shards.len()) {
            return Err(CtError::corrupt(
                "refresh.intent names a shard outside the persisted layout",
            ));
        }
        let stamp = refresh_stamp(intent.id);
        let committed: Vec<usize> = intent
            .touched
            .iter()
            .copied()
            .filter(|&i| self.shards[i].env().manifest().stamp.as_deref() == Some(stamp.as_str()))
            .collect();
        if !committed.is_empty() {
            let parts = self.partition(delta)?;
            let lagging: Vec<usize> = intent
                .touched
                .iter()
                .copied()
                .filter(|i| !committed.contains(i) && !parts[*i].is_empty())
                .collect();
            map_jobs(self.outer_threads, lagging.len(), |k| {
                self.shards[lagging[k]].refresh_stamped(&parts[lagging[k]], Some(&stamp))
            })?;
        }
        write_intent(
            root,
            &RefreshIntent { id: intent.id, pending: false, touched: intent.touched },
        )
    }

    /// Pins every shard once (generation + delta snapshot under each
    /// shard's generation lock), so one batch sees one consistent cut. The
    /// read path plans against these pins *centrally* — entry counts summed
    /// across all shards, mirroring what the unsharded forest would see —
    /// and executes the chosen placement on every consulted shard.
    fn pin_all(&self) -> Result<Vec<(ReaderPin, DeltaSnapshot)>> {
        self.shards
            .iter()
            .map(|s| Ok(shard_forest(s)?.pin_with_delta()))
            .collect()
    }

    /// The read path's sources: every shard's pin beside its environment.
    fn sources<'a>(&'a self, pins: &'a [(ReaderPin, DeltaSnapshot)]) -> Vec<QuerySource<'a>> {
        self.shards
            .iter()
            .zip(pins)
            .map(|(shard, (pin, delta))| QuerySource {
                gen: pin,
                delta: delta.as_option(),
                env: shard.env(),
            })
            .collect()
    }

    /// The shards each query must consult (see [`ShardRouter::shards_for`]),
    /// recording the fan-out.
    fn route(&self, queries: &[SliceQuery]) -> Vec<Vec<usize>> {
        queries
            .iter()
            .map(|q| {
                let targets = self.router.shards_for(q, self.partition_attr);
                if self.recorder.is_enabled() {
                    self.recorder.observe("shard.fanout", targets.len() as u64);
                    if targets.len() < self.shards.len() {
                        self.recorder.add("shard.pruned", 1);
                    }
                }
                targets
            })
            .collect()
    }
}

/// A sharded answer's cache stamps: one [`AnswerStamp`] per consulted shard
/// plus a trailing *plan guard* whose generation is the sum over **all**
/// shards. Planning scores placements by entry counts summed across every
/// shard, so a refresh on a shard a query never touches can still flip its
/// chosen placement (and, for pruned queries, its answer); the guard makes
/// any refresh anywhere a stamp mismatch, while ingests to non-consulted
/// shards — which never affect planning — keep the stamps matching so
/// subset hits survive.
fn stamps_for(shard_stamps: &[AnswerStamp], targets: &[usize]) -> Vec<AnswerStamp> {
    let guard = AnswerStamp {
        generation: shard_stamps.iter().map(|s| s.generation).sum(),
        delta_epoch: 0,
    };
    targets.iter().map(|&s| shard_stamps[s]).chain(std::iter::once(guard)).collect()
}

fn shard_forest(shard: &CubetreeEngine) -> Result<&CubetreeForest> {
    shard.forest().ok_or_else(|| CtError::invalid("engine not loaded yet"))
}

impl RolapEngine for ShardedEngine {
    fn name(&self) -> &'static str {
        "cubetrees-sharded"
    }

    fn load(&mut self, fact: &Relation) -> Result<()> {
        let col = fact.col_of(self.partition_attr).ok_or_else(|| {
            CtError::invalid(format!(
                "fact lacks the partition attribute {}",
                self.catalog.attr(self.partition_attr).name
            ))
        })?;
        self.resolve_router(fact, col);
        let parts = self.partition(fact)?;
        self.loaded_rows = parts.iter().map(|p| p.len() as u64).collect();
        self.record_shard_gauges(&parts);
        if let Some(root) = &self.root {
            // Persist the resolved layout BEFORE any per-shard load commits:
            // if the skew guard switched the router (or the layout changed)
            // and the process crashes mid-load, a reopen must route the
            // shards that did commit with the strategy they were partitioned
            // under, never a stale one. A full rebuild also supersedes any
            // crashed refresh, so a leftover intent is cleared here.
            write_meta(root, self.spec.shards, self.partition_attr, &self.router)?;
            clear_intent(root)?;
        }
        let jobs: Vec<Job<'_>> = self
            .shards
            .iter_mut()
            .zip(&parts)
            .map(|(shard, part)| Box::new(move || shard.load(part)) as Job<'_>)
            .collect();
        run_jobs(self.outer_threads, jobs)
    }

    fn query(&self, q: &SliceQuery) -> Result<Vec<QueryRow>> {
        let mut batch = self.query_batch(std::slice::from_ref(q))?;
        batch.results.pop().ok_or_else(|| CtError::invalid("batch of one left no answer"))
    }

    /// Routes every query up front, pins every shard once, then each owning
    /// shard runs its share of the batch under that pin.
    fn query_batch(&self, queries: &[SliceQuery]) -> Result<BatchResult> {
        let pins = self.pin_all()?;
        let targets = self.route(queries);
        let consults = |query: usize, shard: usize| targets[query].contains(&shard);
        query_sources(&self.sources(&pins), consults, self.outer_threads, &self.catalog, queries)
    }

    fn update(&mut self, delta: &Relation) -> Result<()> {
        self.refresh(delta)
    }

    fn storage_bytes(&self) -> u64 {
        self.shards.iter().map(RolapEngine::storage_bytes).sum()
    }

    fn env(&self) -> &ct_storage::StorageEnv {
        // The trait exposes one environment; shard 0 stands in for
        // single-env callers (benches sum every shard via
        // [`ShardedEngine::io_snapshot`] instead).
        self.shards[0].env()
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }
}

impl ServingEngine for ShardedEngine {
    fn loaded(&self) -> bool {
        self.shards.iter().all(|s| s.forest().is_some())
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn recorder(&self) -> &ct_obs::Recorder {
        &self.recorder
    }

    fn generation(&self) -> u64 {
        ShardedEngine::generation(self)
    }

    fn plan_check(&self, q: &SliceQuery) -> Result<()> {
        // Shards materialize the same view set; shard 0 answers for all.
        let forest = shard_forest(&self.shards[0])?;
        crate::query::plan_generation_query(&forest.pin(), &self.catalog, q).map(|_| ())
    }

    fn views(&self) -> Result<(u64, Vec<ViewInfo>)> {
        // Every shard holds the same placements; entry counts sum across
        // shards, the stamp is the sharded generation sum.
        let mut views: Option<Vec<ViewInfo>> = None;
        for s in &self.shards {
            let (_, infos) = crate::engine::view_infos(shard_forest(s)?, &self.catalog);
            match &mut views {
                None => views = Some(infos),
                Some(acc) => {
                    for (a, b) in acc.iter_mut().zip(infos) {
                        a.entries += b.entries;
                    }
                }
            }
        }
        Ok((ShardedEngine::generation(self), views.unwrap_or_default()))
    }

    /// [`RolapEngine::query_batch`] with freshness stamps. The generation
    /// stamp is summed from the per-shard pins the batch executed under —
    /// never from a separate pre-execution read, so a refresh committing
    /// between stamp and execution cannot mislabel the snapshot (the
    /// unsharded engine stamps from its pin the same way).
    fn serve_batch(
        &self,
        queries: &[SliceQuery],
    ) -> (u64, Vec<std::result::Result<ServedAnswer, String>>) {
        let Ok(pins) = self.pin_all() else {
            return (0, queries.iter().map(|_| Err("engine not loaded".to_string())).collect());
        };
        let targets = self.route(queries);
        let shard_stamps: Vec<AnswerStamp> =
            pins.iter().map(|(pin, delta)| AnswerStamp::of(pin, delta)).collect();
        let answers = serve_sources(
            &self.sources(&pins),
            |query, shard| targets[query].contains(&shard),
            self.outer_threads,
            &self.catalog,
            queries,
            |query| stamps_for(&shard_stamps, &targets[query]),
        );
        (shard_stamps.iter().map(|s| s.generation).sum(), answers)
    }

    /// The sharded probe: the stamps a fresh [`ServingEngine::serve_batch`]
    /// of `q` would carry right now (see `stamps_for`). Stamp reads are
    /// per-shard, matching the consistency of `pin_all` — the read path
    /// itself pins shards one at a time, so a probe-time match proves
    /// equivalence to a fresh scatter-gather execution, which is the bar
    /// serving answers already meet.
    fn answer_stamps(&self, q: &SliceQuery) -> Vec<AnswerStamp> {
        let shard_stamps: Option<Vec<AnswerStamp>> =
            self.shards.iter().map(|s| Some(s.forest()?.answer_stamp())).collect();
        shard_stamps.map_or_else(Vec::new, |stamps| {
            stamps_for(&stamps, &self.router.shards_for(q, self.partition_attr))
        })
    }

    fn refresh(&self, delta: &Relation) -> Result<()> {
        ShardedEngine::refresh(self, delta)
    }

    fn ingest(&self, rows: &Relation) -> Result<u64> {
        ShardedEngine::ingest(self, rows)
    }

    fn delta_stats(&self) -> Option<DeltaStats> {
        ShardedEngine::delta_stats(self)
    }

    fn compaction_due(&self, config: &DeltaConfig) -> bool {
        self.shards
            .iter()
            .any(|s| s.forest().is_some_and(|f| f.delta().should_compact(config)))
    }

    fn compact_delta(&self) -> Result<bool> {
        ShardedEngine::compact_delta(self)
    }

    fn io_snapshot(&self) -> IoSnapshot {
        ShardedEngine::io_snapshot(self)
    }
}

/// Persisted routing metadata.
struct ShardMeta {
    shards: usize,
    partition_attr: AttrId,
    router: ShardRouter,
}

/// Atomically writes `root/shards.meta` (tmp + rename, same discipline as
/// the per-shard manifests).
fn write_meta(root: &Path, shards: usize, attr: AttrId, router: &ShardRouter) -> Result<()> {
    let strategy = match router {
        ShardRouter::Hash { .. } => "hash".to_string(),
        ShardRouter::Range { boundaries } => {
            let cuts: Vec<String> = boundaries.iter().map(u64::to_string).collect();
            format!("range {}", cuts.join(" "))
        }
    };
    let body = format!("shards {shards}\npartition_attr {}\nstrategy {strategy}\n", attr.0);
    let tmp = root.join("shards.meta.tmp");
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, root.join("shards.meta"))?;
    Ok(())
}

fn read_meta(root: &Path) -> Result<Option<ShardMeta>> {
    let path = root.join("shards.meta");
    let body = match std::fs::read_to_string(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let corrupt = || CtError::corrupt(format!("malformed shards.meta at {}", path.display()));
    let mut shards = None;
    let mut attr = None;
    let mut router = None;
    for line in body.lines() {
        let mut it = line.split_whitespace();
        match it.next() {
            Some("shards") => {
                shards = Some(it.next().ok_or_else(corrupt)?.parse().map_err(|_| corrupt())?);
            }
            Some("partition_attr") => {
                let id: u16 = it.next().ok_or_else(corrupt)?.parse().map_err(|_| corrupt())?;
                attr = Some(AttrId(id));
            }
            Some("strategy") => match it.next().ok_or_else(corrupt)? {
                "hash" => router = Some(None),
                "range" => {
                    let cuts = it
                        .map(|c| c.parse().map_err(|_| corrupt()))
                        .collect::<Result<Vec<u64>>>()?;
                    router = Some(Some(cuts));
                }
                _ => return Err(corrupt()),
            },
            _ => return Err(corrupt()),
        }
    }
    let shards: usize = shards.ok_or_else(corrupt)?;
    if shards == 0 {
        return Err(corrupt());
    }
    let attr = attr.ok_or_else(corrupt)?;
    let router = match router.ok_or_else(corrupt)? {
        None => ShardRouter::Hash { shards },
        Some(cuts) => {
            if cuts.len() + 1 != shards || cuts.windows(2).any(|w| w[0] > w[1]) {
                return Err(corrupt());
            }
            ShardRouter::Range { boundaries: cuts }
        }
    };
    Ok(Some(ShardMeta { shards, partition_attr: attr, router }))
}

/// File name of the refresh-intent record at a sharded root.
const INTENT_NAME: &str = "refresh.intent";

/// The persisted intent of one multi-shard refresh: its refresh id, whether
/// it is still pending (written before the fan-out, flipped to done after
/// every shard committed or recovery converged), and the shards its delta
/// touches. Ids are monotone per root — each refresh reads the last intent
/// and takes `id + 1` — so a shard manifest stamped `refresh-<id>` proves
/// that exact refresh committed there.
struct RefreshIntent {
    id: u64,
    pending: bool,
    touched: Vec<usize>,
}

/// The manifest stamp token of refresh `id`.
fn refresh_stamp(id: u64) -> String {
    format!("refresh-{id}")
}

/// Atomically writes `root/refresh.intent` (tmp + rename, same discipline
/// as `shards.meta`).
fn write_intent(root: &Path, intent: &RefreshIntent) -> Result<()> {
    let touched: Vec<String> = intent.touched.iter().map(usize::to_string).collect();
    let state = if intent.pending { "pending" } else { "done" };
    let body =
        format!("id {}\nstate {state}\ntouched {}\n", intent.id, touched.join(" "));
    let tmp = root.join("refresh.intent.tmp");
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, root.join(INTENT_NAME))?;
    Ok(())
}

fn read_intent(root: &Path) -> Result<Option<RefreshIntent>> {
    let path = root.join(INTENT_NAME);
    let body = match std::fs::read_to_string(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let corrupt =
        || CtError::corrupt(format!("malformed refresh.intent at {}", path.display()));
    let mut id = None;
    let mut pending = None;
    let mut touched = None;
    for line in body.lines() {
        let mut it = line.split_whitespace();
        match it.next() {
            Some("id") => {
                id = Some(it.next().ok_or_else(corrupt)?.parse().map_err(|_| corrupt())?);
            }
            Some("state") => match it.next().ok_or_else(corrupt)? {
                "pending" => pending = Some(true),
                "done" => pending = Some(false),
                _ => return Err(corrupt()),
            },
            Some("touched") => {
                touched = Some(
                    it.map(|t| t.parse().map_err(|_| corrupt()))
                        .collect::<Result<Vec<usize>>>()?,
                );
            }
            _ => return Err(corrupt()),
        }
    }
    Ok(Some(RefreshIntent {
        id: id.ok_or_else(corrupt)?,
        pending: pending.ok_or_else(corrupt)?,
        touched: touched.ok_or_else(corrupt)?,
    }))
}

/// Removes a leftover intent record (a full reload supersedes any crashed
/// refresh). Missing files are fine.
fn clear_intent(root: &Path) -> Result<()> {
    match std::fs::remove_file(root.join(INTENT_NAME)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_common::{AggFn, ViewDef};

    #[test]
    fn hash_router_is_stable_and_in_range() {
        let r = ShardRouter::Hash { shards: 4 };
        for v in 0..1000 {
            let s = r.route(v);
            assert!(s < 4);
            assert_eq!(s, r.route(v));
        }
    }

    #[test]
    fn range_router_routes_by_boundary() {
        let r = ShardRouter::Range { boundaries: vec![10, 20, 30] };
        assert_eq!(r.shards(), 4);
        assert_eq!(r.route(0), 0);
        assert_eq!(r.route(10), 0);
        assert_eq!(r.route(11), 1);
        assert_eq!(r.route(20), 1);
        assert_eq!(r.route(30), 2);
        assert_eq!(r.route(31), 3);
        assert_eq!(r.route(u64::MAX), 3);
    }

    #[test]
    fn query_pruning_matches_routing() {
        let a = AttrId(0);
        let hash = ShardRouter::Hash { shards: 4 };
        let range = ShardRouter::Range { boundaries: vec![10, 20, 30] };
        // Equality slices prune to the one owning shard under either router.
        let eq = SliceQuery::new(vec![], vec![(a, 15)]);
        assert_eq!(hash.shards_for(&eq, a), vec![hash.route(15)]);
        assert_eq!(range.shards_for(&eq, a), vec![1]);
        // Interval constraints prune under range routing only.
        let iv = SliceQuery::new(vec![], vec![]).with_range(a, 15, 25);
        assert_eq!(hash.shards_for(&iv, a), vec![0, 1, 2, 3]);
        assert_eq!(range.shards_for(&iv, a), vec![1, 2]);
        // Unconstrained queries fan out everywhere.
        let open = SliceQuery::new(vec![a], vec![]);
        assert_eq!(hash.shards_for(&open, a).len(), 4);
    }

    #[test]
    fn meta_roundtrip() {
        let dir = ct_storage::TempDir::new("shard-meta").unwrap();
        let root = dir.path().to_path_buf();
        let router = ShardRouter::Range { boundaries: vec![7, 40] };
        write_meta(&root, 3, AttrId(2), &router).unwrap();
        let m = read_meta(&root).unwrap().unwrap();
        assert_eq!(m.shards, 3);
        assert_eq!(m.partition_attr, AttrId(2));
        assert_eq!(m.router, router);
        // Hash strategy round-trips too.
        write_meta(&root, 2, AttrId(0), &ShardRouter::Hash { shards: 2 }).unwrap();
        let m = read_meta(&root).unwrap().unwrap();
        assert_eq!(m.router, ShardRouter::Hash { shards: 2 });
    }

    #[test]
    fn intent_roundtrip() {
        let dir = ct_storage::TempDir::new("shard-intent").unwrap();
        let root = dir.path().to_path_buf();
        assert!(read_intent(&root).unwrap().is_none());
        write_intent(&root, &RefreshIntent { id: 3, pending: true, touched: vec![0, 2] })
            .unwrap();
        let i = read_intent(&root).unwrap().unwrap();
        assert_eq!((i.id, i.pending, i.touched), (3, true, vec![0, 2]));
        assert_eq!(refresh_stamp(i.id), "refresh-3");
        write_intent(&root, &RefreshIntent { id: 3, pending: false, touched: vec![0, 2] })
            .unwrap();
        assert!(!read_intent(&root).unwrap().unwrap().pending);
        // Clearing is idempotent (a reload may clear an absent intent).
        clear_intent(&root).unwrap();
        assert!(read_intent(&root).unwrap().is_none());
        clear_intent(&root).unwrap();
    }

    #[test]
    fn sharded_answers_match_unsharded_smoke() {
        let mut c = Catalog::new();
        let p = c.add_attr("p", 50);
        let s = c.add_attr("s", 8);
        let views = vec![
            ViewDef::new(0, vec![p, s], AggFn::Sum),
            ViewDef::new(1, vec![p], AggFn::Avg),
        ];
        let mut keys = Vec::new();
        let mut measures = Vec::new();
        let mut x = 11u64;
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            keys.push(x % 50 + 1);
            keys.push((x >> 8) % 8 + 1);
            measures.push((x >> 16) as i64 % 100);
        }
        let fact = Relation::from_fact(vec![p, s], keys, &measures);
        let mut base =
            CubetreeEngine::new(c.clone(), CubetreeConfig::new(views.clone())).unwrap();
        base.load(&fact).unwrap();
        for shards in [1usize, 3] {
            let spec = ShardSpec::new(shards).with_partition_attr(p);
            let cfg = ShardedConfig::new(CubetreeConfig::new(views.clone()), spec);
            let mut sharded = ShardedEngine::new(c.clone(), cfg).unwrap();
            sharded.load(&fact).unwrap();
            for q in [
                SliceQuery::new(vec![s], vec![(p, 7)]),
                SliceQuery::new(vec![p], vec![(s, 3)]),
                SliceQuery::new(vec![], vec![(p, 9)]),
            ] {
                let want = ct_common::query::normalize_rows(base.query(&q).unwrap());
                let got = ct_common::query::normalize_rows(sharded.query(&q).unwrap());
                assert_eq!(want, got, "shards={shards} query mismatch");
            }
        }
    }
}
