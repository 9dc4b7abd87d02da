//! The Cubetree storage engine (the paper's proposal).

use crate::delta::{DeltaConfig, DeltaStats};
use crate::engine::{serve_sources, RolapEngine, ServedAnswer, ServingEngine, ViewInfo};
use crate::forest::{AnswerStamp, CubetreeForest};
use crate::query::{execute_query_with_delta, plan_generation_query, QuerySource};
use ct_common::query::QueryRow;
use ct_common::{AttrId, Catalog, CostModel, CtError, Result, SliceQuery, ViewDef, ViewId};
use ct_cube::Relation;
use ct_rtree::LeafFormat;
use ct_storage::env::DEFAULT_POOL_PAGES;
use ct_storage::{IoSnapshot, Parallelism, StorageEnv};

/// Configuration of a [`CubetreeEngine`].
#[derive(Clone, Debug)]
pub struct CubetreeConfig {
    /// The logical views to materialize.
    pub views: Vec<ViewDef>,
    /// Extra sort-order replicas `(base view, permuted projection)` — the
    /// paper's §3 "data replication scheme, where selected views are stored
    /// in multiple sort-orders".
    pub replicas: Vec<(ViewId, Vec<AttrId>)>,
    /// Physical leaf format packs and refreshes write: bit-packed columnar
    /// leaves ([`LeafFormat::Compressed`]) unless reproducing the paper's
    /// storage numbers or running the format ablation.
    pub format: LeafFormat,
    /// Buffer pool size in pages.
    pub pool_pages: usize,
    /// I/O cost model for simulated time.
    pub cost: CostModel,
    /// Worker threads for the sort→pack build and refresh pipelines.
    /// `1` (the default) reproduces the sequential pipeline bit for bit.
    pub threads: usize,
    /// Metrics recorder; disabled by default, which keeps instrumentation
    /// zero-cost (every probe is a branch on `None`).
    pub recorder: ct_obs::Recorder,
    /// Deterministic fault-injection plan; inert by default (every probe is
    /// a branch on `None`). Tests arm it to kill builds and refreshes at
    /// chosen writes or crash points.
    pub faults: ct_storage::FaultPlan,
}

impl CubetreeConfig {
    /// A default configuration over the given views.
    pub fn new(views: Vec<ViewDef>) -> Self {
        CubetreeConfig {
            views,
            replicas: Vec::new(),
            format: LeafFormat::default(),
            pool_pages: DEFAULT_POOL_PAGES,
            cost: CostModel::default(),
            threads: 1,
            recorder: ct_obs::Recorder::disabled(),
            faults: ct_storage::FaultPlan::none(),
        }
    }

    /// Adds a replica.
    pub fn with_replica(mut self, base: ViewId, projection: Vec<AttrId>) -> Self {
        self.replicas.push((base, projection));
        self
    }

    /// Sets the build/refresh worker-thread budget (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a metrics recorder (see [`ct_obs::Recorder::enabled`]).
    pub fn with_recorder(mut self, recorder: ct_obs::Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a fault-injection plan (see [`ct_storage::FaultPlan`]).
    pub fn with_faults(mut self, faults: ct_storage::FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// The paper's storage organization: a SelectMapping forest of packed,
/// compressed R-trees.
pub struct CubetreeEngine {
    env: StorageEnv,
    catalog: Catalog,
    config: CubetreeConfig,
    forest: Option<CubetreeForest>,
}

impl CubetreeEngine {
    /// Creates an engine (storage environment included) for `catalog`.
    pub fn new(catalog: Catalog, config: CubetreeConfig) -> Result<Self> {
        let env = StorageEnv::with_config_faults(
            "cubetree",
            config.pool_pages,
            config.cost,
            Parallelism::new(config.threads),
            config.recorder.clone(),
            config.faults.clone(),
        )?;
        Ok(CubetreeEngine { env, catalog, config, forest: None })
    }

    /// Opens (or creates) an engine over a *persistent* directory.
    ///
    /// The directory is created if missing and recovered through
    /// [`StorageEnv::open_at`] (torn manifest commits roll back, orphaned
    /// files are reclaimed). When a committed manifest is present the forest
    /// is re-attached via [`CubetreeForest::open`] and the engine is
    /// immediately queryable; on a fresh directory the caller loads it with
    /// [`RolapEngine::load`] as usual. This is how the sharded layer gives
    /// every shard its own recoverable environment.
    pub fn open_at(dir: &std::path::Path, catalog: Catalog, config: CubetreeConfig) -> Result<Self> {
        let (env, _recovery) = StorageEnv::open_at(
            dir,
            config.pool_pages,
            config.cost,
            Parallelism::new(config.threads),
            config.recorder.clone(),
            config.faults.clone(),
        )?;
        let forest = if env.manifest().entries.is_empty() {
            None
        } else {
            Some(CubetreeForest::open(&env, &config.views, &config.replicas, config.format)?)
        };
        Ok(CubetreeEngine { env, catalog, config, forest })
    }

    /// The built forest (after [`RolapEngine::load`]).
    pub fn forest(&self) -> Option<&CubetreeForest> {
        self.forest.as_ref()
    }

    fn forest_ref(&self) -> Result<&CubetreeForest> {
        self.forest.as_ref().ok_or_else(|| CtError::invalid("engine not loaded yet"))
    }

    /// Bulk-incremental refresh through a shared reference: merge-packs the
    /// next forest generation, commits it atomically and publishes it, while
    /// concurrent readers keep answering from their pinned generation. This
    /// is what makes a mixed read/refresh workload possible; the
    /// [`RolapEngine::update`] entry point delegates here.
    pub fn refresh(&self, delta: &Relation) -> Result<()> {
        self.refresh_stamped(delta, None)
    }

    /// [`CubetreeEngine::refresh`] with an optional commit stamp recorded
    /// in this engine's manifest at the flip point. The sharded layer
    /// stamps each shard's part of a multi-shard refresh with the refresh
    /// id, so crash recovery can tell committed shards from aborted ones
    /// without guessing from generation numbers.
    pub fn refresh_stamped(&self, delta: &Relation, stamp: Option<&str>) -> Result<()> {
        let forest = self.forest_ref()?;
        let _phase = self.env.phase("update");
        forest.update_stamped(&self.env, &self.catalog, delta, stamp)?;
        self.env.pool().flush_all()
    }

    /// Streams fact rows into the in-memory delta tier. The rows are
    /// visible to queries immediately (merged with every tree answer) and
    /// move into the packed trees at the next [`CubetreeEngine::compact_delta`].
    ///
    /// Returns the number of source rows absorbed.
    pub fn ingest(&self, rows: &Relation) -> Result<u64> {
        self.forest_ref()?.ingest(rows)
    }

    /// Merge-packs the resident delta tier into the next forest generation
    /// (the paper's Figure 15 refresh, fed from the delta runs instead of an
    /// external batch). Returns `false` when nothing was resident.
    pub fn compact_delta(&self) -> Result<bool> {
        let forest = self.forest_ref()?;
        let _phase = self.env.phase("update");
        let did = forest.compact_delta(&self.env, &self.catalog)?;
        if did {
            self.env.pool().flush_all()?;
        }
        Ok(did)
    }

    /// Resident-delta accounting (`None` before [`RolapEngine::load`]).
    pub fn delta_stats(&self) -> Option<DeltaStats> {
        self.forest.as_ref().map(|f| f.delta().stats())
    }
}

impl RolapEngine for CubetreeEngine {
    fn name(&self) -> &'static str {
        "cubetrees"
    }

    fn load(&mut self, fact: &Relation) -> Result<()> {
        let _phase = self.env.phase("load");
        let forest = CubetreeForest::build(
            &self.env,
            &self.catalog,
            fact,
            &self.config.views,
            &self.config.replicas,
            self.config.format,
        )?;
        self.env.pool().flush_all()?;
        self.forest = Some(forest);
        Ok(())
    }

    fn query(&self, q: &SliceQuery) -> Result<Vec<QueryRow>> {
        let (pin, delta) = self.forest_ref()?.pin_with_delta();
        execute_query_with_delta(&pin, delta.as_option(), &self.env, &self.catalog, q)
    }

    fn update(&mut self, delta: &Relation) -> Result<()> {
        self.refresh(delta)
    }

    fn storage_bytes(&self) -> u64 {
        self.forest.as_ref().map_or(0, |f| f.storage_bytes(&self.env))
    }

    fn env(&self) -> &StorageEnv {
        &self.env
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }
}

/// Builds the `/views` listing from one pinned generation. Shared with the
/// sharded engine, which merges per-shard entry counts over the same shape.
pub(crate) fn view_infos(forest: &CubetreeForest, catalog: &Catalog) -> (u64, Vec<ViewInfo>) {
    let pin = forest.pin();
    let views = pin
        .placements()
        .iter()
        .map(|p| ViewInfo {
            id: p.def.id.0,
            name: p.def.display_name(catalog),
            projection: p
                .def
                .projection
                .iter()
                .map(|a| catalog.attr(*a).name.clone())
                .collect(),
            agg: p.def.agg,
            entries: pin.entries_of(p.def.id),
            replica: p.logical != p.def.id,
        })
        .collect();
    (pin.number(), views)
}

impl ServingEngine for CubetreeEngine {
    fn loaded(&self) -> bool {
        self.forest.is_some()
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn recorder(&self) -> &ct_obs::Recorder {
        self.env.recorder()
    }

    fn generation(&self) -> u64 {
        self.forest.as_ref().map_or(0, CubetreeForest::generation_number)
    }

    fn plan_check(&self, q: &SliceQuery) -> Result<()> {
        let forest = self.forest_ref()?;
        plan_generation_query(&forest.pin(), &self.catalog, q).map(|_| ())
    }

    fn views(&self) -> Result<(u64, Vec<ViewInfo>)> {
        Ok(view_infos(self.forest_ref()?, &self.catalog))
    }

    /// One pin (and one delta snapshot) for the whole batch: answers and
    /// the stamped generation number come from the same snapshot even if a
    /// refresh or delta compaction commits midway.
    fn serve_batch(
        &self,
        queries: &[SliceQuery],
    ) -> (u64, Vec<std::result::Result<ServedAnswer, String>>) {
        let Some(forest) = self.forest.as_ref() else {
            return (0, queries.iter().map(|_| Err("engine not loaded".to_string())).collect());
        };
        let (pin, delta) = forest.pin_with_delta();
        let stamp = AnswerStamp::of(&pin, &delta);
        let source = QuerySource { gen: &pin, delta: delta.as_option(), env: &self.env };
        let answers =
            serve_sources(&[source], |_, _| true, 1, &self.catalog, queries, |_| vec![stamp]);
        (pin.number(), answers)
    }

    fn answer_stamps(&self, q: &SliceQuery) -> Vec<AnswerStamp> {
        let _ = q; // one environment: every query carries the same stamp
        match self.forest.as_ref() {
            Some(forest) => vec![forest.answer_stamp()],
            None => Vec::new(),
        }
    }

    fn refresh(&self, delta: &Relation) -> Result<()> {
        CubetreeEngine::refresh(self, delta)
    }

    fn ingest(&self, rows: &Relation) -> Result<u64> {
        CubetreeEngine::ingest(self, rows)
    }

    fn delta_stats(&self) -> Option<DeltaStats> {
        CubetreeEngine::delta_stats(self)
    }

    fn compaction_due(&self, config: &DeltaConfig) -> bool {
        self.forest.as_ref().is_some_and(|f| f.delta().should_compact(config))
    }

    fn compact_delta(&self) -> Result<bool> {
        CubetreeEngine::compact_delta(self)
    }

    fn io_snapshot(&self) -> IoSnapshot {
        self.env.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_common::AggFn;

    fn catalog() -> (Catalog, AttrId, AttrId) {
        let mut c = Catalog::new();
        let p = c.add_attr("p", 5);
        let s = c.add_attr("s", 3);
        (c, p, s)
    }

    #[test]
    fn querying_before_load_fails() {
        let (c, p, s) = catalog();
        let views = vec![ViewDef::new(0, vec![p, s], AggFn::Sum)];
        let engine = CubetreeEngine::new(c, CubetreeConfig::new(views)).unwrap();
        assert!(engine.query(&SliceQuery::new(vec![p], vec![])).is_err());
        assert_eq!(engine.storage_bytes(), 0);
        assert!(engine.forest().is_none());
    }

    #[test]
    fn updating_before_load_fails() {
        let (c, p, s) = catalog();
        let views = vec![ViewDef::new(0, vec![p, s], AggFn::Sum)];
        let mut engine = CubetreeEngine::new(c, CubetreeConfig::new(views)).unwrap();
        let delta = Relation::empty(vec![p, s]);
        assert!(engine.update(&delta).is_err());
    }

    #[test]
    fn load_then_query_roundtrip() {
        let (c, p, s) = catalog();
        let views = vec![ViewDef::new(0, vec![p, s], AggFn::Sum)];
        let mut engine = CubetreeEngine::new(c, CubetreeConfig::new(views)).unwrap();
        let fact = Relation::from_fact(vec![p, s], vec![1, 1, 2, 2, 1, 2], &[3, 4, 5]);
        engine.load(&fact).unwrap();
        assert_eq!(engine.name(), "cubetrees");
        assert!(engine.storage_bytes() > 0);
        let rows = engine.query(&SliceQuery::new(vec![s], vec![(p, 1)])).unwrap();
        assert_eq!(rows.len(), 2);
        let total: f64 = rows.iter().map(|r| r.agg).sum();
        assert_eq!(total, 8.0);
    }
}
