//! The conventional (relational) storage engine — the paper's baseline.
//!
//! "The straight forward implementation materializes the ROLAP views using
//! IUS tables which are then indexed with B-trees" (paper §1). Here each
//! materialized view is:
//!
//! * a heap table of `[group-by keys ++ aggregate words]` rows;
//! * a *primary* B-tree on the projection-order key mapping to the row's
//!   RID — the "additional indexing … to speed up this phase" of the
//!   paper's footnote 7, required for row-at-a-time incremental updates;
//! * any number of *secondary* B-trees with permuted keys (the paper's
//!   selected set `I`), also mapping to RIDs.
//!
//! Queries pick the cheapest view + index by expected matching tuples;
//! index access fetches qualifying rows from the heap by RID — the random
//! I/O pattern that separates this organization from the Cubetrees.
//! Incremental refresh probes the primary index once per delta group and
//! either updates the heap row in place or inserts into the heap *and every
//! index* — the behaviour that "did not succeed in completing the task
//! within the one day window" in the paper's Table 7.

use crate::engine::RolapEngine;
use crate::query::RollupAggregator;
use crate::views::compute_views;
use ct_common::query::QueryRow;
use ct_common::{
    AggState, AttrId, Catalog, CostModel, CtError, Result, SliceQuery, ViewDef, ViewId,
};
use ct_btree::BTree;
use ct_cube::compute::projection_sort_cols;
use ct_cube::Relation;
use ct_heap::{HeapTable, Rid};
use ct_storage::env::DEFAULT_POOL_PAGES;
use ct_storage::StorageEnv;

/// Configuration of a [`ConventionalEngine`].
#[derive(Clone, Debug)]
pub struct ConventionalConfig {
    /// The views to materialize as tables.
    pub views: Vec<ViewDef>,
    /// Secondary indexes `(view, key order)` — the selection algorithm's
    /// set `I`.
    pub indexes: Vec<(ViewId, Vec<AttrId>)>,
    /// Buffer pool size in pages.
    pub pool_pages: usize,
    /// I/O cost model for simulated time.
    pub cost: CostModel,
    /// Metrics recorder; disabled by default (zero-cost probes).
    pub recorder: ct_obs::Recorder,
    /// Deterministic fault-injection plan; inert by default.
    pub faults: ct_storage::FaultPlan,
}

impl ConventionalConfig {
    /// A default configuration over the given views (no secondary indexes).
    pub fn new(views: Vec<ViewDef>) -> Self {
        ConventionalConfig {
            views,
            indexes: Vec::new(),
            pool_pages: DEFAULT_POOL_PAGES,
            cost: CostModel::default(),
            recorder: ct_obs::Recorder::disabled(),
            faults: ct_storage::FaultPlan::none(),
        }
    }

    /// Adds a secondary index.
    pub fn with_index(mut self, view: ViewId, order: Vec<AttrId>) -> Self {
        self.indexes.push((view, order));
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

/// Wall-clock and simulated time split of the initial load, mirroring the
/// paper's Table 6 columns ("Views" vs "Indices").
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadBreakdown {
    /// Wall seconds computing views and filling tables.
    pub views_wall: f64,
    /// Simulated seconds for the same.
    pub views_sim: f64,
    /// Wall seconds building B-tree indexes.
    pub index_wall: f64,
    /// Simulated seconds for the same.
    pub index_sim: f64,
}

/// One materialized view: heap table + primary index + secondary indexes.
struct MatView {
    def: ViewDef,
    table: HeapTable,
    table_fid: ct_storage::FileId,
    /// `None` for the scalar `none` view (no key columns to index).
    primary: Option<BTree>,
    secondaries: Vec<(Vec<AttrId>, BTree)>,
    index_fids: Vec<ct_storage::FileId>,
}

/// The conventional relational configuration.
pub struct ConventionalEngine {
    env: StorageEnv,
    catalog: Catalog,
    config: ConventionalConfig,
    views: Vec<MatView>,
    breakdown: LoadBreakdown,
}

impl ConventionalEngine {
    /// Creates an engine (storage environment included) for `catalog`.
    pub fn new(catalog: Catalog, config: ConventionalConfig) -> Result<Self> {
        for (vid, order) in &config.indexes {
            let def = config
                .views
                .iter()
                .find(|v| v.id == *vid)
                .ok_or_else(|| CtError::invalid(format!("index on unknown view {vid:?}")))?;
            if !def.covers_exactly(order) {
                return Err(CtError::invalid(
                    "index key must be a permutation of its view's projection",
                ));
            }
        }
        let env = StorageEnv::with_config(
            "conventional",
            config.pool_pages,
            config.cost,
            ct_storage::Parallelism::default(),
            config.recorder.clone(),
            config.faults.clone(),
        )?;
        Ok(ConventionalEngine {
            env,
            catalog,
            config,
            views: Vec::new(),
            breakdown: LoadBreakdown::default(),
        })
    }

    /// The time split of the last [`RolapEngine::load`] (Table 6's columns).
    pub fn load_breakdown(&self) -> LoadBreakdown {
        self.breakdown
    }

    /// Full recomputation refresh: drops every materialized structure and
    /// rebuilds from `full_fact` (the paper's Table 7 middle row).
    pub fn recompute(&mut self, full_fact: &Relation) -> Result<()> {
        for v in self.views.drain(..) {
            self.env.remove_file(v.table_fid)?;
            for fid in v.index_fids {
                self.env.remove_file(fid)?;
            }
        }
        self.load(full_fact)
    }

    fn materialize(&mut self, def: &ViewDef, rel: &Relation) -> Result<()> {
        let t0 = std::time::Instant::now();
        let io0 = self.env.snapshot();
        let arity = def.arity();
        let agg_w = def.agg.width();
        let table_fid = self.env.create_file(&format!("view-{}-table", def.id.0))?;
        let mut table = HeapTable::create(self.env.pool().clone(), table_fid, (arity + agg_w).max(1))?;
        let mut rids = Vec::with_capacity(rel.len());
        let mut row = vec![0u64; arity + agg_w];
        let mut agg_words = Vec::with_capacity(agg_w);
        for i in 0..rel.len() {
            row[..arity].copy_from_slice(rel.key(i));
            agg_words.clear();
            rel.states[i].encode(def.agg, &mut agg_words);
            row[arity..].copy_from_slice(&agg_words);
            rids.push(table.append(&row)?.to_u64());
        }
        table.flush_meta()?;
        self.env.stats().add_tuples(rel.len() as u64);
        let io1 = self.env.snapshot();
        let t1 = std::time::Instant::now();
        self.breakdown.views_wall += (t1 - t0).as_secs_f64();
        self.breakdown.views_sim +=
            io1.since(&io0).simulated_seconds(self.env.cost_model());

        let mut index_fids = Vec::new();
        // Primary index on the projection order: the relation arrives sorted
        // that way, so this is a sequential bulk load.
        let primary = if arity > 0 {
            let fid = self.env.create_file(&format!("view-{}-pk", def.id.0))?;
            index_fids.push(fid);
            let mut i = 0usize;
            let t = BTree::bulk_load(self.env.pool().clone(), fid, arity, 1, || {
                if i < rel.len() {
                    let pair = (rel.key(i).to_vec(), vec![rids[i]]);
                    i += 1;
                    Ok(Some(pair))
                } else {
                    Ok(None)
                }
            })?;
            Some(t)
        } else {
            None
        };

        // Secondary indexes: sort (permuted key, rid) pairs, bulk load.
        let mut secondaries = Vec::new();
        for (vid, order) in self.config.indexes.clone() {
            if vid != def.id {
                continue;
            }
            let perm = order
                .iter()
                .map(|a| column_of(&def.projection, *a))
                .collect::<Result<Vec<usize>>>()?;
            let mut pairs: Vec<(Vec<u64>, u64)> = (0..rel.len())
                .map(|i| {
                    let k = rel.key(i);
                    (perm.iter().map(|&c| k[c]).collect(), rids[i])
                })
                .collect();
            pairs.sort();
            self.env.stats().add_tuples(rel.len() as u64);
            let fid =
                self.env.create_file(&format!("view-{}-ix-{}", def.id.0, secondaries.len()))?;
            index_fids.push(fid);
            let mut it = pairs.into_iter();
            let t = BTree::bulk_load(self.env.pool().clone(), fid, arity, 1, || {
                Ok(it.next().map(|(k, r)| (k, vec![r])))
            })?;
            secondaries.push((order, t));
        }
        let io2 = self.env.snapshot();
        self.breakdown.index_wall += t1.elapsed().as_secs_f64();
        self.breakdown.index_sim +=
            io2.since(&io1).simulated_seconds(self.env.cost_model());
        self.views.push(MatView { def: def.clone(), table, table_fid, primary, secondaries, index_fids });
        Ok(())
    }

    /// Syncs every live view file and commits the durable manifest naming
    /// them, so a crash after this point recovers to the current state.
    fn commit_manifest(&self) -> Result<()> {
        let mut entries = Vec::new();
        for mv in &self.views {
            let id = mv.def.id.0;
            let mut fids = mv.index_fids.iter();
            let mut named: Vec<(String, ct_storage::FileId)> =
                vec![(format!("view-{id}-table"), mv.table_fid)];
            if mv.primary.is_some() {
                let fid = *fids
                    .next()
                    .ok_or_else(|| CtError::invalid("primary index has no backing file"))?;
                named.push((format!("view-{id}-pk"), fid));
            }
            for (j, &fid) in fids.enumerate() {
                named.push((format!("view-{id}-ix-{j}"), fid));
            }
            for (component, fid) in named {
                self.env.pool().file(fid)?.sync()?;
                entries.push(self.env.manifest_entry(&component, fid)?);
            }
        }
        self.env.commit_manifest(entries)
    }

    /// Chooses the cheapest (view, access path) for `q`.
    fn plan(&self, q: &SliceQuery) -> Result<(usize, AccessPath, f64)> {
        let node = q.node();
        let mut best: Option<(usize, AccessPath, f64, usize)> = None;
        for (i, mv) in self.views.iter().enumerate() {
            if !self.catalog.derivable_from(&node, &mv.def.projection) {
                continue;
            }
            let rows = mv.table.len() as f64;
            // Scan path.
            let mut cand: (AccessPath, f64, usize) = (AccessPath::Scan, rows, 0);
            // Index paths: primary (projection order) + secondaries. A key
            // prefix is leading equality attributes, optionally extended by
            // one bounded range on the next attribute.
            let mut orders: Vec<(&[AttrId], AccessPath)> = Vec::new();
            if mv.primary.is_some() {
                orders.push((
                    &mv.def.projection,
                    AccessPath::Primary { eq_len: 0, range_next: false },
                ));
            }
            for (j, (order, _)) in mv.secondaries.iter().enumerate() {
                orders.push((order, AccessPath::Secondary { j, eq_len: 0, range_next: false }));
            }
            for (order, path) in orders {
                let mut eq_len = 0usize;
                let mut range_next = false;
                let mut selectivity = 1.0f64;
                for a in order {
                    match q.range_of(*a) {
                        Some((l, h)) if l == h => {
                            eq_len += 1;
                            selectivity *= self.catalog.attr(*a).cardinality.max(1) as f64;
                        }
                        Some((l, h)) => {
                            range_next = true;
                            let card = self.catalog.attr(*a).cardinality.max(1) as f64;
                            let span = (h.saturating_sub(l) + 1) as f64;
                            selectivity *= (card / span).max(1.0);
                            break;
                        }
                        None => break,
                    }
                }
                if eq_len == 0 && !range_next {
                    continue;
                }
                let est = (rows / selectivity).max(1.0);
                let depth = eq_len + range_next as usize;
                if (est, std::cmp::Reverse(depth)) < (cand.1, std::cmp::Reverse(cand.2)) {
                    cand = (path.with_shape(eq_len, range_next), est, depth);
                }
            }
            let better = match &best {
                None => true,
                Some((_, _, c, p)) => (cand.1, std::cmp::Reverse(cand.2)) < (*c, std::cmp::Reverse(*p)),
            };
            if better {
                best = Some((i, cand.0, cand.1, cand.2));
            }
        }
        best.map(|(i, p, c, _)| (i, p, c))
            .ok_or_else(|| CtError::unsupported("no materialized view can answer this query"))
    }

    fn execute(&self, q: &SliceQuery, view: usize, path: AccessPath) -> Result<Vec<QueryRow>> {
        let mv = &self.views[view];
        let arity = mv.def.arity();
        let mut agg = RollupAggregator::new(&self.catalog, &mv.def.projection, q)?;
        let mut processed = 0u64;
        match path {
            AccessPath::Scan => {
                let mut bad = None;
                mv.table.scan(|_, row| match AggState::decode(mv.def.agg, &row[arity..]) {
                    Ok(state) => {
                        agg.accept(&row[..arity], &state);
                        processed += 1;
                        true
                    }
                    Err(e) => {
                        bad = Some(e);
                        false
                    }
                })?;
                if let Some(e) = bad {
                    return Err(e);
                }
            }
            AccessPath::Primary { eq_len, range_next }
            | AccessPath::Secondary { eq_len, range_next, .. } => {
                let (order, tree): (&[AttrId], &BTree) = match path {
                    AccessPath::Primary { .. } => (
                        &mv.def.projection,
                        mv.primary.as_ref().ok_or_else(|| planned("primary index"))?,
                    ),
                    AccessPath::Secondary { j, .. } => {
                        let (o, t) = &mv.secondaries[j];
                        (o, t)
                    }
                    AccessPath::Scan => unreachable!(),
                };
                // Key-space bounds: equality prefix, optional range on the
                // next key column, then open.
                let mut lo_key = vec![0u64; tree.key_len()];
                let mut hi_key = vec![u64::MAX; tree.key_len()];
                for (i, a) in order.iter().take(eq_len).enumerate() {
                    // A degenerate range [v, v] counts as equality too.
                    let (v, _) = q.range_of(*a).ok_or_else(|| planned("prefix"))?;
                    lo_key[i] = v;
                    hi_key[i] = v;
                }
                if range_next {
                    let (l, h) = q.range_of(order[eq_len]).ok_or_else(|| planned("range"))?;
                    lo_key[eq_len] = l;
                    hi_key[eq_len] = h;
                }
                let mut rids = Vec::new();
                tree.scan_range(&lo_key, &hi_key, |_, pay| {
                    rids.push(Rid::from_u64(pay[0]));
                    true
                })?;
                // RID fetches hit the heap in index order — the random-I/O
                // pattern the paper attributes to the conventional scheme.
                for rid in rids {
                    let row = mv.table.get(rid)?;
                    let state = AggState::decode(mv.def.agg, &row[arity..])?;
                    agg.accept(&row[..arity], &state);
                    processed += 1;
                }
            }
        }
        self.env.stats().add_tuples(processed);
        let recorder = self.env.recorder();
        if recorder.is_enabled() {
            recorder.observe("core.query.touched_entries", processed);
            recorder.add(&format!("core.query.by_view.v{}", mv.def.id.0), 1);
        }
        Ok(agg.finish(mv.def.agg))
    }
}

/// The error for a plan whose promised input is missing.
fn planned(what: &str) -> CtError {
    CtError::invalid(format!("the plan's {what} is missing"))
}

/// The position of index attribute `a` among a view's columns.
fn column_of(projection: &[AttrId], a: AttrId) -> Result<usize> {
    projection
        .iter()
        .position(|b| *b == a)
        .ok_or_else(|| CtError::invalid(format!("index attribute {a:?} is not a view column")))
}

/// How a planned query reaches its view's rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AccessPath {
    /// Full heap scan.
    Scan,
    /// Primary index, probing with `eq_len` leading equality attributes and
    /// optionally one range on the next key column.
    Primary {
        /// Equality prefix length.
        eq_len: usize,
        /// Whether a bounded range extends the prefix by one column.
        range_next: bool,
    },
    /// Secondary index `j`, probed the same way.
    Secondary {
        /// Index position within the view's secondary list.
        j: usize,
        /// Equality prefix length.
        eq_len: usize,
        /// Whether a bounded range extends the prefix by one column.
        range_next: bool,
    },
}

impl AccessPath {
    fn with_shape(self, eq_len: usize, range_next: bool) -> AccessPath {
        match self {
            AccessPath::Primary { .. } => AccessPath::Primary { eq_len, range_next },
            AccessPath::Secondary { j, .. } => AccessPath::Secondary { j, eq_len, range_next },
            AccessPath::Scan => AccessPath::Scan,
        }
    }
}

impl RolapEngine for ConventionalEngine {
    fn name(&self) -> &'static str {
        "conventional"
    }

    fn load(&mut self, fact: &Relation) -> Result<()> {
        if !self.views.is_empty() {
            return Err(CtError::invalid("engine already loaded; use update or recompute"));
        }
        self.breakdown = LoadBreakdown::default();
        let phase = self.env.phase("load");
        let t0 = std::time::Instant::now();
        let io0 = self.env.snapshot();
        let defs = self.config.views.clone();
        let relations = {
            let _compute = phase.child("compute_views");
            compute_views(&self.env, &self.catalog, fact, &defs, projection_sort_cols)?
        };
        // View computation belongs to the "Views" column of Table 6.
        self.breakdown.views_wall += t0.elapsed().as_secs_f64();
        self.breakdown.views_sim +=
            self.env.snapshot().since(&io0).simulated_seconds(self.env.cost_model());
        {
            let _materialize = phase.child("materialize");
            for (def, rel) in defs.iter().zip(&relations) {
                self.materialize(def, rel)?;
            }
        }
        self.env.pool().flush_all()?;
        self.commit_manifest()
    }

    fn query(&self, q: &SliceQuery) -> Result<Vec<QueryRow>> {
        let _phase = self.env.phase("query");
        let (view, path, _cost) = self.plan(q)?;
        self.execute(q, view, path)
    }

    /// Row-at-a-time incremental maintenance: one primary-index probe per
    /// delta group, then either an in-place heap update or a heap insert
    /// plus an insert into **every** index of the view.
    fn update(&mut self, delta: &Relation) -> Result<()> {
        if delta.has_retractions() {
            if let Some(mv) = self.views.iter().find(|mv| !mv.def.agg.deletion_safe()) {
                return Err(CtError::unsupported(format!(
                    "delta contains deletions but view {:?} is materialized with {}, \
                     which cannot absorb retractions; use a deletion-safe aggregate \
                     (count, avg or sum+count)",
                    mv.def.id,
                    mv.def.agg.name()
                )));
            }
        }
        let _phase = self.env.phase("update");
        let defs: Vec<ViewDef> = self.views.iter().map(|mv| mv.def.clone()).collect();
        let deltas = compute_views(&self.env, &self.catalog, delta, &defs, projection_sort_cols)?;
        for (mv, rel) in self.views.iter_mut().zip(&deltas) {
            let arity = mv.def.arity();
            let agg_w = mv.def.agg.width();
            let mut row = vec![0u64; arity + agg_w];
            let mut words = Vec::with_capacity(agg_w);
            for i in 0..rel.len() {
                let key = rel.key(i);
                let delta_state = rel.states[i];
                let existing = match &mv.primary {
                    Some(t) => t.get(key)?,
                    None => {
                        // Scalar none view: its single row lives at a fixed RID.
                        if mv.table.is_empty() {
                            None
                        } else {
                            Some(vec![Rid { page: 1, slot: 0 }.to_u64()])
                        }
                    }
                };
                match existing {
                    Some(pay) => {
                        let rid = Rid::from_u64(pay[0]);
                        let mut old = mv.table.get(rid)?;
                        let mut state = AggState::decode(mv.def.agg, &old[arity..])?;
                        state.merge(&delta_state);
                        words.clear();
                        state.encode(mv.def.agg, &mut words);
                        old[arity..].copy_from_slice(&words);
                        mv.table.update(rid, &old)?;
                    }
                    None => {
                        row[..arity].copy_from_slice(key);
                        words.clear();
                        delta_state.encode(mv.def.agg, &mut words);
                        row[arity..].copy_from_slice(&words);
                        let rid = mv.table.append(&row)?.to_u64();
                        if let Some(t) = &mut mv.primary {
                            t.insert(key, &[rid])?;
                        }
                        for (order, t) in &mut mv.secondaries {
                            let perm = order
                                .iter()
                                .map(|a| Ok(key[column_of(&mv.def.projection, *a)?]))
                                .collect::<Result<Vec<u64>>>()?;
                            t.insert(&perm, &[rid])?;
                        }
                    }
                }
            }
            self.env.stats().add_tuples(rel.len() as u64);
            mv.table.flush_meta()?;
            if let Some(t) = &mut mv.primary {
                t.flush_meta()?;
            }
            for (_, t) in &mut mv.secondaries {
                t.flush_meta()?;
            }
        }
        self.env.pool().flush_all()?;
        self.commit_manifest()
    }

    fn storage_bytes(&self) -> u64 {
        self.views
            .iter()
            .map(|v| {
                self.env.file_bytes(v.table_fid)
                    + v.index_fids.iter().map(|&f| self.env.file_bytes(f)).sum::<u64>()
            })
            .sum()
    }

    fn env(&self) -> &StorageEnv {
        &self.env
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
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
    fn index_config_is_validated() {
        let (c, p, s) = catalog();
        let views = vec![ViewDef::new(0, vec![p, s], AggFn::Sum)];
        // Index on an unknown view.
        let bad = ConventionalConfig::new(views.clone()).with_index(ViewId(7), vec![p, s]);
        assert!(ConventionalEngine::new(c.clone(), bad).is_err());
        // Index whose key is not a permutation of the view.
        let bad = ConventionalConfig::new(views.clone()).with_index(ViewId(0), vec![p]);
        assert!(ConventionalEngine::new(c.clone(), bad).is_err());
        // A valid rotation works.
        let good = ConventionalConfig::new(views).with_index(ViewId(0), vec![s, p]);
        assert!(ConventionalEngine::new(c, good).is_ok());
    }

    #[test]
    fn double_load_is_rejected() {
        let (c, p, s) = catalog();
        let views = vec![ViewDef::new(0, vec![p, s], AggFn::Sum)];
        let mut e = ConventionalEngine::new(c, ConventionalConfig::new(views)).unwrap();
        let fact = Relation::from_fact(vec![p, s], vec![1, 1], &[2]);
        e.load(&fact).unwrap();
        assert!(e.load(&fact).is_err(), "use update or recompute instead");
        e.recompute(&fact).unwrap(); // recompute is the sanctioned reload
        let rows = e.query(&SliceQuery::new(vec![], vec![(p, 1)])).unwrap();
        assert_eq!(rows[0].agg, 2.0);
    }

    #[test]
    fn load_breakdown_accumulates() {
        let (c, p, s) = catalog();
        let views = vec![
            ViewDef::new(0, vec![p, s], AggFn::Sum),
            ViewDef::new(1, vec![p], AggFn::Sum),
        ];
        let cfg = ConventionalConfig::new(views).with_index(ViewId(0), vec![s, p]);
        let mut e = ConventionalEngine::new(c, cfg).unwrap();
        let mut keys = Vec::new();
        let mut measures = Vec::new();
        for i in 0..200u64 {
            keys.extend_from_slice(&[i % 5 + 1, i % 3 + 1]);
            measures.push(1);
        }
        let fact = Relation::from_fact(vec![ct_common::AttrId(0), ct_common::AttrId(1)], keys, &measures);
        e.load(&fact).unwrap();
        let bd = e.load_breakdown();
        assert!(bd.views_wall > 0.0);
        assert!(bd.views_sim >= 0.0);
        assert!(bd.index_wall > 0.0);
    }

    #[test]
    fn scalar_none_view_updates_in_place() {
        let (c, p, s) = catalog();
        let views = vec![ViewDef::new(0, vec![], AggFn::Sum)];
        let mut e = ConventionalEngine::new(c, ConventionalConfig::new(views)).unwrap();
        let fact = Relation::from_fact(vec![p, s], vec![1, 1, 2, 2], &[10, 20]);
        e.load(&fact).unwrap();
        let delta = Relation::from_fact(vec![p, s], vec![3, 3], &[5]);
        e.update(&delta).unwrap();
        let rows = e.query(&SliceQuery::new(vec![], vec![])).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].agg, 35.0);
    }
}
