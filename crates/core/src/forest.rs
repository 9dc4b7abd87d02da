//! Building and refreshing a Cubetree forest.
//!
//! The load pipeline is the paper's Figure 11: the fact data is pushed
//! through the view-selection output, every placement is computed in its
//! packing order by one plan ([`crate::views`]: a linear pass over a
//! relation whose sort order holds it, else a sort from its smallest parent
//! — \[AAD+96\], Figure 10), so *the same sort* that computes a view orders
//! it for packing, and the SelectMapping forest is bulk-loaded tree by tree.
//! The refresh pipeline is Figure 15: compute the delta of every placement
//! from the increment by the same plan, and merge-pack each tree into a
//! fresh packed file.
//!
//! The paper's replica feature (§3: the top view stored in multiple sort
//! orders "to further enhance the performance") is modeled as extra
//! *placements*: physically distinct views with permuted projection lists
//! that answer queries for the same logical view.
//!
//! ## Parallel sort→pack pipeline
//!
//! View computation runs once for the whole forest, each independent sort
//! as one job ([`crate::views`]). Then each Cubetree of the SelectMapping
//! forest is an independent pack (on build) or merge-pack (on refresh) job
//! over the shared relations. When the environment's
//! [`ct_storage::Parallelism`] budget allows, jobs are dispatched over a
//! bounded pool of scoped worker threads. A tree job writes its new file,
//! and merge-pack reads its old one, straight through the file and past the
//! buffer pool, and every file belongs to one job — so each file's page
//! traffic is a pure function of its job, and the packed bytes *and* the
//! simulated-I/O totals are identical for every worker count (`threads = 1`
//! reproduces the sequential pipeline bit for bit).
//!
//! ## Generations: concurrent reads during refresh
//!
//! The forest is versioned. Each committed file set — the packed trees plus
//! the placements they serve — lives in an [`Arc`]'d [`Generation`]
//! snapshot. Readers *pin* the current generation ([`CubetreeForest::pin`])
//! and run entirely against that immutable snapshot; [`CubetreeForest::update`]
//! merge-packs the next generation into fresh files on the side, commits it
//! with one atomic manifest rename (the flip point — exactly the PR 3 crash
//! commit), publishes the new `Arc` through the swap cell and *retires* the
//! old generation. A retired generation's files are doomed and unlinked when
//! the last pinned reader drops its `Arc` — deferred reclamation built on
//! the pool's doomed-`DiskFile` machinery, so in-flight queries finish on
//! the bytes they started with and never observe a half-swapped forest.

use crate::delta::{DeltaSnapshot, DeltaTier};
use crate::jobs::map_jobs;
use crate::select_mapping::{select_mapping, MappingPlan};
use crate::views::compute_views;
use ct_common::{AttrId, Catalog, CtError, Point, Result, ViewDef, ViewId};
use ct_cube::compute::packed_sort_cols;
use ct_cube::Relation;
use ct_rtree::{merge_pack, LeafFormat, PackedRTree, TreeBuilder, VecStream, ViewInfo};
use ct_storage::{BufferPool, FileId, StorageEnv};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Materializes replica definitions with fresh ids, returning the full
/// physical view list and, for each entry, the logical view it answers.
/// Deterministic in its inputs, so recovery can re-derive the same forest
/// shape that was built.
fn expand_views(
    views: &[ViewDef],
    replicas: &[(ViewId, Vec<AttrId>)],
) -> Result<(Vec<ViewDef>, Vec<ViewId>)> {
    let base_id = views.iter().map(|v| v.id.0).max().map_or(0, |m| m + 1);
    let mut all_defs: Vec<ViewDef> = views.to_vec();
    let mut logical: Vec<ViewId> = views.iter().map(|v| v.id).collect();
    for (off, (base, projection)) in replicas.iter().enumerate() {
        let base_def = views
            .iter()
            .find(|v| v.id == *base)
            .ok_or_else(|| CtError::invalid(format!("replica base {base:?} not in view set")))?;
        if !base_def.covers_exactly(projection) {
            return Err(CtError::invalid(
                "replica projection must be a permutation of its base view",
            ));
        }
        all_defs.push(ViewDef::new(base_id + off as u32, projection.clone(), base_def.agg));
        logical.push(*base);
    }
    Ok((all_defs, logical))
}

/// The index into `defs` of each view id in `ids`, in `ids` order.
fn def_indexes(defs: &[ViewDef], ids: &[ViewId]) -> Result<Vec<usize>> {
    ids.iter()
        .map(|id| {
            defs.iter()
                .position(|d| d.id == *id)
                .ok_or_else(|| CtError::invalid("mapping plan names an unknown view"))
        })
        .collect()
}

/// The manifest component name of tree `t` (`cubetree-0`, `cubetree-1`, …).
fn tree_component(t: usize) -> String {
    format!("cubetree-{t}")
}

/// The canonical fact-attribute order of the delta tier: ascending id,
/// deduplicated. A pure function of its input, so build and recovery derive
/// the same order from the fact schema and the view projections
/// respectively (every materialized attribute comes from the fact).
fn canonical_attrs(attrs: impl IntoIterator<Item = AttrId>) -> Vec<AttrId> {
    let mut out: Vec<AttrId> = attrs.into_iter().collect();
    out.sort_by_key(|a| a.0);
    out.dedup();
    out
}

/// One physical view placement in the forest.
#[derive(Clone, Debug)]
pub struct PlacedView {
    /// The physical definition (for replicas, a permuted projection).
    pub def: ViewDef,
    /// The logical view this placement answers (identity for primaries).
    pub logical: ViewId,
    /// Which tree of the forest holds it.
    pub tree: usize,
}

/// Shared bookkeeping behind the `storage.generation.*` gauges: how many
/// generations are alive (current + retired-awaiting-reclaim), how many
/// readers hold pins right now, and how many bytes of retired files wait on
/// their last pin. The atomics are authoritative; the gauges mirror them so
/// a disabled recorder costs a couple of relaxed stores.
struct GenTracker {
    live: AtomicI64,
    pins: AtomicI64,
    deferred: AtomicI64,
    g_live: ct_obs::Gauge,
    g_pins: ct_obs::Gauge,
    g_deferred: ct_obs::Gauge,
    flips: ct_obs::Counter,
}

impl GenTracker {
    fn new(recorder: &ct_obs::Recorder) -> Arc<GenTracker> {
        Arc::new(GenTracker {
            live: AtomicI64::new(0),
            pins: AtomicI64::new(0),
            deferred: AtomicI64::new(0),
            g_live: recorder.gauge("storage.generation.live"),
            g_pins: recorder.gauge("storage.generation.pinned_readers"),
            g_deferred: recorder.gauge("storage.generation.deferred_bytes"),
            flips: recorder.counter("storage.generation.flips"),
        })
    }

    fn gen_created(&self) {
        let v = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.g_live.set(v as f64);
    }

    fn gen_dropped(&self) {
        let v = self.live.fetch_sub(1, Ordering::Relaxed) - 1;
        self.g_live.set(v as f64);
    }

    fn pinned(&self) {
        let v = self.pins.fetch_add(1, Ordering::Relaxed) + 1;
        self.g_pins.set(v as f64);
    }

    fn unpinned(&self) {
        let v = self.pins.fetch_sub(1, Ordering::Relaxed) - 1;
        self.g_pins.set(v as f64);
    }

    fn defer_bytes(&self, bytes: i64) {
        let v = self.deferred.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.g_deferred.set(v as f64);
    }
}

/// One committed generation of the forest: the packed trees, the file
/// handles backing them and the placements they serve, frozen at commit
/// time. Obtained through [`CubetreeForest::pin`]; immutable and safe to
/// read from any thread while an update builds its successor.
pub struct Generation {
    number: u64,
    placements: Arc<Vec<PlacedView>>,
    trees: Vec<PackedRTree>,
    fids: Vec<FileId>,
    pool: Arc<BufferPool>,
    tracker: Arc<GenTracker>,
    /// Set exactly once, by the update that replaced this generation. A
    /// retired generation's files are removed when the last `Arc` drops.
    retired: AtomicBool,
    /// Bytes this generation's files held at retirement (for the
    /// `deferred_bytes` gauge; reversed on drop).
    retired_bytes: AtomicU64,
}

impl Generation {
    fn new(
        number: u64,
        placements: Arc<Vec<PlacedView>>,
        trees: Vec<PackedRTree>,
        fids: Vec<FileId>,
        pool: Arc<BufferPool>,
        tracker: Arc<GenTracker>,
    ) -> Arc<Generation> {
        tracker.gen_created();
        Arc::new(Generation {
            number,
            placements,
            trees,
            fids,
            pool,
            tracker,
            retired: AtomicBool::new(false),
            retired_bytes: AtomicU64::new(0),
        })
    }

    /// The generation number (bumped by every committed update).
    pub fn number(&self) -> u64 {
        self.number
    }

    /// All placements (primaries and replicas) this generation serves.
    pub fn placements(&self) -> &[PlacedView] {
        &self.placements
    }

    /// The trees of this generation's forest.
    pub fn trees(&self) -> &[PackedRTree] {
        &self.trees
    }

    /// One tree.
    pub fn tree(&self, i: usize) -> &PackedRTree {
        &self.trees[i]
    }

    /// Entries stored for a placement.
    pub fn entries_of(&self, view: ViewId) -> u64 {
        self.placements
            .iter()
            .find(|p| p.def.id == view)
            .and_then(|p| self.trees[p.tree].view_extent(view.0))
            .map_or(0, |(_, ext)| ext.entries)
    }

    /// Total allocated bytes across this generation's files.
    pub fn storage_bytes(&self) -> u64 {
        self.fids.iter().map(|&f| self.pool.file(f).map_or(0, |x| x.size_bytes())).sum()
    }

    /// The on-disk paths of this generation's files (for reclamation tests:
    /// a retired generation's paths disappear when its last pin drops).
    pub fn file_paths(&self) -> Vec<std::path::PathBuf> {
        self.fids
            .iter()
            .filter_map(|&f| self.pool.file(f).ok().map(|x| x.path().to_path_buf()))
            .collect()
    }

    /// Marks this generation as replaced. Called once, by the update that
    /// committed its successor, after the manifest flip.
    fn retire(&self) {
        self.retired_bytes.store(self.storage_bytes(), Ordering::Relaxed);
        self.tracker.defer_bytes(self.retired_bytes.load(Ordering::Relaxed) as i64);
        self.retired.store(true, Ordering::Release);
    }
}

impl Drop for Generation {
    fn drop(&mut self) {
        self.tracker.gen_dropped();
        if self.retired.load(Ordering::Acquire) {
            // Last reference to a replaced generation: evict its frames and
            // unlink its files (deferred through doom if a raw handle is
            // still around). Errors cannot surface from drop; the files are
            // orphans to recovery either way.
            for &fid in &self.fids {
                let _ = self.pool.remove_file(fid);
            }
            self.tracker.defer_bytes(-(self.retired_bytes.load(Ordering::Relaxed) as i64));
        }
    }
}

/// The freshness identity of one storage environment's visible state: the
/// committed generation number plus the delta tier's mutation epoch (see
/// [`DeltaSnapshot::epoch`]). Both components are monotone — generations
/// only advance, delta epochs only grow — so two equal stamps imply an
/// identical visible state: the same immutable packed trees and the same
/// resident delta rows. That equivalence is what lets the serving layer's
/// answer cache treat a stamp match as proof a memoized answer is
/// bit-identical to a freshly pinned read.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AnswerStamp {
    /// Committed generation number of the packed trees.
    pub generation: u64,
    /// Delta-tier mutation epoch (bumped by ingest, rotation, compaction).
    pub delta_epoch: u64,
}

impl AnswerStamp {
    /// The stamp of a pinned snapshot: the pair
    /// [`CubetreeForest::pin_with_delta`] took under the generation lock,
    /// which is exactly the state the pinned reads answer from.
    pub fn of(pin: &ReaderPin, delta: &DeltaSnapshot) -> AnswerStamp {
        AnswerStamp { generation: pin.number(), delta_epoch: delta.epoch() }
    }
}

/// A pinned reader's handle on one [`Generation`]. Holding it keeps the
/// generation's trees and files alive — and readable — even if updates
/// retire the generation meanwhile; reclamation happens when the last pin
/// (and the forest's own reference) is gone. Dereferences to the pinned
/// [`Generation`].
pub struct ReaderPin {
    gen: Arc<Generation>,
    tracker: Arc<GenTracker>,
}

impl std::ops::Deref for ReaderPin {
    type Target = Generation;

    fn deref(&self) -> &Generation {
        &self.gen
    }
}

impl Drop for ReaderPin {
    fn drop(&mut self) {
        self.tracker.unpinned();
    }
}

/// A forest of packed R-trees materializing a set of ROLAP views.
///
/// All mutation goes through interior state: readers [`CubetreeForest::pin`]
/// the current [`Generation`] and updates swap in a successor, so queries
/// and refresh run concurrently on a shared reference.
pub struct CubetreeForest {
    format: LeafFormat,
    plan: MappingPlan,
    /// Every physical view definition, primaries then replicas: the targets
    /// each load and refresh computes, in one fixed order.
    defs: Vec<ViewDef>,
    placements: Arc<Vec<PlacedView>>,
    /// The swap cell: the current generation, replaced atomically (under
    /// the lock) at each update's publish point.
    current: Mutex<Arc<Generation>>,
    /// Serializes writers; readers never take it.
    writer: Mutex<()>,
    tracker: Arc<GenTracker>,
    /// The streaming-ingestion tier above the packed trees (see
    /// [`crate::delta`]). Rows land here via [`CubetreeForest::ingest`] and
    /// leave via [`CubetreeForest::compact_delta`], atomically with a
    /// generation flip.
    delta: DeltaTier,
}

impl CubetreeForest {
    /// Builds the forest from a fact relation.
    ///
    /// `replicas` lists `(base view id, permuted projection)` pairs; each
    /// becomes an additional placement competing in the SelectMapping
    /// allocation (a replica has the same arity as its base, so it always
    /// lands in a different tree).
    pub fn build(
        env: &StorageEnv,
        catalog: &Catalog,
        fact: &Relation,
        views: &[ViewDef],
        replicas: &[(ViewId, Vec<AttrId>)],
        format: LeafFormat,
    ) -> Result<CubetreeForest> {
        // Materialize replica definitions with fresh ids.
        let (all_defs, logical) = expand_views(views, replicas)?;

        // Allocate the forest.
        let plan = select_mapping(&all_defs);

        // Compute every placement's relation, replicas included, in its
        // packing order: three sorts under the paper's set-up, the rest
        // linear passes.
        let compute_phase = env.phase("load/compute_views");
        let relations = compute_views(env, catalog, fact, &all_defs, packed_sort_cols)?;
        drop(compute_phase);

        // Pack each tree: one independent job per Cubetree, dispatched over
        // the environment's thread budget. Files are created on this thread,
        // in tree order, so file ids and names do not depend on the budget.
        let pack_phase = env.phase("load/pack");
        let tree_count = plan.trees.len();
        let mut fids = Vec::with_capacity(tree_count);
        let mut placements = Vec::with_capacity(all_defs.len());
        for (t, spec) in plan.trees.iter().enumerate() {
            fids.push(env.create_file(&format!("cubetree-{t}"))?);
            for idx in def_indexes(&all_defs, &spec.views)? {
                placements.push(PlacedView {
                    def: all_defs[idx].clone(),
                    logical: logical[idx],
                    tree: t,
                });
            }
        }
        let trees = map_jobs(env.parallelism().threads, tree_count, |t| {
            // Wall-only span: page I/O of concurrent jobs cannot be told
            // apart on the shared counters, so per-tree spans time only.
            let _span = env.recorder().span(&format!("load/pack/tree{t}"));
            let spec = &plan.trees[t];
            let idxs = def_indexes(&all_defs, &spec.views)?;
            let infos = idxs
                .iter()
                .map(|&idx| {
                    let def = &all_defs[idx];
                    ViewInfo { view: def.id.0, arity: def.arity() as u8, agg: def.agg }
                })
                .collect();
            let mut builder =
                TreeBuilder::new(env.pool().clone(), fids[t], spec.dims, infos, format)?;
            for (id, &idx) in spec.views.iter().zip(&idxs) {
                let rel = &relations[idx];
                for r in 0..rel.len() {
                    builder.push(id.0, Point::new(rel.key(r), spec.dims), &rel.states[r])?;
                }
                env.stats().add_tuples(rel.len() as u64);
            }
            builder.finish()
        })?;
        // Durability commit: sync the packed files, then atomically publish
        // them as the live file set. Until this lands, recovery treats every
        // file of this build as an orphan.
        let mut entries = Vec::with_capacity(tree_count);
        for (t, &fid) in fids.iter().enumerate() {
            env.pool().file(fid)?.sync()?;
            entries.push(env.manifest_entry(&tree_component(t), fid)?);
        }
        env.commit_manifest(entries)?;
        drop(pack_phase);
        let placements = Arc::new(placements);
        let tracker = GenTracker::new(env.recorder());
        let generation = Generation::new(
            0,
            placements.clone(),
            trees,
            fids,
            env.pool().clone(),
            tracker.clone(),
        );
        let delta = DeltaTier::new(
            env.recorder(),
            canonical_attrs(fact.attrs.iter().copied()),
            placements.iter().all(|p| p.def.agg.deletion_safe()),
        );
        Ok(CubetreeForest {
            format,
            plan,
            defs: all_defs,
            placements,
            current: Mutex::new(generation),
            writer: Mutex::new(()),
            tracker,
            delta,
        })
    }

    /// Reopens a forest from the environment's recovered manifest (after
    /// [`ct_storage::StorageEnv::open_at`]). `views` and `replicas` must be
    /// the same sets the forest was built with: the mapping plan is a pure
    /// function of them, so the tree layout re-derives deterministically and
    /// each tree re-attaches to its manifest-named file. `format` need not
    /// match: leaves are self-describing, so the forest answers from the
    /// bytes it finds and its next refresh merge-packs every tree into
    /// `format`.
    pub fn open(
        env: &StorageEnv,
        views: &[ViewDef],
        replicas: &[(ViewId, Vec<AttrId>)],
        format: LeafFormat,
    ) -> Result<CubetreeForest> {
        let (all_defs, logical) = expand_views(views, replicas)?;
        let plan = select_mapping(&all_defs);
        let mut fids = Vec::with_capacity(plan.trees.len());
        let mut trees = Vec::with_capacity(plan.trees.len());
        let mut placements = Vec::with_capacity(all_defs.len());
        for (t, spec) in plan.trees.iter().enumerate() {
            let fid = env.open_file(&tree_component(t))?;
            fids.push(fid);
            for idx in def_indexes(&all_defs, &spec.views)? {
                placements.push(PlacedView {
                    def: all_defs[idx].clone(),
                    logical: logical[idx],
                    tree: t,
                });
            }
            trees.push(PackedRTree::open(env.pool().clone(), fid)?);
        }
        // A forest commits its environment's manifest once when built and
        // once per update, so the live generation is the commit count less
        // one: a reopened forest reports the generation it was dropped at.
        let number = env.manifest().seq.saturating_sub(1);
        let placements = Arc::new(placements);
        let tracker = GenTracker::new(env.recorder());
        let generation = Generation::new(
            number,
            placements.clone(),
            trees,
            fids,
            env.pool().clone(),
            tracker.clone(),
        );
        // The fact relation is gone after a restart; the union of the view
        // projections recovers the same canonical order (every materialized
        // attribute comes from the fact, and canonical order is sorted ids).
        let delta = DeltaTier::new(
            env.recorder(),
            canonical_attrs(views.iter().flat_map(|v| v.projection.iter().copied())),
            placements.iter().all(|p| p.def.agg.deletion_safe()),
        );
        Ok(CubetreeForest {
            format,
            plan,
            defs: all_defs,
            placements,
            current: Mutex::new(generation),
            writer: Mutex::new(()),
            tracker,
            delta,
        })
    }

    /// The mapping plan (for reports and tests).
    pub fn plan(&self) -> &MappingPlan {
        &self.plan
    }

    /// All placements (primaries and replicas). Stable across generations —
    /// updates change tree contents, never the forest shape.
    pub fn placements(&self) -> &[PlacedView] {
        &self.placements
    }

    /// Pins the current generation for reading. The returned guard keeps the
    /// snapshot's trees and files alive until it drops; an update committing
    /// meanwhile does not disturb it. Pin once per logical operation (a
    /// query, a batch) so every lookup inside it sees one generation.
    pub fn pin(&self) -> ReaderPin {
        let gen = self.current.lock().clone();
        self.tracker.pinned();
        ReaderPin { gen, tracker: self.tracker.clone() }
    }

    /// Pins the current generation *and* snapshots the resident delta in
    /// one atomic step: both are taken under the generation lock, and a
    /// compaction removes runs under that same lock at its flip point, so
    /// the pair sees every ingested row exactly once — in the delta before
    /// the flip, in the trees after, never both or neither. The lock is held
    /// for two `Arc` clones — the generation and the run list — whatever the
    /// number of resident rows.
    pub fn pin_with_delta(&self) -> (ReaderPin, DeltaSnapshot) {
        let (gen, snap) = {
            let cur = self.current.lock();
            (cur.clone(), self.delta.snapshot())
        };
        self.tracker.pinned();
        (ReaderPin { gen, tracker: self.tracker.clone() }, snap)
    }

    /// The streaming-ingestion tier (thresholds, stats, snapshots).
    pub fn delta(&self) -> &DeltaTier {
        &self.delta
    }

    /// The freshness stamp of the state a read pinned right now would see:
    /// generation number and delta epoch taken together under the generation
    /// lock, the same consistent cut [`CubetreeForest::pin_with_delta`]
    /// takes. Used by the serving-layer answer cache to probe without
    /// paying for a pin. The epoch is an atomic read, so a probe never
    /// queues behind an ingest.
    pub fn answer_stamp(&self) -> AnswerStamp {
        let cur = self.current.lock();
        AnswerStamp { generation: cur.number, delta_epoch: self.delta.epoch() }
    }

    /// Absorbs fact rows into the in-memory delta tier. The rows become
    /// visible to queries immediately — no merge-pack, no I/O — and move
    /// into the packed trees at the next [`CubetreeForest::compact_delta`].
    ///
    /// # Errors
    /// See [`DeltaTier::ingest`].
    pub fn ingest(&self, rows: &Relation) -> Result<u64> {
        self.delta.ingest(rows)
    }

    /// The current generation number (bumped by every committed update).
    pub fn generation_number(&self) -> u64 {
        self.current.lock().number
    }

    /// Entries stored for a placement, in the current generation.
    pub fn entries_of(&self, view: ViewId) -> u64 {
        self.pin().entries_of(view)
    }

    /// Total allocated bytes across the current generation's files.
    pub fn storage_bytes(&self) -> u64 {
        self.pin().storage_bytes()
    }

    /// Bulk-incremental refresh (paper Figure 15): computes each placement's
    /// delta from the fact increment, then merge-packs every tree into a new
    /// packed file with strictly sequential I/O.
    ///
    /// Takes `&self`: readers keep answering from their pinned generation
    /// for the whole refresh. The sequence is pin base → merge-pack new
    /// files on the worker pool → commit the manifest (the atomic flip) →
    /// publish the new generation → retire the base. Retired files are
    /// unlinked when the last pin drops. Concurrent writers serialize on an
    /// internal lock.
    pub fn update(
        &self,
        env: &StorageEnv,
        catalog: &Catalog,
        delta_fact: &Relation,
    ) -> Result<()> {
        let _writer = self.writer.lock();
        self.update_locked(env, catalog, delta_fact, &[])
    }

    /// Compacts the resident delta tier into the forest: seals the active
    /// runs, merges every sealed run into one fact relation, and
    /// merge-packs it exactly like [`CubetreeForest::update`]. The sealed
    /// runs are removed at the generation flip, under the generation
    /// lock, so readers switch from delta-merged answers to tree answers
    /// atomically. Returns `false` (without packing) when nothing is
    /// resident.
    ///
    /// On error the runs stay resident and visible; a later compaction
    /// retries them.
    pub fn compact_delta(&self, env: &StorageEnv, catalog: &Catalog) -> Result<bool> {
        let _writer = self.writer.lock();
        let Some((rel, ids)) = self.delta.drain() else {
            return Ok(false);
        };
        self.update_locked(env, catalog, &rel, &ids)?;
        Ok(true)
    }

    /// The merge-pack body shared by [`CubetreeForest::update`] and
    /// [`CubetreeForest::compact_delta`]. Caller holds the writer lock.
    /// `compacted` lists delta-tier runs whose rows `delta_fact`
    /// carries; they are removed atomically with the publish.
    fn update_locked(
        &self,
        env: &StorageEnv,
        catalog: &Catalog,
        delta_fact: &Relation,
        compacted: &[u64],
    ) -> Result<()> {
        let base = self.current.lock().clone();
        if delta_fact.has_retractions() {
            if let Some(p) = self.placements.iter().find(|p| !p.def.agg.deletion_safe()) {
                return Err(CtError::unsupported(format!(
                    "delta contains deletions but view {:?} is materialized with {}, \
                     which cannot absorb retractions; use a deletion-safe aggregate \
                     (count, avg or sum+count)",
                    p.def.id,
                    p.def.agg.name()
                )));
            }
        }
        let next_number = base.number + 1;
        // Every placement's delta, by the same plan a load uses.
        let compute_phase = env.phase("update/compute_views");
        let relations = compute_views(env, catalog, delta_fact, &self.defs, packed_sort_cols)?;
        drop(compute_phase);
        let merge_phase = env.phase("update/merge");
        let tree_count = self.plan.trees.len();
        let new_fids = (0..tree_count)
            .map(|t| env.create_file(&format!("cubetree-{t}-gen{next_number}")))
            .collect::<Result<Vec<_>>>()?;
        let new_trees = map_jobs(env.parallelism().threads, tree_count, |t| {
            let _span = env.recorder().span(&format!("update/merge/tree{t}"));
            let (spec, old) = (&self.plan.trees[t], &base.trees[t]);
            // The tree's merged delta stream: views in spec order
            // (ascending arity) are globally packed-sorted.
            let mut items: Vec<(u32, Point, ct_common::AggState)> = Vec::new();
            for idx in def_indexes(&self.defs, &spec.views)? {
                let (id, rel) = (self.defs[idx].id, &relations[idx]);
                for r in 0..rel.len() {
                    items.push((id.0, Point::new(rel.key(r), spec.dims), rel.states[r]));
                }
            }
            env.stats().add_tuples(items.len() as u64);
            let infos = old.views().iter().map(|(info, _)| *info).collect();
            let mut delta = VecStream::new(items);
            merge_pack(env.pool().clone(), old, &mut delta, new_fids[t], infos, self.format)
        })?;
        drop(merge_phase);
        let _swap_phase = env.phase("update/swap");
        env.faults().crash_point("update/pre_commit")?;
        // Durability commit: sync the new generation's files, then publish
        // them with one atomic manifest rename. Before the rename lands the
        // old file set is live (a crash recovers to pre-update state);
        // after it the new one is (a crash recovers to post-update state) —
        // never anything in between. This rename is also the MVCC flip
        // point: the in-memory publish below follows it immediately.
        let mut entries = Vec::with_capacity(tree_count);
        for (t, &new_fid) in new_fids.iter().enumerate() {
            env.pool().file(new_fid)?.sync()?;
            entries.push(env.manifest_entry(&tree_component(t), new_fid)?);
        }
        env.commit_manifest(entries)?;
        env.faults().crash_point("update/post_commit")?;
        // Publish: swap the new generation into the cell. Readers pinning
        // from now on see the new trees; existing pins keep the base.
        let next = Generation::new(
            next_number,
            self.placements.clone(),
            new_trees,
            new_fids,
            env.pool().clone(),
            self.tracker.clone(),
        );
        {
            let mut cur = self.current.lock();
            *cur = next;
            // Same critical section as the swap: a pin_with_delta either
            // sees (base, delta incl. these runs) or (next, delta
            // excl. them) — compacted rows are never double-counted or
            // momentarily invisible.
            if !compacted.is_empty() {
                self.delta.mark_compacted(compacted);
            }
        }
        self.tracker.flips.inc();
        // A crash here (after the rename, before the old generation's doom)
        // leaves the committed manifest plus the prior generation's files on
        // disk; recovery reconciles strictly from the manifest and deletes
        // the unreferenced survivors.
        env.faults().crash_point("update/before_reclaim")?;
        // Retire the base: its files are reclaimed when the last reference
        // (ours, unless readers still pin it) goes away.
        base.retire();
        drop(base);
        env.faults().crash_point("update/after_swap")?;
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ct_common::AggFn;

    fn setup() -> (StorageEnv, Catalog, Relation, Vec<ViewDef>, [AttrId; 3]) {
        let env = StorageEnv::new("forest-unit").unwrap();
        let mut cat = Catalog::new();
        let p = cat.add_attr("p", 10);
        let s = cat.add_attr("s", 4);
        let c = cat.add_attr("c", 6);
        let mut keys = Vec::new();
        let mut measures = Vec::new();
        let mut x = 3u64;
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            keys.extend_from_slice(&[x % 10 + 1, (x >> 17) % 4 + 1, (x >> 29) % 6 + 1]);
            measures.push(((x >> 43) % 30) as i64 + 1);
        }
        let fact = Relation::from_fact(vec![p, s, c], keys, &measures);
        let views = vec![
            ViewDef::new(0, vec![p, s, c], AggFn::Sum),
            ViewDef::new(1, vec![p, s], AggFn::Sum),
            ViewDef::new(2, vec![c], AggFn::Sum),
            ViewDef::new(3, vec![], AggFn::Sum),
        ];
        (env, cat, fact, views, [p, s, c])
    }

    #[test]
    fn build_places_every_view_once() {
        let (env, cat, fact, views, _) = setup();
        let forest =
            CubetreeForest::build(&env, &cat, &fact, &views, &[], LeafFormat::ZeroElided)
                .unwrap();
        assert_eq!(forest.placements().len(), 4);
        // Table-5 shape: one 3-dim tree holding everything (arities 0..3
        // are all distinct).
        assert_eq!(forest.pin().trees().len(), 1);
        assert_eq!(forest.plan().tree_count(), 1);
        // Entry counts: none view has exactly one entry.
        assert_eq!(forest.entries_of(ViewId(3)), 1);
        assert!(forest.entries_of(ViewId(0)) >= forest.entries_of(ViewId(1)));
        assert_eq!(forest.entries_of(ViewId(99)), 0, "unknown view has no entries");
        assert!(forest.storage_bytes() > 0);
    }

    #[test]
    fn replicas_get_their_own_trees() {
        let (env, cat, fact, views, [p, s, c]) = setup();
        let replicas = vec![(ViewId(0), vec![s, c, p]), (ViewId(0), vec![c, p, s])];
        let forest =
            CubetreeForest::build(&env, &cat, &fact, &views, &replicas, LeafFormat::ZeroElided)
                .unwrap();
        assert_eq!(forest.placements().len(), 6);
        assert_eq!(forest.pin().trees().len(), 3, "three arity-3 placements need three trees");
        // All replica placements answer for the logical top view.
        let logical_top =
            forest.placements().iter().filter(|pl| pl.logical == ViewId(0)).count();
        assert_eq!(logical_top, 3);
        // Replica contents are identical to the primary (same groups).
        let primary = forest.entries_of(ViewId(0));
        for pl in forest.placements() {
            if pl.logical == ViewId(0) {
                assert_eq!(forest.entries_of(pl.def.id), primary);
            }
        }
    }

    #[test]
    fn replica_validation() {
        let (env, cat, fact, views, [p, s, _]) = setup();
        // Unknown base view.
        let bad_base = vec![(ViewId(9), vec![p, s])];
        assert!(CubetreeForest::build(&env, &cat, &fact, &views, &bad_base, LeafFormat::ZeroElided)
            .is_err());
        // Projection is not a permutation of the base.
        let bad_proj = vec![(ViewId(0), vec![p, s])];
        assert!(CubetreeForest::build(&env, &cat, &fact, &views, &bad_proj, LeafFormat::ZeroElided)
            .is_err());
    }

    #[test]
    fn empty_fact_builds_empty_views() {
        let (env, cat, _, views, [p, s, c]) = setup();
        let empty = Relation::empty(vec![p, s, c]);
        let forest =
            CubetreeForest::build(&env, &cat, &empty, &views, &[], LeafFormat::ZeroElided)
                .unwrap();
        for v in 0..4u32 {
            assert_eq!(forest.entries_of(ViewId(v)), 0);
        }
    }

    #[test]
    fn update_grows_entry_counts() {
        let (env, cat, fact, views, [p, s, c]) = setup();
        let forest =
            CubetreeForest::build(&env, &cat, &fact, &views, &[], LeafFormat::ZeroElided)
                .unwrap();
        let before = forest.entries_of(ViewId(0));
        // A delta guaranteed to contain a brand-new group (keys at domain max).
        let delta = Relation::from_fact(vec![p, s, c], vec![10, 4, 6], &[5]);
        forest.update(&env, &cat, &delta).unwrap();
        let after = forest.entries_of(ViewId(0));
        assert!(after == before || after == before + 1);
        assert_eq!(forest.entries_of(ViewId(3)), 1, "none view stays scalar");
    }

    #[test]
    fn pinned_generation_survives_an_update_and_is_reclaimed_after() {
        let (env, cat, fact, views, [p, s, c]) = setup();
        let forest =
            CubetreeForest::build(&env, &cat, &fact, &views, &[], LeafFormat::ZeroElided)
                .unwrap();
        let pin = forest.pin();
        assert_eq!(pin.number(), 0);
        let old_entries = pin.entries_of(ViewId(0));
        let old_paths = pin.file_paths();
        assert!(old_paths.iter().all(|p| p.exists()));

        let delta = Relation::from_fact(vec![p, s, c], vec![10, 4, 6], &[5]);
        forest.update(&env, &cat, &delta).unwrap();
        assert_eq!(forest.generation_number(), 1);
        // The pinned snapshot still answers from the old bytes...
        assert_eq!(pin.entries_of(ViewId(0)), old_entries);
        assert!(old_paths.iter().all(|p| p.exists()), "pins defer reclamation");
        // ...and a fresh pin sees the new generation.
        assert_eq!(forest.pin().number(), 1);
        drop(pin);
        assert!(
            old_paths.iter().all(|p| !p.exists()),
            "last pin drop unlinks the retired generation"
        );
    }

    #[test]
    fn generation_gauges_track_pins_and_reclamation() {
        let (_env, cat, fact, views, [p, s, c]) = setup();
        let recorder = ct_obs::Recorder::enabled();
        let env = StorageEnv::with_config_full(
            "forest-gauges",
            256,
            ct_common::CostModel::default(),
            ct_storage::Parallelism::default(),
            recorder.clone(),
        )
        .unwrap();
        let forest =
            CubetreeForest::build(&env, &cat, &fact, &views, &[], LeafFormat::ZeroElided)
                .unwrap();
        let gauge = |n: &str| recorder.gauge(n).get();
        assert_eq!(gauge("storage.generation.live"), 1.0);
        assert_eq!(gauge("storage.generation.pinned_readers"), 0.0);
        let pin = forest.pin();
        assert_eq!(gauge("storage.generation.pinned_readers"), 1.0);
        let delta = Relation::from_fact(vec![p, s, c], vec![10, 4, 6], &[5]);
        forest.update(&env, &cat, &delta).unwrap();
        // Old generation alive behind the pin, with its bytes deferred.
        assert_eq!(gauge("storage.generation.live"), 2.0);
        assert!(gauge("storage.generation.deferred_bytes") > 0.0);
        assert_eq!(recorder.counter("storage.generation.flips").get(), 1);
        drop(pin);
        assert_eq!(gauge("storage.generation.pinned_readers"), 0.0);
        assert_eq!(gauge("storage.generation.live"), 1.0);
        assert_eq!(gauge("storage.generation.deferred_bytes"), 0.0);
    }
}
