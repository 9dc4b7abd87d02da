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
//! fresh packed file. A load is that merge with no old tree, so both run
//! through one generation writer, and [`CubetreeForest::build`] and
//! [`CubetreeForest::open`] through one assembly.
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
//! forest is one job of the same writer: it streams its views' relations in
//! spec order into [`ct_rtree::write_tree`], which packs them (on load) or
//! merges them with the tree's old scan (on refresh). When the environment's
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
use ct_rtree::{write_tree, IterStream, LeafFormat, PackedRTree, ViewInfo};
use ct_storage::{BufferPool, FileId, StorageEnv};
use parking_lot::Mutex;
use std::iter::successors;
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

/// The manifest component name of tree `t` (`cubetree-0`, `cubetree-1`, …).
fn tree_component(t: usize) -> String {
    format!("cubetree-{t}")
}

/// The delta tier's key: the hierarchy root of every materialized
/// attribute, ascending by id. A root is the fact column its attribute is
/// derived from, so a load and a reopen (where the fact is gone) derive the
/// same key, and no view derives from a fact column the key leaves out.
fn tier_attrs(catalog: &Catalog, defs: &[ViewDef]) -> Vec<AttrId> {
    let hierarchies = catalog.hierarchies();
    let base_of = |a: AttrId| hierarchies.iter().find(|h| h.derived == a).map(|h| h.base);
    // At most one step per hierarchy, so a cyclic catalog cannot hang.
    let root = |a| successors(Some(a), |&a| base_of(a)).take(hierarchies.len() + 1).last();
    let mut out: Vec<AttrId> =
        defs.iter().flat_map(|d| d.projection.iter().filter_map(|&a| root(a))).collect();
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

/// The forest's fixed shape: the views it materializes, the trees that hold
/// them and the leaf format it writes. A pure function of the view set, so a
/// reopen re-derives the shape a load built.
struct Layout {
    format: LeafFormat,
    plan: MappingPlan,
    /// Every physical view definition, primaries then replicas: the targets
    /// each load and refresh computes, in one fixed order.
    defs: Vec<ViewDef>,
    /// Per tree, the index into `defs` of each view it holds, in spec order.
    tree_defs: Vec<Vec<usize>>,
    placements: Arc<Vec<PlacedView>>,
}

impl Layout {
    /// Expands the replicas and allocates the SelectMapping forest.
    fn new(
        views: &[ViewDef],
        replicas: &[(ViewId, Vec<AttrId>)],
        format: LeafFormat,
    ) -> Result<Layout> {
        let (defs, logical) = expand_views(views, replicas)?;
        let plan = select_mapping(&defs);
        let position = |id: &ViewId| {
            defs.iter()
                .position(|d| d.id == *id)
                .ok_or_else(|| CtError::invalid("mapping plan names an unknown view"))
        };
        let tree_defs = plan
            .trees
            .iter()
            .map(|spec| spec.views.iter().map(position).collect())
            .collect::<Result<Vec<Vec<usize>>>>()?;
        let placements = (tree_defs.iter().enumerate())
            .flat_map(|(t, idxs)| idxs.iter().map(move |&i| (t, i)))
            .map(|(tree, i)| PlacedView { def: defs[i].clone(), logical: logical[i], tree })
            .collect();
        Ok(Layout { format, plan, defs, tree_defs, placements: Arc::new(placements) })
    }

    /// Writes and commits the generation after `base` (generation 0 with no
    /// base): computes every placement from `source`, then merges each
    /// tree's stream with `base`'s tree into a new file, one job per tree.
    /// Files are created on this thread, in tree order, so file ids and
    /// names do not depend on the thread budget.
    fn write_generation(
        &self,
        env: &StorageEnv,
        catalog: &Catalog,
        source: &Relation,
        base: Option<&Generation>,
    ) -> Result<(Vec<PackedRTree>, Vec<FileId>)> {
        let (compute, write) = match base {
            None => ("load/compute_views", "load/pack"),
            Some(_) => ("update/compute_views", "update/merge"),
        };
        let number = base.map_or(0, |b| b.number + 1);
        // Every placement, replicas included, in its packing order: three
        // sorts under the paper's set-up, the rest linear passes.
        let compute_phase = env.phase(compute);
        let relations = compute_views(env, catalog, source, &self.defs, packed_sort_cols)?;
        drop(compute_phase);
        let _write_phase = env.phase(write);
        let tree_count = self.plan.trees.len();
        let fids = (0..tree_count)
            .map(|t| env.create_file(&format!("cubetree-{t}-gen{number}")))
            .collect::<Result<Vec<_>>>()?;
        let trees = map_jobs(env.parallelism().threads, tree_count, |t| {
            // Wall-only span: page I/O of concurrent jobs cannot be told
            // apart on the shared counters, so per-tree spans time only.
            let _span = env.recorder().span(&format!("{write}/tree{t}"));
            let (dims, idxs) = (self.plan.trees[t].dims, &self.tree_defs[t]);
            let infos = idxs
                .iter()
                .map(|&i| {
                    let def = &self.defs[i];
                    ViewInfo { view: def.id.0, arity: def.arity() as u8, agg: def.agg }
                })
                .collect();
            env.stats().add_tuples(idxs.iter().map(|&i| relations[i].len() as u64).sum());
            // Views in spec order (ascending arity) are globally
            // packed-sorted, so the stream is each relation in turn.
            let mut stream = IterStream(idxs.iter().flat_map(|&i| {
                let (view, rel) = (self.defs[i].id.0, &relations[i]);
                (0..rel.len()).map(move |r| (view, Point::new(rel.key(r), dims), rel.states[r]))
            }));
            let old = base.map(|b| &b.trees[t]);
            write_tree(env.pool().clone(), old, &mut stream, fids[t], dims, infos, self.format)
        })?;
        if base.is_some() {
            env.faults().crash_point("update/pre_commit")?;
        }
        // Durability commit: sync the new files, then publish them with one
        // atomic manifest rename. Until it lands, recovery treats this
        // generation's files as orphans; after it, they are live. On a
        // refresh the rename is also the MVCC flip point.
        let mut entries = Vec::with_capacity(tree_count);
        for (t, &fid) in fids.iter().enumerate() {
            env.pool().file(fid)?.sync()?;
            entries.push(env.manifest_entry(&tree_component(t), fid)?);
        }
        env.commit_manifest(entries)?;
        if base.is_some() {
            env.faults().crash_point("update/post_commit")?;
        }
        Ok((trees, fids))
    }
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
    layout: Layout,
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
    /// Builds the forest from a fact relation: a merge-pack of every tree
    /// from an empty forest.
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
        let layout = Layout::new(views, replicas, format)?;
        let (trees, fids) = layout.write_generation(env, catalog, fact, None)?;
        Ok(Self::assemble(env, catalog, layout, 0, trees, fids))
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
        catalog: &Catalog,
        views: &[ViewDef],
        replicas: &[(ViewId, Vec<AttrId>)],
        format: LeafFormat,
    ) -> Result<CubetreeForest> {
        let layout = Layout::new(views, replicas, format)?;
        let fids = (0..layout.plan.trees.len())
            .map(|t| env.open_file(&tree_component(t)))
            .collect::<Result<Vec<_>>>()?;
        let trees = fids
            .iter()
            .map(|&fid| PackedRTree::open(env.pool().clone(), fid))
            .collect::<Result<Vec<_>>>()?;
        // A forest commits its environment's manifest once when built and
        // once per update, so the live generation is the commit count less
        // one: a reopened forest reports the generation it was dropped at.
        let number = env.manifest().seq.saturating_sub(1);
        Ok(Self::assemble(env, catalog, layout, number, trees, fids))
    }

    /// The one assembly behind [`CubetreeForest::build`] and
    /// [`CubetreeForest::open`]: the first generation (its number, trees
    /// and files) over `layout`, the generation tracker and the delta tier.
    fn assemble(
        env: &StorageEnv,
        catalog: &Catalog,
        layout: Layout,
        number: u64,
        trees: Vec<PackedRTree>,
        fids: Vec<FileId>,
    ) -> CubetreeForest {
        let tracker = GenTracker::new(env.recorder());
        let placements = layout.placements.clone();
        let generation =
            Generation::new(number, placements, trees, fids, env.pool().clone(), tracker.clone());
        let delta = DeltaTier::new(
            env.recorder(),
            tier_attrs(catalog, &layout.defs),
            layout.placements.iter().all(|p| p.def.agg.deletion_safe()),
        );
        CubetreeForest {
            layout,
            current: Mutex::new(generation),
            writer: Mutex::new(()),
            tracker,
            delta,
        }
    }

    /// The mapping plan (for reports and tests).
    pub fn plan(&self) -> &MappingPlan {
        &self.layout.plan
    }

    /// All placements (primaries and replicas). Stable across generations —
    /// updates change tree contents, never the forest shape.
    pub fn placements(&self) -> &[PlacedView] {
        &self.layout.placements
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
            if let Some(p) = self.layout.placements.iter().find(|p| !p.def.agg.deletion_safe()) {
                return Err(CtError::unsupported(format!(
                    "delta contains deletions but view {:?} is materialized with {}, \
                     which cannot absorb retractions; use a deletion-safe aggregate \
                     (count, avg or sum+count)",
                    p.def.id,
                    p.def.agg.name()
                )));
            }
        }
        let (trees, fids) = self.layout.write_generation(env, catalog, delta_fact, Some(&base))?;
        let _swap_phase = env.phase("update/swap");
        // Publish: swap the new generation into the cell. Readers pinning
        // from now on see the new trees; existing pins keep the base.
        let next = Generation::new(
            base.number + 1,
            self.layout.placements.clone(),
            trees,
            fids,
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
        let env = StorageEnv::with_config(
            "forest-gauges",
            256,
            ct_common::CostModel::default(),
            ct_storage::Parallelism::default(),
            recorder.clone(),
            ct_storage::FaultPlan::none(),
        )
        .unwrap();
        let forest =
            CubetreeForest::build(&env, &cat, &fact, &views, &[], LeafFormat::ZeroElided)
                .unwrap();
        let gauge = |n: &str| recorder.gauge(n).get();
        let merges = || recorder.counter("rtree.merge.merges").get();
        assert_eq!(merges(), 0, "a load reads no old tree");
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
        assert_eq!(merges(), forest.plan().trees.len() as u64);
        drop(pin);
        assert_eq!(gauge("storage.generation.pinned_readers"), 0.0);
        assert_eq!(gauge("storage.generation.live"), 1.0);
        assert_eq!(gauge("storage.generation.deferred_bytes"), 0.0);
    }
}
