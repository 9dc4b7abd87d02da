//! Bottom-up bulk loading ("packing") of an R-tree from a sorted stream.
//!
//! The packing algorithm is the \[RL85\] packed R-tree adapted per the paper:
//! the input stream is sorted by the `x_d, …, x_1` packing order (§2.3),
//! leaves are filled to capacity and written in one sequential pass, then
//! each upper level is built from the level below, also sequentially, and
//! the meta page (page 0) last. A packed file is written once, so every page
//! goes straight to its [`DiskFile`], past the buffer pool. The builder
//! *enforces* the two invariants the Cubetree organization depends on:
//!
//! 1. input order: points must arrive in non-decreasing packed order, with no
//!    duplicate (view, point) pairs — duplicates must have been aggregated
//!    upstream;
//! 2. view contiguity: once the stream moves past a view, that view may not
//!    reappear (each view owns "a distinct continuous string of leaf-nodes").

use crate::node::{
    internal_capacity, write_internal, LeafEncoder, TreeMeta, ViewExtent, ViewInfo, FORMAT_PACKED,
    FORMAT_RAW, FORMAT_ZERO_ELIDED, NO_LEAF,
};
use crate::tree::PackedRTree;
use ct_common::{AggState, CtError, Point, Rect, Result};
use ct_storage::{BufferPool, DiskFile, FileId, Page, PageId};
use std::collections::HashMap;
use std::sync::Arc;

/// Physical leaf encoding written by a pack. Leaves are self-describing, so
/// a tree in any format can be read, and merge-packed into any other.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LeafFormat {
    /// The paper's compression (§2.4): store only the view's `arity`
    /// coordinates as fixed-width words — the zero padding of the valid
    /// mapping is never written. Kept for the paper-reproduction experiments
    /// (Table 6's 2:1 storage claim is about this format).
    ZeroElided,
    /// Zero elision **plus** per-leaf frame-of-reference bit packing: each
    /// column is stored as fixed-width offsets from its minimum, so a leaf
    /// holds 6–7× the entries and is still searched in place. This is the
    /// default.
    #[default]
    Compressed,
    /// Fixed-width entries including padding zeros (ablation baseline — what
    /// a naive R-tree would store).
    Raw,
}

impl LeafFormat {
    fn code(self) -> u8 {
        match self {
            LeafFormat::Compressed => FORMAT_PACKED,
            LeafFormat::Raw => FORMAT_RAW,
            LeafFormat::ZeroElided => FORMAT_ZERO_ELIDED,
        }
    }
}

/// The total order the packer expects its input in.
///
/// The paper packs in the low-coordinate sort (`x_d, …, x_1`) and explicitly
/// *rejects* space-filling curves (§2.4): the low-sort keeps every view in a
/// contiguous leaf run and makes merge-pack a linear merge. The Morton
/// (z-order) alternative is kept for the ablation benchmark that quantifies
/// that design choice on single-view trees.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PackOrder {
    /// The paper's `x_d, …, x_1` sort ([`ct_common::Point::packed_cmp`]).
    #[default]
    PackedLowSort,
    /// Z-order (bit-interleaved) curve order. Only valid for single-view
    /// trees — interleaving would destroy view contiguity, which is exactly
    /// the paper's argument against it. Trees packed this way cannot be
    /// merge-packed.
    Morton,
}

impl PackOrder {
    /// Stable byte tag stored in the tree meta page.
    pub fn code(self) -> u8 {
        match self {
            PackOrder::PackedLowSort => 0,
            PackOrder::Morton => 1,
        }
    }

    /// Compares two points under this order.
    pub fn cmp_points(self, a: &Point, b: &Point) -> std::cmp::Ordering {
        match self {
            PackOrder::PackedLowSort => a.packed_cmp(b),
            PackOrder::Morton => morton_cmp(a, b),
        }
    }
}

/// Chan's most-significant-differing-bit comparator for z-order: the point
/// ordering follows the Morton (bit-interleaved) curve without materializing
/// interleaved keys.
pub fn morton_cmp(a: &Point, b: &Point) -> std::cmp::Ordering {
    debug_assert_eq!(a.dims(), b.dims());
    let mut msd = 0usize;
    let mut max_xor = 0u64;
    for i in 0..a.dims() {
        let x = a.coord(i) ^ b.coord(i);
        if less_msb(max_xor, x) {
            msd = i;
            max_xor = x;
        }
    }
    a.coord(msd).cmp(&b.coord(msd))
}

#[inline]
fn less_msb(x: u64, y: u64) -> bool {
    x < y && x < (x ^ y)
}

/// Streaming packer for one R-tree.
pub struct TreeBuilder {
    /// Carries the recorder and backs the finished tree; pages skip it.
    pool: Arc<BufferPool>,
    fid: FileId,
    file: Arc<DiskFile>,
    /// The one page buffer every page is encoded into before its write.
    page: Page,
    dims: usize,
    order: PackOrder,
    views: Vec<(ViewInfo, ViewExtent)>,
    view_slot: HashMap<u32, usize>,
    /// Views whose contiguous run has ended.
    done: Vec<bool>,
    cur_view: Option<usize>,
    enc: LeafEncoder,
    cur_mbr: Rect,
    level0: Vec<(Rect, u64)>,
    last_point: Option<(Point, u32)>,
    entry_count: u64,
    first_leaf: u64,
    agg_scratch: Vec<u64>,
}

impl TreeBuilder {
    /// Starts a builder for a `dims`-dimensional tree storing `views`.
    ///
    /// # Panics
    /// Panics if a view's arity exceeds `dims` or views repeat.
    pub fn new(
        pool: Arc<BufferPool>,
        fid: FileId,
        dims: usize,
        views: Vec<ViewInfo>,
        format: LeafFormat,
    ) -> Result<Self> {
        Self::with_order(pool, fid, dims, views, format, PackOrder::PackedLowSort)
    }

    /// Like [`TreeBuilder::new`] with an explicit input order (the Morton
    /// ablation). Morton order requires a single-view tree.
    pub fn with_order(
        pool: Arc<BufferPool>,
        fid: FileId,
        dims: usize,
        views: Vec<ViewInfo>,
        format: LeafFormat,
        order: PackOrder,
    ) -> Result<Self> {
        assert!((1..=ct_common::MAX_DIMS).contains(&dims));
        if order == PackOrder::Morton && views.len() > 1 {
            return Err(CtError::invalid(
                "Morton packing interleaves views and is limited to single-view trees                  (the paper's argument against space-filling curves, §2.4)",
            ));
        }
        let file = pool.file(fid)?;
        // Page 0 is reserved for the meta page, which `finish` writes last.
        let meta = file.allocate();
        debug_assert_eq!(meta, PageId(0));
        let mut view_slot = HashMap::new();
        for (i, v) in views.iter().enumerate() {
            assert!(v.arity as usize <= dims, "view arity exceeds tree dims");
            assert!(view_slot.insert(v.view, i).is_none(), "duplicate view in tree");
        }
        let done = vec![false; views.len()];
        Ok(TreeBuilder {
            pool,
            fid,
            file,
            page: Page::zeroed(),
            dims,
            order,
            views: views.into_iter().map(|v| (v, ViewExtent::default())).collect(),
            view_slot,
            done,
            cur_view: None,
            enc: LeafEncoder::new(format.code(), dims),
            cur_mbr: Rect::empty(dims),
            level0: Vec::new(),
            last_point: None,
            entry_count: 0,
            first_leaf: NO_LEAF,
            agg_scratch: Vec::new(),
        })
    }

    /// Appends one `(view, point, aggregate)` entry.
    ///
    /// # Errors
    /// [`CtError::InvalidArgument`] if the stream violates the packing order,
    /// duplicates a point, breaks view contiguity, or the point's padding
    /// coordinates are non-zero.
    pub fn push(&mut self, view: u32, point: Point, state: &AggState) -> Result<()> {
        let slot = *self
            .view_slot
            .get(&view)
            .ok_or_else(|| CtError::invalid(format!("view {view} not declared for this tree")))?;
        let info = self.views[slot].0;
        if point.dims() != self.dims {
            return Err(CtError::invalid("point dimensionality mismatch"));
        }
        if point.mapped_arity() > info.arity as usize {
            return Err(CtError::invalid(format!(
                "point {point:?} has non-zero padding beyond arity {}",
                info.arity
            )));
        }
        // Global packing order, including duplicate detection.
        if let Some((last, last_view)) = &self.last_point {
            match self.order.cmp_points(last, &point) {
                std::cmp::Ordering::Greater => {
                    return Err(CtError::invalid(format!(
                        "input not in packed order: {last:?} then {point:?}"
                    )))
                }
                std::cmp::Ordering::Equal if *last_view == view => {
                    return Err(CtError::invalid(format!(
                        "duplicate point {point:?} for view {view}; aggregate upstream"
                    )))
                }
                _ => {}
            }
        }
        // View contiguity.
        match self.cur_view {
            Some(cur) if cur == slot => {}
            other => {
                if self.done[slot] {
                    return Err(CtError::invalid(format!(
                        "view {view} reappeared after its run ended"
                    )));
                }
                if let Some(prev) = other {
                    self.done[prev] = true;
                    self.seal_leaf(false)?;
                }
                self.cur_view = Some(slot);
                self.enc.start(view, info.arity as usize, info.agg_width());
            }
        }
        self.agg_scratch.clear();
        state.encode(info.agg, &mut self.agg_scratch);
        let coords = &point.coords()[..info.arity as usize];
        if !self.enc.try_push(coords, &self.agg_scratch) {
            self.seal_leaf(false)?;
            self.enc.start(view, info.arity as usize, info.agg_width());
            if !self.enc.try_push(coords, &self.agg_scratch) {
                return Err(CtError::invalid("one entry does not fit an empty leaf"));
            }
        }
        self.cur_mbr.expand_point(&point);
        self.entry_count += 1;
        self.views[slot].1.entries += 1;
        self.last_point = Some((point, view));
        Ok(())
    }

    /// Seals the current leaf: allocates its page, writes it linked to the
    /// page the next leaf will get (`last` ends the chain instead), and
    /// records its MBR for the upper levels.
    fn seal_leaf(&mut self, last: bool) -> Result<()> {
        let pid = self.file.allocate();
        // Leaves are the only pages allocated before `finish` builds the
        // upper levels, so a leaf's successor is the next page of the file.
        if self.level0.last().is_some_and(|&(_, prev)| prev + 1 != pid.0) {
            return Err(CtError::invalid("leaf pages are not consecutive"));
        }
        if self.first_leaf == NO_LEAF {
            self.first_leaf = pid.0;
        }
        // Record the per-view extent (the empty tree's lone leaf has no
        // view). Page 0 is always the meta page, so a zero `first_leaf`
        // means "not set yet".
        if let Some(slot) = self.cur_view {
            let ext = &mut self.views[slot].1;
            if ext.first_leaf == 0 {
                ext.first_leaf = pid.0;
            }
            ext.last_leaf = pid.0;
        }
        let next = if last { NO_LEAF } else { pid.0 + 1 };
        self.enc.write(&mut self.page, next);
        self.file.write_page(pid, &self.page)?;
        let mbr = std::mem::replace(&mut self.cur_mbr, Rect::empty(self.dims));
        self.level0.push((mbr, pid.0));
        Ok(())
    }

    /// Finishes the pack: seals the last leaf, builds the internal levels
    /// bottom-up, writes the meta page and returns the finished tree.
    pub fn finish(mut self) -> Result<PackedRTree> {
        // An empty tree gets a single empty leaf as its root.
        self.seal_leaf(true)?;
        let leaf_count = self.level0.len() as u64;
        let cap = internal_capacity(self.dims);
        let mut level = std::mem::take(&mut self.level0);
        let mut height = 1u32;
        while level.len() > 1 {
            height += 1;
            let mut next = Vec::with_capacity(level.len() / cap + 1);
            for chunk in level.chunks(cap) {
                let mut mbr = Rect::empty(self.dims);
                for (r, _) in chunk {
                    if !r.is_empty() {
                        mbr.expand(r);
                    }
                }
                let pid = self.file.allocate();
                write_internal(&mut self.page, self.dims, chunk);
                self.file.write_page(pid, &self.page)?;
                next.push((mbr, pid.0));
            }
            level = next;
        }
        let meta = TreeMeta {
            dims: self.dims,
            order: self.order.code(),
            root: level[0].1,
            height,
            leaf_count,
            entry_count: self.entry_count,
            first_leaf: self.first_leaf,
            views: self.views.clone(),
        };
        meta.write(&mut self.page);
        self.file.write_page(PageId(0), &self.page)?;
        // Pack metrics (inert when the pool's recorder is disabled). Once per
        // finished tree, so the one-shot registry-locking calls are fine.
        let recorder = self.pool.recorder();
        recorder.add("rtree.pack.trees", 1);
        recorder.add("rtree.pack.entries", self.entry_count);
        recorder.add("rtree.pack.leaves", leaf_count);
        recorder.observe("rtree.pack.leaves_per_tree", leaf_count);
        PackedRTree::from_parts(self.pool.clone(), self.fid, meta)
    }

    /// Declared view infos (for callers that build merge streams).
    pub fn view_infos(&self) -> Vec<ViewInfo> {
        self.views.iter().map(|(v, _)| *v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_common::{AggFn, COORD_MAX};
    use ct_storage::StorageEnv;

    /// Reference Morton key by explicit bit interleaving (16 bits/dim).
    fn morton_key(coords: &[u64]) -> u64 {
        let mut key = 0u64;
        for bit in (0..16).rev() {
            for &c in coords {
                key = (key << 1) | ((c >> bit) & 1);
            }
        }
        key
    }

    #[test]
    fn morton_cmp_matches_interleaved_keys() {
        let pts: Vec<Point> = (0..200u64)
            .map(|i| {
                let x = (i * 7919) % 101 + 1;
                let y = (i * 104729) % 97 + 1;
                Point::new(&[x, y], 2)
            })
            .collect();
        for a in pts.iter().take(40) {
            for b in pts.iter().take(40) {
                let expect = morton_key(a.coords()).cmp(&morton_key(b.coords()));
                assert_eq!(morton_cmp(a, b), expect, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn morton_packed_tree_answers_like_low_sort() {
        let env = StorageEnv::new("morton-build").unwrap();
        let view = ViewInfo { view: 1, arity: 2, agg: AggFn::Sum };
        // 64x64 grid of points.
        let mut pts: Vec<Point> = Vec::new();
        for y in 1..=64u64 {
            for x in 1..=64u64 {
                pts.push(Point::new(&[x, y], 2));
            }
        }
        // Low-sort tree.
        let fid1 = env.create_file("low").unwrap();
        let mut low = TreeBuilder::new(
            env.pool().clone(),
            fid1,
            2,
            vec![view],
            LeafFormat::ZeroElided,
        )
        .unwrap();
        let mut sorted = pts.clone();
        sorted.sort_by(|a, b| a.packed_cmp(b));
        for p in &sorted {
            low.push(1, *p, &ct_common::AggState::from_measure((p.coord(0) + p.coord(1)) as i64))
                .unwrap();
        }
        let low = low.finish().unwrap();
        // Morton tree.
        let fid2 = env.create_file("morton").unwrap();
        let mut mz = TreeBuilder::with_order(
            env.pool().clone(),
            fid2,
            2,
            vec![view],
            LeafFormat::ZeroElided,
            PackOrder::Morton,
        )
        .unwrap();
        let mut zsorted = pts.clone();
        zsorted.sort_by(morton_cmp);
        for p in &zsorted {
            mz.push(1, *p, &ct_common::AggState::from_measure((p.coord(0) + p.coord(1)) as i64))
                .unwrap();
        }
        let mz = mz.finish().unwrap();
        assert_eq!(mz.pack_order_code(), 1);

        // Both trees answer every slice identically (order-insensitive).
        for region in [
            Rect::new(&[7, 1], &[7, COORD_MAX]),
            Rect::new(&[1, 33], &[COORD_MAX, 33]),
            Rect::new(&[10, 10], &[20, 20]),
        ] {
            let collect = |t: &crate::tree::PackedRTree| {
                let mut out = Vec::new();
                t.search(&region, |_, p, s| {
                    out.push((p.coord(0), p.coord(1), s.sum));
                    true
                })
                .unwrap();
                out.sort();
                out
            };
            assert_eq!(collect(&low), collect(&mz));
        }
    }

    #[test]
    fn morton_rejects_multi_view_trees_and_merge() {
        let env = StorageEnv::new("morton-reject").unwrap();
        let fid = env.create_file("multi").unwrap();
        let views = vec![
            ViewInfo { view: 1, arity: 1, agg: AggFn::Sum },
            ViewInfo { view: 2, arity: 2, agg: AggFn::Sum },
        ];
        assert!(TreeBuilder::with_order(
            env.pool().clone(),
            fid,
            2,
            views,
            LeafFormat::ZeroElided,
            PackOrder::Morton,
        )
        .is_err());

        // Single-view Morton tree refuses to merge-pack.
        let fid2 = env.create_file("single").unwrap();
        let mut b = TreeBuilder::with_order(
            env.pool().clone(),
            fid2,
            2,
            vec![ViewInfo { view: 1, arity: 2, agg: AggFn::Sum }],
            LeafFormat::ZeroElided,
            PackOrder::Morton,
        )
        .unwrap();
        b.push(1, Point::new(&[1, 1], 2), &ct_common::AggState::from_measure(1)).unwrap();
        let t = b.finish().unwrap();
        let fid3 = env.create_file("merged").unwrap();
        let mut delta = crate::merge::VecStream::new(vec![]);
        assert!(crate::merge::merge_pack(
            env.pool().clone(),
            &t,
            &mut delta,
            fid3,
            vec![ViewInfo { view: 1, arity: 2, agg: AggFn::Sum }],
            LeafFormat::ZeroElided,
        )
        .is_err());
    }

    #[test]
    fn less_msb_basics() {
        assert!(less_msb(0, 1));
        assert!(less_msb(1, 2));
        assert!(!less_msb(2, 1));
        assert!(!less_msb(3, 2), "same msb");
        assert!(less_msb(0b0111, 0b1000));
    }

    #[test]
    fn builder_and_tree_cross_thread_contract() {
        // The parallel forest pipeline returns finished trees from per-tree
        // worker threads for readers to share, so the tree must stay Send
        // and Sync; builders stay Send so a pack can move between threads.
        // A compile-time contract check.
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<TreeBuilder>();
        assert_send::<crate::tree::PackedRTree>();
        assert_sync::<crate::tree::PackedRTree>();
    }
}
