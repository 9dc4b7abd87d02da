//! Read access to a finished packed R-tree: region search and sorted scans.

use crate::node::{
    intersecting_children, LeafHead, LeafView, TreeMeta, ViewExtent, ViewInfo, NO_LEAF,
};
use ct_common::{AggState, CtError, Point, Rect, Result};
use ct_storage::{BufferPool, FileId, PageId, PAGE_SIZE};
use std::cell::Cell;
use std::sync::Arc;

/// A finished (immutable) packed R-tree.
///
/// Packed trees are write-once: they are produced by
/// [`crate::build::TreeBuilder`] or [`crate::merge::merge_pack`] and only
/// queried afterwards, exactly like the paper's Cubetrees ("by creating a new
/// instance of the derived data" on each refresh is replaced by merge-pack
/// into a *new* packed file, §3.4).
pub struct PackedRTree {
    pool: Arc<BufferPool>,
    fid: FileId,
    meta: TreeMeta,
}

/// What a page visit copies out of the buffer pool, reused from page to page
/// so that no visit allocates; callers are handed entries from here, after
/// the page has been released.
#[derive(Default)]
struct Scratch {
    /// Intersecting child pids of the internal nodes on the current path,
    /// one contiguous frame per level.
    children: Vec<u64>,
    /// Indices of the current leaf's matching entries.
    sel: Vec<u16>,
    /// The matching entries, [`LeafHead::width`] words each.
    rows: Vec<u64>,
}

thread_local! {
    /// The calling thread's last search scratch, owned by a search for its
    /// duration (one started from inside a callback finds the slot empty
    /// and starts afresh), so steady-state searches allocate nothing.
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// Size/shape statistics for reports and the storage-comparison experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeStats {
    /// Leaf pages.
    pub leaf_pages: u64,
    /// Internal pages (excluding the meta page).
    pub internal_pages: u64,
    /// Entries across all views.
    pub entries: u64,
    /// Allocated bytes (all pages).
    pub bytes: u64,
    /// Tree height (1 = root is a leaf).
    pub height: u32,
}

impl PackedRTree {
    pub(crate) fn from_parts(pool: Arc<BufferPool>, fid: FileId, meta: TreeMeta) -> Result<Self> {
        Ok(PackedRTree { pool, fid, meta })
    }

    /// Opens a tree previously packed into `fid`.
    pub fn open(pool: Arc<BufferPool>, fid: FileId) -> Result<Self> {
        let meta = pool.with_page(fid, PageId(0), TreeMeta::read)??;
        Ok(PackedRTree { pool, fid, meta })
    }

    /// Dimensionality of the index space.
    pub fn dims(&self) -> usize {
        self.meta.dims
    }

    /// The pack-order tag the tree was built with (see
    /// [`crate::build::PackOrder`]). Only low-sort trees can be merge-packed.
    pub fn pack_order_code(&self) -> u8 {
        self.meta.order
    }

    /// The file holding the tree.
    pub fn file_id(&self) -> FileId {
        self.fid
    }

    /// The views stored in this tree with their extents.
    pub fn views(&self) -> &[(ViewInfo, ViewExtent)] {
        &self.meta.views
    }

    /// Placement info for one view.
    pub fn view_extent(&self, view: u32) -> Option<(ViewInfo, ViewExtent)> {
        self.meta.views.iter().find(|(v, _)| v.view == view).copied()
    }

    /// Total entries.
    pub fn entry_count(&self) -> u64 {
        self.meta.entry_count
    }

    /// Size/shape statistics.
    pub fn stats(&self) -> TreeStats {
        let total_pages = self.pool.file(self.fid).map_or(0, |f| f.page_count());
        TreeStats {
            leaf_pages: self.meta.leaf_count,
            internal_pages: total_pages.saturating_sub(self.meta.leaf_count + 1),
            entries: self.meta.entry_count,
            bytes: total_pages * PAGE_SIZE as u64,
            height: self.meta.height,
        }
    }

    /// Region search: calls `f(view, point, aggregate)` for every entry whose
    /// point lies in `region`, in packed order. `f` returns `false` to stop.
    /// No buffer-pool lock is held while `f` runs.
    ///
    /// A slice query on view `V{a1..ak}` is the rectangle with each sliced
    /// axis pinned to its constant, each open axis spanning `[1, COORD_MAX]`,
    /// and every padding axis `k+1..=d` pinned to zero (paper Figure 4).
    pub fn search(
        &self,
        region: &Rect,
        mut f: impl FnMut(u32, &Point, &AggState) -> bool,
    ) -> Result<()> {
        if region.dims() != self.meta.dims {
            return Err(CtError::invalid("query region dimensionality mismatch"));
        }
        let mut cx = SCRATCH.take();
        let root = PageId(self.meta.root);
        let done = self.search_node(root, self.meta.height, region, &mut cx, &mut f);
        cx.children.clear();
        SCRATCH.set(cx);
        done.map(|_| ())
    }

    /// Visits one page, `level - 1` levels above the leaves: a single
    /// `with_page`, inside which the page is validated and what the search
    /// needs of it is copied out. The balanced tree fixes what each level
    /// holds, so a page of the wrong kind is corruption, and a damaged child
    /// pointer cannot make the descent loop.
    fn search_node(
        &self,
        pid: PageId,
        level: u32,
        region: &Rect,
        cx: &mut Scratch,
        f: &mut impl FnMut(u32, &Point, &AggState) -> bool,
    ) -> Result<bool> {
        if level <= 1 {
            let leaf = self.visit_leaf(pid, Some(region), cx)?;
            for row in cx.rows.chunks_exact(leaf.width()) {
                let (point, state) = leaf.entry(row, self.meta.dims)?;
                if !f(leaf.view, &point, &state) {
                    return Ok(false);
                }
            }
            return Ok(true);
        }
        let frame = cx.children.len();
        self.pool.with_page(self.fid, pid, |p| {
            intersecting_children(p, self.meta.dims, region, &mut cx.children)
        })??;
        let mut more = true;
        let mut i = frame;
        while more && i < cx.children.len() {
            more = self.search_node(PageId(cx.children[i]), level - 1, region, cx, f)?;
            i += 1;
        }
        cx.children.truncate(frame);
        Ok(more)
    }

    /// The one leaf reader: inside a single `with_page`, validates the leaf
    /// and copies out the entries inside `region` (all of them for `None`)
    /// into `cx.rows`.
    fn visit_leaf(&self, pid: PageId, region: Option<&Rect>, cx: &mut Scratch) -> Result<LeafHead> {
        self.pool.with_page(self.fid, pid, |p| {
            let leaf = LeafView::parse(p, &self.meta)?;
            cx.rows.clear();
            match region {
                Some(region) => {
                    leaf.select(region, self.meta.order == 0, &mut cx.sel);
                    leaf.gather(cx.sel.iter().map(|&i| i as usize), &mut cx.rows);
                }
                None => leaf.gather(0..leaf.count, &mut cx.rows),
            }
            Ok(leaf.head)
        })?
    }

    /// Sequential scanner over the full tree in packed order (used by
    /// merge-pack and by full-view reads).
    pub fn scanner(&self) -> TreeScanner<'_> {
        TreeScanner {
            tree: self,
            next_leaf: self.meta.first_leaf,
            leaf: None,
            cx: Scratch::default(),
            at: 0,
        }
    }
}

/// Streaming cursor over all entries of a tree, leaf chain order (= packed
/// order). Implements the merge-side interface of
/// [`crate::merge::EntryStream`].
pub struct TreeScanner<'a> {
    tree: &'a PackedRTree,
    next_leaf: u64,
    leaf: Option<LeafHead>,
    /// The current leaf's entries, and the offset of the next one.
    cx: Scratch,
    at: usize,
}

impl TreeScanner<'_> {
    /// The next `(view, point, state)` in packed order.
    pub fn next_entry(&mut self) -> Result<Option<(u32, Point, AggState)>> {
        loop {
            if let Some(leaf) = &self.leaf {
                if let Some(row) = self.cx.rows.get(self.at..self.at + leaf.width()) {
                    self.at += leaf.width();
                    let (point, state) = leaf.entry(row, self.tree.meta.dims)?;
                    return Ok(Some((leaf.view, point, state)));
                }
            }
            if self.next_leaf == NO_LEAF {
                return Ok(None);
            }
            let pid = self.next_leaf;
            let leaf = self.tree.visit_leaf(PageId(pid), None, &mut self.cx)?;
            // Leaves are allocated as they are sealed, so the chain ascends;
            // anything else could loop.
            if leaf.next <= pid {
                return Err(CtError::corrupt("leaf chain does not ascend"));
            }
            (self.next_leaf, self.leaf, self.at) = (leaf.next, Some(leaf), 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{LeafFormat, TreeBuilder};
    use ct_common::{AggFn, COORD_MAX};
    use ct_storage::StorageEnv;
    use std::alloc::{GlobalAlloc, Layout, System};

    /// Counts the calling thread's heap allocations (tests run in parallel).
    struct CountingAlloc;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    // SAFETY: every call is forwarded unchanged to the system allocator; the
    // counter is a plain thread-local `Cell<u64>` with no destructor, so
    // touching it neither allocates nor re-enters.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    fn sum_view(view: u32, arity: u8) -> ViewInfo {
        ViewInfo { view, arity, agg: AggFn::Sum }
    }

    /// Builds the paper's §2.4 example tree R3{x,y}: V8 (arity 1) and V9
    /// (arity 2), Tables 1–4.
    fn paper_tree(env: &StorageEnv, format: LeafFormat) -> PackedRTree {
        let fid = env.create_file("r3").unwrap();
        let mut b = TreeBuilder::new(
            env.pool().clone(),
            fid,
            2,
            vec![sum_view(8, 1), sum_view(9, 2)],
            format,
        )
        .unwrap();
        // Table 2: V8 sorted points.
        for (x, q) in [(1u64, 102i64), (2, 84), (3, 67), (4, 15), (5, 24), (6, 42)] {
            b.push(8, Point::new(&[x], 2), &AggState::from_measure(q)).unwrap();
        }
        // Table 4: V9 sorted points (y, x).
        for ((x, y), q) in [
            ((1u64, 1u64), 24i64),
            ((2, 1), 6),
            ((3, 1), 2),
            ((1, 3), 11),
            ((3, 3), 17),
        ] {
            b.push(9, Point::new(&[x, y], 2), &AggState::from_measure(q)).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn paper_example_full_scan_order() {
        let env = StorageEnv::new("rtree-paper").unwrap();
        let t = paper_tree(&env, LeafFormat::Compressed);
        assert_eq!(t.entry_count(), 11);
        let mut scanner = t.scanner();
        let mut got = Vec::new();
        while let Some((v, p, s)) = scanner.next_entry().unwrap() {
            got.push((v, p.coords().to_vec(), s.sum));
        }
        // Figure 8 content: V8 then V9, each in packed order.
        assert_eq!(
            got,
            vec![
                (8, vec![1, 0], 102),
                (8, vec![2, 0], 84),
                (8, vec![3, 0], 67),
                (8, vec![4, 0], 15),
                (8, vec![5, 0], 24),
                (8, vec![6, 0], 42),
                (9, vec![1, 1], 24),
                (9, vec![2, 1], 6),
                (9, vec![3, 1], 2),
                (9, vec![1, 3], 11),
                (9, vec![3, 3], 17),
            ]
        );
    }

    #[test]
    fn view_slices_do_not_cross_talk() {
        let env = StorageEnv::new("rtree-slice").unwrap();
        let t = paper_tree(&env, LeafFormat::Compressed);
        // Whole-V8 slice: y pinned to 0.
        let mut v8 = Vec::new();
        t.search(&Rect::new(&[1, 0], &[COORD_MAX, 0]), |v, p, s| {
            v8.push((v, p.coord(0), s.sum));
            true
        })
        .unwrap();
        assert_eq!(v8.len(), 6);
        assert!(v8.iter().all(|&(v, _, _)| v == 8));
        // V9 slice custkey(y)=1.
        let mut v9 = Vec::new();
        t.search(&Rect::new(&[1, 1], &[COORD_MAX, 1]), |v, p, s| {
            v9.push((v, p.coord(0), s.sum));
            true
        })
        .unwrap();
        assert_eq!(v9, vec![(9, 1, 24), (9, 2, 6), (9, 3, 2)]);
        // Point query on V9.
        let mut pt = Vec::new();
        t.search(&Rect::new(&[3, 3], &[3, 3]), |_, _, s| {
            pt.push(s.sum);
            true
        })
        .unwrap();
        assert_eq!(pt, vec![17]);
    }

    #[test]
    fn builder_rejects_out_of_order_and_duplicates() {
        let env = StorageEnv::new("rtree-order").unwrap();
        let fid = env.create_file("t").unwrap();
        let mut b = TreeBuilder::new(
            env.pool().clone(),
            fid,
            2,
            vec![sum_view(1, 2)],
            LeafFormat::Compressed,
        )
        .unwrap();
        b.push(1, Point::new(&[5, 5], 2), &AggState::from_measure(1)).unwrap();
        // Going backwards in packed order fails.
        assert!(b.push(1, Point::new(&[4, 4], 2), &AggState::from_measure(1)).is_err());
        // Duplicate point fails.
        assert!(b.push(1, Point::new(&[5, 5], 2), &AggState::from_measure(1)).is_err());
        // Undeclared view fails.
        assert!(b.push(2, Point::new(&[6, 6], 2), &AggState::from_measure(1)).is_err());
    }

    #[test]
    fn builder_rejects_view_reappearance() {
        let env = StorageEnv::new("rtree-contig").unwrap();
        let fid = env.create_file("t").unwrap();
        let mut b = TreeBuilder::new(
            env.pool().clone(),
            fid,
            2,
            vec![sum_view(1, 1), sum_view(2, 2)],
            LeafFormat::Compressed,
        )
        .unwrap();
        b.push(1, Point::new(&[1], 2), &AggState::from_measure(1)).unwrap();
        b.push(2, Point::new(&[1, 1], 2), &AggState::from_measure(1)).unwrap();
        // View 1's run ended when view 2 started.
        assert!(b.push(1, Point::new(&[2], 2), &AggState::from_measure(1)).is_err());
    }

    #[test]
    fn builder_rejects_nonzero_padding() {
        let env = StorageEnv::new("rtree-pad").unwrap();
        let fid = env.create_file("t").unwrap();
        let mut b = TreeBuilder::new(
            env.pool().clone(),
            fid,
            3,
            vec![sum_view(1, 1)],
            LeafFormat::Compressed,
        )
        .unwrap();
        // Arity-1 view with a non-zero y coordinate.
        assert!(b.push(1, Point::new(&[1, 2], 3), &AggState::from_measure(1)).is_err());
    }

    #[test]
    fn large_tree_queries_and_reopen() {
        let env = StorageEnv::new("rtree-large").unwrap();
        let fid = env.create_file("big").unwrap();
        let mut b = TreeBuilder::new(
            env.pool().clone(),
            fid,
            3,
            vec![sum_view(1, 3)],
            LeafFormat::Compressed,
        )
        .unwrap();
        // 40x40x25 grid in packed (z,y,x) order.
        let mut n = 0u64;
        for z in 1..=25u64 {
            for y in 1..=40u64 {
                for x in 1..=40u64 {
                    b.push(1, Point::new(&[x, y, z], 3), &AggState::from_measure((x + y + z) as i64))
                        .unwrap();
                    n += 1;
                }
            }
        }
        let t = b.finish().unwrap();
        assert_eq!(t.entry_count(), n);
        let stats = t.stats();
        assert!(stats.height >= 2);
        assert!(stats.internal_pages >= 1);
        // Slice x=7 (non-leading sort attribute): expect 40*25 points.
        let mut count = 0u64;
        let mut sum = 0i64;
        t.search(&Rect::new(&[7, 1, 1], &[7, COORD_MAX, COORD_MAX]), |_, p, s| {
            assert_eq!(p.coord(0), 7);
            count += 1;
            sum += s.sum;
            true
        })
        .unwrap();
        assert_eq!(count, 40 * 25);
        let expected: i64 = (1..=40).map(|y| (1..=25).map(|z| 7 + y + z).sum::<i64>()).sum();
        assert_eq!(sum, expected);

        // Reopen from disk and repeat a point query.
        env.pool().flush_all().unwrap();
        let t2 = PackedRTree::open(env.pool().clone(), fid).unwrap();
        let mut hit = None;
        t2.search(&Rect::new(&[40, 40, 25], &[40, 40, 25]), |_, _, s| {
            hit = Some(s.sum);
            true
        })
        .unwrap();
        assert_eq!(hit, Some(105));
    }

    #[test]
    fn empty_tree_works() {
        let env = StorageEnv::new("rtree-empty").unwrap();
        let fid = env.create_file("e").unwrap();
        let b = TreeBuilder::new(
            env.pool().clone(),
            fid,
            2,
            vec![sum_view(1, 2)],
            LeafFormat::Compressed,
        )
        .unwrap();
        let t = b.finish().unwrap();
        assert_eq!(t.entry_count(), 0);
        let mut any = false;
        t.search(&Rect::new(&[1, 1], &[COORD_MAX, COORD_MAX]), |_, _, _| {
            any = true;
            true
        })
        .unwrap();
        assert!(!any);
        assert!(t.scanner().next_entry().unwrap().is_none());
    }

    #[test]
    fn early_stop_propagates() {
        let env = StorageEnv::new("rtree-stop").unwrap();
        let t = paper_tree(&env, LeafFormat::Compressed);
        let mut n = 0;
        t.search(&Rect::new(&[1, 0], &[COORD_MAX, COORD_MAX]), |_, _, _| {
            n += 1;
            n < 3
        })
        .unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn origin_point_holds_the_none_view() {
        // The scalar "none" view maps to the origin (paper §3).
        let env = StorageEnv::new("rtree-none").unwrap();
        let fid = env.create_file("t").unwrap();
        let mut b = TreeBuilder::new(
            env.pool().clone(),
            fid,
            2,
            vec![sum_view(0, 0), sum_view(1, 1)],
            LeafFormat::Compressed,
        )
        .unwrap();
        b.push(0, Point::origin(2), &AggState::from_measure(999)).unwrap();
        b.push(1, Point::new(&[1], 2), &AggState::from_measure(5)).unwrap();
        let t = b.finish().unwrap();
        let mut got = None;
        t.search(&Rect::new(&[0, 0], &[0, 0]), |v, _, s| {
            got = Some((v, s.sum));
            true
        })
        .unwrap();
        assert_eq!(got, Some((0, 999)));
    }

    #[test]
    fn a_long_sweep_allocates_no_more_than_a_point_query() {
        let env = StorageEnv::new("rtree-alloc").unwrap();
        let fid = env.create_file("t").unwrap();
        let mut b =
            TreeBuilder::new(env.pool().clone(), fid, 2, vec![sum_view(1, 2)], LeafFormat::Compressed)
                .unwrap();
        for y in 1..=400u64 {
            for x in 1..=400u64 {
                b.push(1, Point::new(&[x, y], 2), &AggState::from_measure((x * y) as i64)).unwrap();
            }
        }
        let t = b.finish().unwrap();
        assert!(t.stats().leaf_pages >= 50, "only {} leaves", t.stats().leaf_pages);
        let count = |region: Rect| {
            let before = ALLOCS.get();
            let mut n = 0u64;
            t.search(&region, |_, _, _| {
                n += 1;
                true
            })
            .unwrap();
            (n, ALLOCS.get() - before)
        };
        let everything = Rect::new(&[1, 1], &[COORD_MAX, COORD_MAX]);
        // The first sweep grows this thread's scratch to the largest leaf.
        assert_eq!(count(everything).0, 160_000);
        let (swept, sweep_allocs) = count(everything);
        let (hit, point_allocs) = count(Rect::new(&[200, 200], &[200, 200]));
        assert_eq!((swept, hit), (160_000, 1));
        assert!(
            sweep_allocs <= point_allocs,
            "a {}-leaf sweep allocated {sweep_allocs} times, a point query {point_allocs}",
            t.stats().leaf_pages
        );
        // Visiting a page never allocates, so neither search does.
        assert_eq!(sweep_allocs, 0);
    }
}
