//! Failure injection: corrupted pages must surface as `CtError::Corrupt`,
//! never as panics or silent wrong answers — in every leaf format.

use ct_common::{AggFn, AggState, CtError, Point, Rect, COORD_MAX, MAX_DIMS};
use ct_rtree::node::{internal_capacity, LEAF_DATA, MAX_LEAF_ENTRIES};
use ct_rtree::{LeafFormat, PackedRTree, TreeBuilder, ViewInfo};
use ct_storage::{FileId, Page, PageId, StorageEnv};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const FORMATS: [LeafFormat; 3] = [LeafFormat::ZeroElided, LeafFormat::Compressed, LeafFormat::Raw];

/// Records the largest single allocation the calling thread requests.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// peak is a plain thread-local `Cell<usize>` with no destructor, so touching
// it neither allocates nor re-enters.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = PEAK.try_with(|p| p.set(p.get().max(layout.size())));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = PEAK.try_with(|p| p.set(p.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// A 50 x 50 grid, several leaves in every format: pages `1..=leaves` are
/// leaves, the rest internal.
fn build(env: &StorageEnv, format: LeafFormat) -> (FileId, PackedRTree) {
    let fid = env.create_file("t").unwrap();
    let mut b = TreeBuilder::new(
        env.pool().clone(),
        fid,
        2,
        vec![ViewInfo { view: 1, arity: 2, agg: AggFn::Sum }],
        format,
    )
    .unwrap();
    for y in 1..=50u64 {
        for x in 1..=50u64 {
            b.push(1, Point::new(&[x * 7, y], 2), &AggState::from_measure((x * y) as i64)).unwrap();
        }
    }
    (fid, b.finish().unwrap())
}

/// Rewrites a page through the pool and flushes it to disk, so the checksum
/// matches the damage and both readers see it: the search reads through the
/// pool, the scanner straight from the file.
fn damage(env: &StorageEnv, fid: FileId, pid: u64, f: impl FnOnce(&mut Page)) {
    env.pool().with_page_mut(fid, PageId(pid), f).unwrap();
    env.pool().flush_all().unwrap();
}

/// Runs a whole-space search and a full scan; both must end, without a panic.
fn search_and_scan(t: &PackedRTree) -> [Result<u64, CtError>; 2] {
    let mut found = 0u64;
    let everything = Rect::new(&[0, 0], &[COORD_MAX, COORD_MAX]);
    let searched = t
        .search(&everything, |_, _, _| {
            found += 1;
            true
        })
        .map(|()| found);
    let mut scanner = t.scanner();
    let mut scanned = 0u64;
    let scanned = loop {
        match scanner.next_entry() {
            Ok(Some(_)) => scanned += 1,
            Ok(None) => break Ok(scanned),
            Err(e) => break Err(e),
        }
    };
    [searched, scanned]
}

/// Both readers must refuse the tree, with a typed corruption error.
fn assert_both_corrupt(t: &PackedRTree, what: &str) {
    for r in search_and_scan(t) {
        match r {
            Err(CtError::Corrupt(msg)) => assert!(msg.contains(what), "{msg:?} lacks {what:?}"),
            other => panic!("expected Corrupt({what}), got {other:?}"),
        }
    }
}

#[test]
fn corrupt_meta_magic_fails_open() {
    for format in FORMATS {
        let env = StorageEnv::new("corrupt-meta").unwrap();
        let (fid, t) = build(&env, format);
        drop(t);
        damage(&env, fid, 0, |p| p.bytes_mut()[0] = 0xFF);
        assert!(PackedRTree::open(env.pool().clone(), fid).is_err());
        // An out-of-range dimensionality or view count is refused at open too.
        damage(&env, fid, 0, |p| p.bytes_mut()[0] = 0x45);
        assert!(PackedRTree::open(env.pool().clone(), fid).is_ok());
        damage(&env, fid, 0, |p| p.bytes_mut()[4] = MAX_DIMS as u8 + 1);
        assert!(PackedRTree::open(env.pool().clone(), fid).is_err());
        damage(&env, fid, 0, |p| {
            p.bytes_mut()[4] = 2;
            p.put_u16(6, u16::MAX);
        });
        assert!(PackedRTree::open(env.pool().clone(), fid).is_err());
    }
}

#[test]
fn corrupt_leaf_headers_are_typed_errors() {
    type Damage = fn(&mut Page);
    let cases: [(&str, Damage); 7] = [
        ("expected R-tree leaf node", |p| p.bytes_mut()[0] = 0x77),
        // The retired varint-delta codec, and a code never assigned.
        ("unsupported leaf format 0", |p| p.bytes_mut()[1] = 0),
        ("unsupported leaf format 9", |p| p.bytes_mut()[1] = 9),
        ("leaf for unknown view", |p| p.put_u32(4, 77)),
        // Arity beyond the tree's dims used to reach `Point::new`'s panic.
        ("leaf shape disagrees with its view", |p| p.bytes_mut()[16] = 9),
        ("leaf shape disagrees with its view", |p| p.bytes_mut()[17] = 2),
        // An inflated count on a fixed-width leaf used to slice past the
        // page inside `with_page`, i.e. panic under a pool shard lock.
        ("overflow", |p| {
            let n = p.get_u16(2);
            p.put_u16(2, n + 500);
        }),
    ];
    for format in FORMATS {
        for (what, hurt) in cases {
            let env = StorageEnv::new("corrupt-leaf").unwrap();
            let (fid, t) = build(&env, format);
            damage(&env, fid, 1, hurt);
            assert_both_corrupt(&t, what);
        }
    }
    // Only the bit-packed format has a directory to damage.
    let env = StorageEnv::new("corrupt-dir").unwrap();
    let (fid, t) = build(&env, LeafFormat::Compressed);
    damage(&env, fid, 1, |p| p.bytes_mut()[LEAF_DATA + 3 * 8] = 65);
    assert_both_corrupt(&t, "column directory out of range");
    damage(&env, fid, 1, |p| {
        p.bytes_mut()[LEAF_DATA + 3 * 8] = 0;
        p.put_u16(2, MAX_LEAF_ENTRIES as u16 + 1);
    });
    assert_both_corrupt(&t, "column directory out of range");
}

#[test]
fn corrupt_internal_pages_and_leaf_chains_are_typed_errors() {
    for format in FORMATS {
        let env = StorageEnv::new("corrupt-int").unwrap();
        let (fid, t) = build(&env, format);
        let root = t.stats().leaf_pages + t.stats().internal_pages;
        assert!(t.stats().height >= 2);
        let everything = Rect::new(&[0, 0], &[COORD_MAX, COORD_MAX]);
        let search = |t: &PackedRTree| t.search(&everything, |_, _, _| true);
        // A count past the page's capacity used to read out of the page.
        damage(&env, fid, root, |p| p.put_u16(2, internal_capacity(2) as u16 + 1));
        assert!(matches!(search(&t), Err(CtError::Corrupt(_))));
        // A leaf where an internal node must be.
        damage(&env, fid, root, |p| p.bytes_mut()[0] = 5);
        assert!(matches!(search(&t), Err(CtError::Corrupt(_))));
        // A leaf chain that points backwards must end the scan, not loop.
        let env = StorageEnv::new("corrupt-chain").unwrap();
        let (fid, t) = build(&env, format);
        damage(&env, fid, 2, |p| p.put_u64(8, 1));
        let [searched, scanned] = search_and_scan(&t);
        assert_eq!(searched.unwrap(), 2500, "the search does not follow the chain");
        assert!(matches!(scanned, Err(CtError::Corrupt(_))));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Flipping 1–8 random bytes of a random leaf or internal page — written
    /// through the pool and flushed, so no checksum hides it — never makes a reader
    /// panic, loop, or allocate for more than a page's worth of entries.
    #[test]
    fn prop_random_damage_never_panics(
        format in 0..3usize,
        page in 0..1000u64,
        flips in proptest::collection::vec((0..8192usize, 1..=255u8), 1..=8usize),
    ) {
        let env = StorageEnv::new("corrupt-prop").unwrap();
        let (fid, t) = build(&env, FORMATS[format]);
        let pages = t.stats().leaf_pages + t.stats().internal_pages;
        damage(&env, fid, 1 + page % pages, |p| {
            for &(at, mask) in &flips {
                p.bytes_mut()[at] ^= mask;
            }
        });
        PEAK.set(0);
        // Returning at all is the property: any count is acceptable (the
        // damage may have hit an aggregate) and so is any error (a damaged
        // page id is the pool's "read past end of file").
        let _ = search_and_scan(&t);
        let bound = MAX_LEAF_ENTRIES * (MAX_DIMS + 2) * 8;
        prop_assert!(PEAK.get() <= bound, "one allocation of {} bytes", PEAK.get());
    }
}
