//! Merge-pack: the Cubetree bulk-incremental update (\[RKR97\], paper §3.4).
//!
//! Because a packed tree keeps "the stored tuples sorted at all times", a
//! refresh is a single linear merge of the old tree's sequential scan with a
//! sorted delta stream, producing a *new* packed tree with only sequential
//! writes — "this operation requires linear time in the total number of
//! tuples" and is what delivers the paper's ~100:1 refresh speedup over
//! row-at-a-time view maintenance. A bulk load is the same merge with no
//! old tree: [`write_tree`] serves both.

use crate::build::{LeafFormat, TreeBuilder};
use crate::node::ViewInfo;
use crate::tree::PackedRTree;
use ct_common::{AggState, Point, Result};
use ct_storage::{BufferPool, FileId};
use std::cmp::Ordering;
use std::sync::Arc;

/// A sorted stream of `(view, point, aggregate)` entries.
pub trait EntryStream {
    /// The next entry in packed order, or `None` at end of stream.
    fn next_entry(&mut self) -> Result<Option<(u32, Point, AggState)>>;
}

impl EntryStream for crate::tree::TreeScanner<'_> {
    fn next_entry(&mut self) -> Result<Option<(u32, Point, AggState)>> {
        crate::tree::TreeScanner::next_entry(self)
    }
}

/// An [`EntryStream`] over an iterator of entries already in packed order.
pub struct IterStream<I>(pub I);

impl<I: Iterator<Item = (u32, Point, AggState)>> EntryStream for IterStream<I> {
    fn next_entry(&mut self) -> Result<Option<(u32, Point, AggState)>> {
        Ok(self.0.next())
    }
}

/// An [`EntryStream`] over an in-memory vector (deltas, tests).
pub type VecStream = IterStream<std::vec::IntoIter<(u32, Point, AggState)>>;

impl VecStream {
    /// Wraps pre-sorted items.
    pub fn new(items: Vec<(u32, Point, AggState)>) -> Self {
        IterStream(items.into_iter())
    }
}

/// Merge order: packed point order first; ties broken by view id so that the
/// merge is deterministic. Equal `(point, view)` pairs are combined.
fn entry_cmp(a: &(u32, Point, AggState), b: &(u32, Point, AggState)) -> Ordering {
    a.1.packed_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// Replaces `head` with the stream's next entry. The linear merge is only
/// correct over a strictly increasing stream (an out-of-order or duplicated
/// entry would be spliced into the wrong leaf run), so every pull is checked
/// against the entry it replaces rather than trusting the caller.
fn advance<S: EntryStream + ?Sized>(
    stream: &mut S,
    head: &mut Option<(u32, Point, AggState)>,
) -> Result<()> {
    let next = stream.next_entry()?;
    if let (Some(prev), Some(e)) = (&*head, &next) {
        if entry_cmp(prev, e) != Ordering::Less {
            return Err(ct_common::CtError::invalid(
                "merge-pack delta stream is not strictly increasing in packed \
                 (point, view) order",
            ));
        }
    }
    *head = next;
    Ok(())
}

/// Merges `old`'s contents with a sorted `delta` stream into a freshly packed
/// tree in `new_fid`: [`write_tree`] with an old tree. The caller removes the
/// old tree's file afterwards.
pub fn merge_pack(
    pool: Arc<BufferPool>,
    old: &PackedRTree,
    delta: &mut dyn EntryStream,
    new_fid: FileId,
    views: Vec<ViewInfo>,
    format: LeafFormat,
) -> Result<PackedRTree> {
    write_tree(pool, Some(old), delta, new_fid, old.dims(), views, format)
}

/// Writes a packed `dims`-dimensional tree into `new_fid` from the linear
/// merge of `old`'s sequential scan with a sorted `delta` stream. Entries
/// with equal `(view, point)` have their aggregate states merged; everything
/// else is copied through. With no old tree this is a bulk load: the merge
/// never leaves its `(None, Some)` arm, which packs the stream as it
/// arrives. The old tree's leaves are read once each and the new file
/// written once, both past the buffer pool.
pub fn write_tree<S: EntryStream + ?Sized>(
    pool: Arc<BufferPool>,
    old: Option<&PackedRTree>,
    delta: &mut S,
    new_fid: FileId,
    dims: usize,
    views: Vec<ViewInfo>,
    format: LeafFormat,
) -> Result<PackedRTree> {
    if old.is_some_and(|t| t.pack_order_code() != 0) {
        return Err(ct_common::CtError::unsupported(
            "merge-pack requires the paper's low-sort pack order; Morton-packed \
             trees have no mergeable total order aligned with aggregation",
        ));
    }
    // For deletion-safe aggregates (faithful on-disk counts), a merge that
    // drives a group's count to zero annihilates the entry: it is dropped
    // from the new packed tree ([GL95]-style counting maintenance).
    let drop_annihilated: std::collections::HashMap<u32, bool> =
        views.iter().map(|v| (v.view, v.agg.deletion_safe())).collect();
    // Merge metrics (inert when disabled): totals are accumulated locally and
    // added once at the end, keeping the merge loop counter-free.
    let recorder = pool.recorder().clone();
    let (mut old_n, mut delta_n, mut annihilated_n) = (0u64, 0u64, 0u64);
    let mut builder = TreeBuilder::new(pool, new_fid, dims, views, format)?;
    let mut old_scan = old.map(PackedRTree::scanner);
    let mut next_old = || old_scan.as_mut().map_or(Ok(None), |s| s.next_entry());
    let mut a = next_old()?;
    let mut b = None;
    advance(delta, &mut b)?;
    loop {
        match (&a, &b) {
            (None, None) => break,
            (Some(ea), None) => {
                builder.push(ea.0, ea.1, &ea.2)?;
                old_n += 1;
                a = next_old()?;
            }
            (None, Some(eb)) => {
                builder.push(eb.0, eb.1, &eb.2)?;
                delta_n += 1;
                advance(delta, &mut b)?;
            }
            (Some(ea), Some(eb)) => match entry_cmp(ea, eb) {
                Ordering::Less => {
                    builder.push(ea.0, ea.1, &ea.2)?;
                    old_n += 1;
                    a = next_old()?;
                }
                Ordering::Greater => {
                    builder.push(eb.0, eb.1, &eb.2)?;
                    delta_n += 1;
                    advance(delta, &mut b)?;
                }
                Ordering::Equal => {
                    let mut merged = ea.2;
                    merged.merge(&eb.2);
                    let annihilated = merged.is_annihilated()
                        && drop_annihilated.get(&ea.0).copied().unwrap_or(false);
                    if !annihilated {
                        builder.push(ea.0, ea.1, &merged)?;
                    } else {
                        annihilated_n += 1;
                    }
                    old_n += 1;
                    delta_n += 1;
                    a = next_old()?;
                    advance(delta, &mut b)?;
                }
            },
        }
    }
    let written = builder.finish()?;
    // A load reads no old tree, so it is no merge to these counters.
    if old.is_some() {
        recorder.add("rtree.merge.merges", 1);
        recorder.add("rtree.merge.old_entries", old_n);
        recorder.add("rtree.merge.delta_entries", delta_n);
        recorder.add("rtree.merge.out_entries", written.entry_count());
        recorder.add("rtree.merge.annihilated_entries", annihilated_n);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_common::{AggFn, Rect, COORD_MAX};
    use ct_storage::StorageEnv;

    fn sum_view(view: u32, arity: u8) -> ViewInfo {
        ViewInfo { view, arity, agg: AggFn::Sum }
    }

    fn build(env: &StorageEnv, name: &str, entries: &[(u32, Vec<u64>, i64)], views: Vec<ViewInfo>, dims: usize) -> PackedRTree {
        let fid = env.create_file(name).unwrap();
        let mut b =
            TreeBuilder::new(env.pool().clone(), fid, dims, views, LeafFormat::Compressed).unwrap();
        for (v, coords, q) in entries {
            b.push(*v, Point::new(coords, dims), &AggState::from_measure(*q)).unwrap();
        }
        b.finish().unwrap()
    }

    fn dump(t: &PackedRTree) -> Vec<(u32, Vec<u64>, i64)> {
        let mut s = t.scanner();
        let mut out = Vec::new();
        while let Some((v, p, st)) = s.next_entry().unwrap() {
            out.push((v, p.coords().to_vec(), st.sum));
        }
        out
    }

    #[test]
    fn merge_combines_and_interleaves() {
        let env = StorageEnv::new("merge-basic").unwrap();
        let views = vec![sum_view(1, 2)];
        let old = build(
            &env,
            "old",
            &[(1, vec![1, 1], 10), (1, vec![3, 1], 30), (1, vec![2, 2], 20)],
            views.clone(),
            2,
        );
        let mut delta = VecStream::new(vec![
            (1, Point::new(&[2, 1], 2), AggState::from_measure(5)), // new point
            (1, Point::new(&[3, 1], 2), AggState::from_measure(7)), // existing → merge
            (1, Point::new(&[1, 3], 2), AggState::from_measure(9)), // new, after all old
        ]);
        let new_fid = env.create_file("new").unwrap();
        let merged = merge_pack(
            env.pool().clone(),
            &old,
            &mut delta,
            new_fid,
            views,
            LeafFormat::Compressed,
        )
        .unwrap();
        assert_eq!(
            dump(&merged),
            vec![
                (1, vec![1, 1], 10),
                (1, vec![2, 1], 5),
                (1, vec![3, 1], 37),
                (1, vec![2, 2], 20),
                (1, vec![1, 3], 9),
            ]
        );
        assert_eq!(merged.entry_count(), 5);
    }

    #[test]
    fn merge_multi_view_keeps_contiguity() {
        let env = StorageEnv::new("merge-multi").unwrap();
        let views = vec![sum_view(0, 0), sum_view(8, 1), sum_view(9, 2)];
        let old = build(
            &env,
            "old",
            &[
                (0, vec![], 100),
                (8, vec![2], 5),
                (8, vec![4], 7),
                (9, vec![1, 1], 1),
                (9, vec![2, 3], 3),
            ],
            views.clone(),
            2,
        );
        let mut delta = VecStream::new(vec![
            (0, Point::origin(2), AggState::from_measure(11)),
            (8, Point::new(&[3], 2), AggState::from_measure(6)),
            (9, Point::new(&[2, 1], 2), AggState::from_measure(2)),
            (9, Point::new(&[2, 3], 2), AggState::from_measure(4)),
        ]);
        let new_fid = env.create_file("new").unwrap();
        let merged = merge_pack(
            env.pool().clone(),
            &old,
            &mut delta,
            new_fid,
            views,
            LeafFormat::Compressed,
        )
        .unwrap();
        assert_eq!(
            dump(&merged),
            vec![
                (0, vec![0, 0], 111),
                (8, vec![2, 0], 5),
                (8, vec![3, 0], 6),
                (8, vec![4, 0], 7),
                (9, vec![1, 1], 1),
                (9, vec![2, 1], 2),
                (9, vec![2, 3], 7),
            ]
        );
    }

    #[test]
    fn out_of_order_delta_is_rejected() {
        let env = StorageEnv::new("merge-order").unwrap();
        let views = vec![sum_view(1, 2)];
        let old = build(&env, "old", &[(1, vec![1, 1], 10)], views.clone(), 2);
        // (2,2) precedes (1,2) in packed (y,x) order — the stream regresses.
        let mut delta = VecStream::new(vec![
            (1, Point::new(&[2, 2], 2), AggState::from_measure(1)),
            (1, Point::new(&[1, 2], 2), AggState::from_measure(1)),
        ]);
        let new_fid = env.create_file("new").unwrap();
        let err = match merge_pack(
            env.pool().clone(),
            &old,
            &mut delta,
            new_fid,
            views,
            LeafFormat::Compressed,
        ) {
            Ok(_) => panic!("out-of-order delta must be rejected"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("strictly increasing"), "got: {err}");
    }

    #[test]
    fn duplicate_delta_entry_is_rejected() {
        let env = StorageEnv::new("merge-dup").unwrap();
        let views = vec![sum_view(1, 2)];
        let old = build(&env, "old", &[(1, vec![1, 1], 10)], views.clone(), 2);
        let mut delta = VecStream::new(vec![
            (1, Point::new(&[2, 2], 2), AggState::from_measure(1)),
            (1, Point::new(&[2, 2], 2), AggState::from_measure(1)),
        ]);
        let new_fid = env.create_file("new").unwrap();
        assert!(merge_pack(
            env.pool().clone(),
            &old,
            &mut delta,
            new_fid,
            views,
            LeafFormat::Compressed,
        )
        .is_err());
    }

    #[test]
    fn merge_into_empty_tree() {
        let env = StorageEnv::new("merge-empty").unwrap();
        let views = vec![sum_view(1, 1)];
        let old = build(&env, "old", &[], views.clone(), 2);
        let mut delta = VecStream::new(vec![
            (1, Point::new(&[1], 2), AggState::from_measure(4)),
            (1, Point::new(&[2], 2), AggState::from_measure(8)),
        ]);
        let new_fid = env.create_file("new").unwrap();
        let merged =
            merge_pack(env.pool().clone(), &old, &mut delta, new_fid, views, LeafFormat::Compressed)
                .unwrap();
        assert_eq!(merged.entry_count(), 2);
    }

    #[test]
    fn write_tree_without_old_tree_is_a_pack() {
        let env = StorageEnv::new("merge-load").unwrap();
        let views = vec![sum_view(0, 0), sum_view(8, 1), sum_view(9, 2)];
        let mut entries = vec![(0u32, vec![], 100i64)];
        entries.extend((1..=300u64).map(|x| (8, vec![x], x as i64)));
        entries.extend((1..=60u64).flat_map(|y| (1..=60u64).map(move |x| (9, vec![x, y], 1))));
        let before = env.snapshot();
        let packed = build(&env, "packed", &entries, views.clone(), 2);
        let pack_io = env.snapshot().since(&before);
        let mut stream = VecStream::new(
            entries
                .iter()
                .map(|(v, c, q)| (*v, Point::new(c, 2), AggState::from_measure(*q)))
                .collect(),
        );
        let fid = env.create_file("written").unwrap();
        let before = env.snapshot();
        let written = write_tree(
            env.pool().clone(),
            None,
            &mut stream,
            fid,
            2,
            views,
            LeafFormat::Compressed,
        )
        .unwrap();
        assert_eq!(env.snapshot().since(&before), pack_io, "same writes, no reads");
        let bytes = |t: &PackedRTree| {
            std::fs::read(env.pool().file(t.file_id()).unwrap().path()).unwrap()
        };
        assert_eq!(bytes(&written), bytes(&packed));
        assert_eq!(dump(&written), dump(&packed));
        // The load is the merge loop, so its stream is checked the same way.
        let mut stream = VecStream::new(vec![
            (8, Point::new(&[2], 2), AggState::from_measure(1)),
            (8, Point::new(&[1], 2), AggState::from_measure(1)),
        ]);
        let fid = env.create_file("unsorted").unwrap();
        let views = vec![sum_view(8, 1)];
        let err = write_tree(env.pool().clone(), None, &mut stream, fid, 2, views, LeafFormat::Compressed)
            .err()
            .expect("an unsorted load must be rejected");
        assert!(err.to_string().contains("strictly increasing"), "got: {err}");
    }

    #[test]
    fn merge_with_empty_delta_copies() {
        let env = StorageEnv::new("merge-nodelta").unwrap();
        let views = vec![sum_view(1, 1)];
        let old = build(&env, "old", &[(1, vec![5], 50)], views.clone(), 2);
        let mut delta = VecStream::new(vec![]);
        let new_fid = env.create_file("new").unwrap();
        let merged =
            merge_pack(env.pool().clone(), &old, &mut delta, new_fid, views, LeafFormat::Compressed)
                .unwrap();
        assert_eq!(dump(&merged), vec![(1, vec![5, 0], 50)]);
    }

    #[test]
    fn merge_io_is_sequential_dominated() {
        let env = StorageEnv::new("merge-seqio").unwrap();
        let views = vec![sum_view(1, 2)];
        let pages = |t: &PackedRTree| env.pool().file(t.file_id()).unwrap().page_count();
        // Build a tree big enough to span many leaves.
        let mut entries = Vec::new();
        for y in 1..=200u64 {
            for x in 1..=200u64 {
                entries.push((1u32, vec![x, y], (x + y) as i64));
            }
        }
        let before = env.snapshot();
        let old = build(&env, "old", &entries, views.clone(), 2);
        // A pack writes each page of its file exactly once, past the pool.
        // The first leaf and the meta page, written last, are its only seeks.
        let d = env.snapshot().since(&before);
        assert!(old.stats().leaf_pages >= 10, "{:?}", old.stats());
        assert_eq!((d.seq_writes, d.rand_writes), (pages(&old) - 2, 2), "{d:?}");
        assert_eq!((d.seq_reads, d.rand_reads, d.buffer_hits), (0, 0, 0), "{d:?}");

        let before = env.snapshot();
        let delta_items: Vec<_> = (1..=200u64)
            .map(|x| (1u32, Point::new(&[x, 201], 2), AggState::from_measure(1)))
            .collect();
        let mut delta = VecStream::new(delta_items);
        let new_fid = env.create_file("new").unwrap();
        let merged =
            merge_pack(env.pool().clone(), &old, &mut delta, new_fid, views, LeafFormat::Compressed)
                .unwrap();
        let d = env.snapshot().since(&before);
        assert_eq!(merged.entry_count(), 200 * 200 + 200);
        assert_eq!((d.seq_writes, d.rand_writes), (pages(&merged) - 2, 2), "{d:?}");
        // Merge-pack reads each leaf of the old tree exactly once, in chain
        // order: one seek to the first leaf, then sequential.
        let leaves = old.stats().leaf_pages;
        assert_eq!((d.seq_reads, d.rand_reads, d.buffer_hits), (leaves - 1, 1, 0), "{d:?}");
    }

    #[test]
    fn merged_tree_answers_queries() {
        let env = StorageEnv::new("merge-query").unwrap();
        let views = vec![sum_view(1, 2)];
        let old = build(&env, "old", &[(1, vec![1, 1], 1), (1, vec![2, 2], 2)], views.clone(), 2);
        let mut delta = VecStream::new(vec![(1, Point::new(&[1, 2], 2), AggState::from_measure(9))]);
        let new_fid = env.create_file("new").unwrap();
        let merged =
            merge_pack(env.pool().clone(), &old, &mut delta, new_fid, views, LeafFormat::Compressed)
                .unwrap();
        let mut got = Vec::new();
        merged
            .search(&Rect::new(&[1, 1], &[1, COORD_MAX]), |_, p, s| {
                got.push((p.coord(1), s.sum));
                true
            })
            .unwrap();
        assert_eq!(got, vec![(1, 1), (2, 9)]);
    }
}
