//! Batched query scheduling: group by tree, order by packing order.
//!
//! A Cubetree forest gives a batch scheduler two structural gifts. First,
//! trees are independent files, so per-tree groups are the natural unit of
//! concurrency — two workers never contend on one tree's pages. Second,
//! each view's leaves occupy one contiguous run of pages in packed
//! (`x_d..x_1` low-sort) order, so sorting a group's queries by the chosen
//! view's run start and then by their region's origin in packed order turns
//! a batch of random leaf accesses into a near-sequential sweep over each
//! run — the same access-pattern argument the paper makes for packing
//! itself (§2.3). Identical `(placement, region)` neighbors collapse into
//! one *shared scan*: a single leaf pass feeding every query's aggregator.

use crate::forest::Generation;
use crate::query::{query_region, Planned};
use ct_common::{Point, Rect};
use std::collections::BTreeMap;

/// Scheduling statistics for one executed batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedSummary {
    /// Per-tree execution groups the batch was split into.
    pub groups: u64,
    /// Queries whose position changed relative to arrival order within
    /// their group.
    pub reordered: u64,
    /// Queries answered by piggybacking on another query's leaf pass
    /// (identical placement and region).
    pub shared_scans: u64,
}

/// One planned query, scheduled into a group.
pub(crate) struct SchedQuery {
    /// Position in the scheduled share (results scatter back through it).
    pub index: usize,
    /// The planned placement (index into the generation's placements).
    pub placement: usize,
    pub region: Rect,
}

/// All queries routed to one tree, in sweep order.
pub(crate) struct TreeGroup {
    pub tree: usize,
    pub queries: Vec<SchedQuery>,
}

/// Partitions an already-planned batch into per-tree groups sorted in
/// leaf-sweep order. Callers plan first (the sharded engine plans each
/// query once across all shards and hands every shard the same plans), so
/// per-shard scheduling never diverges on view choice.
pub(crate) fn schedule_planned(
    gen: &Generation,
    share: &[Planned<'_>],
) -> (Vec<TreeGroup>, SchedSummary) {
    let mut per_tree: BTreeMap<usize, Vec<SchedQuery>> = BTreeMap::new();
    for (index, (_, q, plan)) in share.iter().enumerate() {
        let placement = &gen.placements()[plan.placement];
        let region = query_region(&placement.def, gen.tree(placement.tree).dims(), q);
        per_tree
            .entry(placement.tree)
            .or_default()
            .push(SchedQuery { index, placement: plan.placement, region });
    }

    let mut summary = SchedSummary { groups: per_tree.len() as u64, ..Default::default() };
    let mut groups = Vec::with_capacity(per_tree.len());
    for (tree, mut members) in per_tree {
        let dims = gen.tree(tree).dims();
        // Sweep order: the chosen view's leaf-run start, then the region
        // origin in packed order (the order leaves were laid out in), then
        // arrival order as the deterministic tiebreak.
        members.sort_by(|a, b| {
            let ka = run_start(gen, a);
            let kb = run_start(gen, b);
            ka.cmp(&kb)
                .then_with(|| {
                    Point::new(a.region.lo(), dims).packed_cmp(&Point::new(b.region.lo(), dims))
                })
                .then_with(|| a.index.cmp(&b.index))
        });
        // Reordered = positions where the sweep order disagrees with the
        // group's arrival order.
        let mut arrival: Vec<usize> = members.iter().map(|m| m.index).collect();
        arrival.sort_unstable();
        summary.reordered += members
            .iter()
            .zip(&arrival)
            .filter(|(m, &orig)| m.index != orig)
            .count() as u64;
        // Shared scans = members that ride a preceding identical scan.
        summary.shared_scans += members
            .windows(2)
            .filter(|w| w[0].same_scan(&w[1]))
            .count() as u64;
        groups.push(TreeGroup { tree, queries: members });
    }
    (groups, summary)
}

impl SchedQuery {
    /// True when `other` reads exactly the leaves this query reads, so one
    /// pass can feed both (a *shared scan*).
    pub(crate) fn same_scan(&self, other: &SchedQuery) -> bool {
        self.placement == other.placement && self.region == other.region
    }
}

/// First leaf page of the run the planned placement stores its view in
/// (`u64::MAX` when the view is empty, pushing it to the end of the sweep).
fn run_start(gen: &Generation, sq: &SchedQuery) -> u64 {
    let placement = &gen.placements()[sq.placement];
    gen.tree(placement.tree)
        .view_extent(placement.def.id.0)
        .map_or(u64::MAX, |(_, ext)| ext.first_leaf)
}
