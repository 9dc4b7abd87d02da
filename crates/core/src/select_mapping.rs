//! The SelectMapping algorithm (paper Figure 5).
//!
//! Given views `V = {V1 … Vn}`, SelectMapping allocates a forest of
//! Cubetrees such that **no Cubetree contains two views of the same arity**.
//! Views are grouped by arity into sets `S1 … SmaxArity`; each round creates
//! a tree of the highest remaining arity and maps into it one view from each
//! non-empty `Sj`. The result is *minimal*: it uses the fewest trees that
//! keep every view in "a distinct continuous string of leaf-nodes" (§2.4),
//! which simultaneously minimizes non-leaf space overhead and maximizes the
//! buffer hit ratio of the tree tops.
//!
//! The scalar `none` view (arity 0) maps to the origin of the first tree
//! (paper §3, Table 5).

use ct_common::{ViewDef, ViewId};

/// One Cubetree in the plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeSpec {
    /// Dimensionality of the tree (= the largest arity mapped into it).
    pub dims: usize,
    /// Views mapped to this tree, in increasing arity order (which is also
    /// their packed storage order, since lower-arity views carry trailing
    /// zeros and therefore sort first).
    pub views: Vec<ViewId>,
}

/// The forest allocation produced by [`select_mapping`].
#[derive(Clone, Debug, Default)]
pub struct MappingPlan {
    /// One spec per Cubetree, in creation order (`R1`, `R2`, …).
    pub trees: Vec<TreeSpec>,
}

impl MappingPlan {
    /// The tree index a view was mapped to.
    pub fn tree_of(&self, view: ViewId) -> Option<usize> {
        self.trees.iter().position(|t| t.views.contains(&view))
    }

    /// Number of trees.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }
}

/// Runs SelectMapping over the given view definitions.
///
/// Views of equal arity are assigned in input order (FIFO), which reproduces
/// the paper's Figure 7 grouping for the 9-view example and Table 5 for the
/// TPC-D set.
pub fn select_mapping(views: &[ViewDef]) -> MappingPlan {
    let max_arity = views.iter().map(|v| v.arity()).max().unwrap_or(0);
    // Group views by arity (paper: sets S_i). FIFO within each set.
    let mut sets: Vec<std::collections::VecDeque<ViewId>> =
        vec![std::collections::VecDeque::new(); max_arity + 1];
    for v in views {
        sets[v.arity()].push_back(v.id);
    }
    let mut plan = MappingPlan::default();
    // All arity-0 views (normally just `none`) ride along in the first tree.
    let zero_arity: Vec<ViewId> = sets[0].drain(..).collect();

    // Highest arity with unmapped views drives each round.
    while let Some(arity) = (1..=max_arity).rev().find(|&i| !sets[i].is_empty()) {
        let mut tree = TreeSpec { dims: arity, views: Vec::new() };
        if plan.trees.is_empty() {
            tree.views.extend(zero_arity.iter().copied());
        }
        // One view from each non-empty S_j, ascending so storage order holds.
        for set in sets.iter_mut().take(arity + 1).skip(1) {
            if let Some(v) = set.pop_front() {
                tree.views.push(v);
            }
        }
        plan.trees.push(tree);
    }
    // Degenerate case: only arity-0 views requested.
    if plan.trees.is_empty() && !zero_arity.is_empty() {
        plan.trees.push(TreeSpec { dims: 1, views: zero_arity });
    }
    plan
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ct_common::{AggFn, AttrId};

    fn v(id: u32, arity: usize) -> ViewDef {
        ViewDef::new(id, (0..arity).map(|i| AttrId(i as u16)).collect(), AggFn::Sum)
    }

    /// Paper Figure 7: the 9-view example groups into R1{x,y,z,w} =
    /// {V1,V2,V5,V3}, R2{x,y,z,w} = {V6,V7,V4}, R3{x,y} = {V8,V9}.
    #[test]
    fn figure_7_grouping() {
        let arities = [1usize, 2, 4, 4, 3, 1, 2, 1, 2]; // V1..V9
        let views: Vec<ViewDef> =
            arities.iter().enumerate().map(|(i, &a)| v(i as u32 + 1, a)).collect();
        let plan = select_mapping(&views);
        assert_eq!(plan.tree_count(), 3);
        assert_eq!(plan.trees[0].dims, 4);
        assert_eq!(
            plan.trees[0].views,
            vec![ViewId(1), ViewId(2), ViewId(5), ViewId(3)],
            "R1 = V1, V2, V5, V3 in increasing arity"
        );
        assert_eq!(plan.trees[1].dims, 4);
        assert_eq!(plan.trees[1].views, vec![ViewId(6), ViewId(7), ViewId(4)]);
        assert_eq!(plan.trees[2].dims, 2);
        assert_eq!(plan.trees[2].views, vec![ViewId(8), ViewId(9)]);
    }

    /// Paper Table 5: the TPC-D view set maps to R1{x,y,z} = {psc, ps, c,
    /// none}, R2{x} = {s}, R3{x} = {p}.
    #[test]
    fn table_5_allocation() {
        // Input order mirrors the paper's benefit order:
        // psc(3), ps(2), c(1), s(1), p(1), none(0).
        let views = vec![v(0, 3), v(1, 2), v(2, 1), v(3, 1), v(4, 1), v(5, 0)];
        let plan = select_mapping(&views);
        assert_eq!(plan.tree_count(), 3);
        assert_eq!(plan.trees[0].dims, 3);
        assert_eq!(
            plan.trees[0].views,
            vec![ViewId(5), ViewId(2), ViewId(1), ViewId(0)],
            "R1 holds none, c, ps, psc"
        );
        assert_eq!(plan.trees[1], TreeSpec { dims: 1, views: vec![ViewId(3)] });
        assert_eq!(plan.trees[2], TreeSpec { dims: 1, views: vec![ViewId(4)] });
    }

    #[test]
    fn no_tree_has_two_views_of_same_arity() {
        let views: Vec<ViewDef> = (0..20).map(|i| v(i, (i as usize % 4) + 1)).collect();
        let plan = select_mapping(&views);
        for tree in &plan.trees {
            let mut arities: Vec<usize> = tree
                .views
                .iter()
                .map(|id| views.iter().find(|w| w.id == *id).unwrap().arity())
                .collect();
            let before = arities.len();
            arities.sort();
            arities.dedup();
            assert_eq!(arities.len(), before, "duplicate arity in {tree:?}");
        }
    }

    #[test]
    fn tree_count_is_max_set_size() {
        // The minimal forest size equals the largest arity class.
        let views: Vec<ViewDef> =
            (0..7).map(|i| v(i, 2)).chain((7..9).map(|i| v(i, 3))).collect();
        let plan = select_mapping(&views);
        assert_eq!(plan.tree_count(), 7);
        // Every view is mapped exactly once.
        let mut all: Vec<ViewId> = plan.trees.iter().flat_map(|t| t.views.clone()).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 9);
    }

    #[test]
    fn only_none_view() {
        let plan = select_mapping(&[v(0, 0)]);
        assert_eq!(plan.tree_count(), 1);
        assert_eq!(plan.trees[0].views, vec![ViewId(0)]);
        assert_eq!(plan.tree_of(ViewId(0)), Some(0));
        assert_eq!(plan.tree_of(ViewId(9)), None);
    }

    #[test]
    fn empty_input() {
        let plan = select_mapping(&[]);
        assert_eq!(plan.tree_count(), 0);
    }

    #[test]
    fn views_in_tree_are_ascending_arity() {
        let views: Vec<ViewDef> = (0..12).map(|i| v(i, (i as usize % 5).max(1))).collect();
        let plan = select_mapping(&views);
        for tree in &plan.trees {
            let arities: Vec<usize> = tree
                .views
                .iter()
                .map(|id| views.iter().find(|w| w.id == *id).unwrap().arity())
                .collect();
            assert!(arities.windows(2).all(|w| w[0] < w[1]), "{arities:?}");
        }
    }
}
