//! Sort-counting computation planning (paper §3.2, Figure 10; \[AAD+96\]).
//!
//! A view is computed by sorting a parent relation on the view's own sort
//! order and aggregating adjacent equal keys; that same sort is the packing
//! order of the structure that stores the view (§3.2). A sort is the
//! expensive step, and often it is not needed: a relation already sorted on
//! `(c, s, p)` holds `V{c}` in order, so `V{c}` comes out of one linear pass
//! that merges adjacent rows. The planner therefore counts sorts. Each
//! target (replicas included) gets one of two steps:
//!
//! * [`StepKind::Linear`] — the target's sort order, as attributes, equals
//!   the first `|target|` attributes of an already computed relation's sort
//!   order. The attributes must match exactly: a hierarchy rollup (e.g.
//!   `partkey → part.brand`) need not keep the order. Among the relations
//!   that qualify, the one with the fewest rows is read.
//! * [`StepKind::Sort`] — every other target is sorted from the smallest
//!   computed relation that derives it (for a replica, its base view), or
//!   from the fact table.
//!
//! Targets are planned in decreasing estimated size (ties: higher arity
//! first, then request order), so the relations a smaller target could read
//! are planned before it.

use ct_common::{AttrId, Catalog, CtError, Result};

/// Where a view's input comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanSource {
    /// Compute from the raw fact relation.
    Fact,
    /// Compute from a previously computed target (index into the request).
    View(usize),
}

/// How a step turns its source into its target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// Translate, externally sort and aggregate.
    Sort,
    /// One pass over a source already sorted on the target's order,
    /// merging adjacent equal keys.
    Linear,
}

/// One computation step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanStep {
    /// Index of the target (into the request list) being computed.
    pub target: usize,
    /// Input relation.
    pub source: PlanSource,
    /// Sort or linear pass.
    pub kind: StepKind,
}

/// An ordered computation plan: executing steps in order guarantees every
/// `View(i)` source has already been produced.
#[derive(Clone, Debug, Default)]
pub struct ComputePlan {
    /// Steps in execution order.
    pub steps: Vec<PlanStep>,
}

impl ComputePlan {
    /// Number of sort steps.
    pub fn sort_count(&self) -> usize {
        self.steps.iter().filter(|st| st.kind == StepKind::Sort).count()
    }
}

/// One view to compute: its group-by attributes, the order of its columns it
/// must come out sorted in (a permutation of `0..attrs.len()`), and its
/// estimated row count.
#[derive(Clone, Debug)]
pub struct PlanTarget {
    /// Group-by attributes, in column order.
    pub attrs: Vec<AttrId>,
    /// Sort order as column indices into `attrs`.
    pub sort_cols: Vec<usize>,
    /// Estimated rows.
    pub size: u64,
}

impl PlanTarget {
    /// The sort order as attributes, most significant first.
    fn sort_attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.sort_cols.iter().map(|&c| self.attrs[c])
    }

    /// True if a relation sorted like `source` holds this target in order:
    /// this target's sort attributes are a prefix of `source`'s.
    fn is_prefix_of(&self, source: &PlanTarget) -> bool {
        self.sort_cols.len() <= source.sort_cols.len()
            && self.sort_attrs().zip(source.sort_attrs()).all(|(a, b)| a == b)
    }
}

/// Plans the computation of `targets` from a fact relation over
/// `fact_attrs` with `fact_size` rows.
///
/// # Errors
/// * [`CtError::Unsupported`] if some target cannot be derived from the fact
///   schema at all.
/// * [`CtError::InvalidArgument`] if a target's `sort_cols` does not index
///   its attributes.
pub fn plan_computation(
    catalog: &Catalog,
    fact_attrs: &[AttrId],
    fact_size: u64,
    targets: &[PlanTarget],
) -> Result<ComputePlan> {
    let mut order: Vec<usize> = (0..targets.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse((targets[i].size, targets[i].attrs.len())));

    let mut steps = Vec::with_capacity(targets.len());
    let mut available: Vec<usize> = Vec::new(); // indices already planned
    for &i in &order {
        let target = &targets[i];
        if target.sort_cols.iter().any(|&c| c >= target.attrs.len()) {
            return Err(CtError::invalid("sort order must index the target's columns"));
        }
        if !catalog.derivable_from(&target.attrs, fact_attrs) {
            return Err(CtError::unsupported(format!(
                "view over {:?} is not derivable from the fact table",
                target.attrs
            )));
        }
        let linear = available
            .iter()
            .copied()
            .filter(|&j| target.is_prefix_of(&targets[j]))
            .min_by_key(|&j| (targets[j].size, targets[j].attrs.len()));
        let (source, kind) = match linear {
            Some(j) => (PlanSource::View(j), StepKind::Linear),
            None => {
                // A computed parent wins a size tie with the fact: it has no
                // more rows and no more columns.
                let parent = available
                    .iter()
                    .copied()
                    .filter(|&j| catalog.derivable_from(&target.attrs, &targets[j].attrs))
                    .min_by_key(|&j| targets[j].size)
                    .filter(|&j| targets[j].size <= fact_size);
                (parent.map_or(PlanSource::Fact, PlanSource::View), StepKind::Sort)
            }
        };
        steps.push(PlanStep { target: i, source, kind });
        available.push(i);
    }
    Ok(ComputePlan { steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{packed_sort_cols, projection_sort_cols};
    use ct_common::{AttrId, Catalog};

    fn setup() -> (Catalog, [AttrId; 3]) {
        let mut c = Catalog::new();
        let p = c.add_attr("partkey", 200_000);
        let s = c.add_attr("suppkey", 10_000);
        let cu = c.add_attr("custkey", 150_000);
        (c, [p, s, cu])
    }

    fn target(attrs: &[AttrId], sort: fn(usize) -> Vec<usize>, size: u64) -> PlanTarget {
        PlanTarget { attrs: attrs.to_vec(), sort_cols: sort(attrs.len()), size }
    }

    /// Execution order respects dependencies.
    fn assert_sources_first(plan: &ComputePlan) {
        let mut produced = Vec::new();
        for st in &plan.steps {
            if let PlanSource::View(j) = st.source {
                assert!(produced.contains(&j), "source {j} not yet produced");
            }
            produced.push(st.target);
        }
    }

    #[test]
    fn paper_dependency_graph() {
        // Paper §3's Cubetree set at SF 1: the six views plus the two
        // top-view replicas, all in packed order (reversed projection). The
        // top view is sorted (c,s,p), the replicas (p,c,s) and (s,p,c); every
        // other view is a prefix of one of them.
        let (c, [p, s, cu]) = setup();
        let sizes = [5_970_000, 800_000, 150_000, 10_000, 200_000, 1, 5_970_000, 5_970_000];
        let attrs: [&[AttrId]; 8] =
            [&[p, s, cu], &[p, s], &[cu], &[s], &[p], &[], &[s, cu, p], &[cu, p, s]];
        let targets: Vec<PlanTarget> =
            attrs.iter().zip(sizes).map(|(a, n)| target(a, packed_sort_cols, n)).collect();
        let plan = plan_computation(&c, &[p, s, cu], 6_001_215, &targets).unwrap();
        assert_eq!(plan.steps.len(), 8);
        assert_sources_first(&plan);
        let step_of = |t: usize| {
            let st = plan.steps.iter().find(|st| st.target == t).unwrap();
            (st.source, st.kind)
        };
        use PlanSource::{Fact, View};
        use StepKind::{Linear, Sort};
        assert_eq!(step_of(0), (Fact, Sort), "psc from the fact");
        assert_eq!(step_of(6), (View(0), Sort), "replica (p,c,s) from its base");
        assert_eq!(step_of(7), (View(0), Sort), "replica (s,p,c) from its base");
        assert_eq!(step_of(1), (View(7), Linear), "ps is a prefix of (s,p,c)");
        assert_eq!(step_of(2), (View(0), Linear), "c is a prefix of (c,s,p)");
        assert_eq!(step_of(3), (View(1), Linear), "s from the smaller of (s,p,c) and (s,p)");
        assert_eq!(step_of(4), (View(6), Linear), "p is a prefix of (p,c,s)");
        assert_eq!(step_of(5), (View(3), Linear), "none from the smallest relation");
        assert_eq!(plan.sort_count(), 3);
    }

    #[test]
    fn projection_order_plans_conventional_views() {
        // The conventional engine sorts each view in projection order: ps and
        // p are prefixes of (p,s,c) and (p,s); c and s must be sorted.
        let (c, [p, s, cu]) = setup();
        let sizes = [5_970_000, 800_000, 150_000, 10_000, 200_000, 1];
        let attrs: [&[AttrId]; 6] = [&[p, s, cu], &[p, s], &[cu], &[s], &[p], &[]];
        let targets: Vec<PlanTarget> =
            attrs.iter().zip(sizes).map(|(a, n)| target(a, projection_sort_cols, n)).collect();
        let plan = plan_computation(&c, &[p, s, cu], 6_001_215, &targets).unwrap();
        assert_sources_first(&plan);
        let kinds: Vec<StepKind> =
            (0..6).map(|t| plan.steps.iter().find(|st| st.target == t).unwrap().kind).collect();
        use StepKind::{Linear, Sort};
        assert_eq!(kinds, vec![Sort, Linear, Sort, Sort, Linear, Linear]);
        let s_step = plan.steps.iter().find(|st| st.target == 3).unwrap();
        assert_eq!(s_step.source, PlanSource::View(1), "s sorted from its smallest parent");
    }

    #[test]
    fn hierarchy_target_is_never_linear() {
        // part.brand rolls partkey up; a relation sorted on partkey is not
        // sorted on brand, so V{brand} must be sorted.
        let (mut c, [p, s, cu]) = setup();
        let brand = c.add_attr("part.brand", 25);
        c.add_hierarchy(p, brand, (0..=200_000).map(|k| k % 25 + 1).collect());
        let targets = vec![
            target(&[p, s, cu], packed_sort_cols, 1000),
            target(&[p], packed_sort_cols, 100),
            target(&[brand], packed_sort_cols, 25),
        ];
        let plan = plan_computation(&c, &[p, s, cu], 1000, &targets).unwrap();
        let brand_step = plan.steps.iter().find(|st| st.target == 2).unwrap();
        assert_eq!(brand_step.kind, StepKind::Sort);
        assert_eq!(brand_step.source, PlanSource::View(1), "from the smallest parent");
    }

    #[test]
    fn underivable_view_is_rejected() {
        let (mut c, [p, s, _]) = setup();
        let other = c.add_attr("orderdate", 2_000);
        let targets = vec![target(&[other], packed_sort_cols, 10)];
        assert!(plan_computation(&c, &[p, s], 100, &targets).is_err());
        let bad_sort = vec![PlanTarget { attrs: vec![p], sort_cols: vec![1], size: 10 }];
        assert!(plan_computation(&c, &[p, s], 100, &bad_sort).is_err());
    }

    #[test]
    fn empty_request_plans_nothing() {
        let (c, [p, s, cu]) = setup();
        let plan = plan_computation(&c, &[p, s, cu], 100, &[]).unwrap();
        assert!(plan.steps.is_empty());
        assert_eq!(plan.sort_count(), 0);
    }
}
