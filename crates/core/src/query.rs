//! Slice-query planning and execution over a Cubetree forest, plus the
//! rollup aggregation helper shared with the conventional engine.
//!
//! Planning follows the paper's observations in §3.3: a query may be
//! answerable from several materialized views ("other parameters like the
//! existence of an index … should be taken into account"). The planner
//! scores every placement that *derives* the query's lattice node by the
//! expected number of matching tuples, breaking ties toward the placement
//! whose physical sort order has the longest prefix of sliced attributes —
//! that is exactly what the paper's multi-sort-order replicas are for.

use crate::delta::DeltaSnapshot;
use crate::forest::{Generation, PlacedView};
use ct_common::query::QueryRow;
use ct_common::{
    AggFn, AggState, AttrId, Catalog, CtError, Hierarchy, Rect, Result, SliceQuery, ViewDef,
    ViewId, COORD_MAX,
};
use ct_storage::StorageEnv;
use std::collections::HashMap;

/// Streaming group-by aggregator with hierarchy rollup and residual
/// predicate checking.
///
/// Feed it raw `(key, state)` pairs from any materialized source whose
/// projection derives the query's attributes; it translates keys through
/// dimension hierarchies, re-checks every predicate (cheap and safe — the
/// access path may have already applied some), groups by the query's
/// `group_by` list and merges aggregate states.
pub struct RollupAggregator<'a> {
    group_resolvers: Vec<Resolver<'a>>,
    pred_resolvers: Vec<(Resolver<'a>, u64)>,
    range_resolvers: Vec<(Resolver<'a>, u64, u64)>,
    groups: HashMap<Vec<u64>, AggState>,
    accepted: u64,
}

/// Source column index plus the hierarchy chain that maps it to a query
/// attribute.
type Resolver<'a> = (usize, Vec<&'a Hierarchy>);

impl<'a> RollupAggregator<'a> {
    /// Creates an aggregator for `query` over rows whose key columns are
    /// `source_attrs`.
    ///
    /// # Errors
    /// [`CtError::Unsupported`] if a query attribute is not derivable from
    /// `source_attrs`.
    pub fn new(
        catalog: &'a Catalog,
        source_attrs: &[AttrId],
        query: &SliceQuery,
    ) -> Result<Self> {
        let resolve = |target: AttrId| -> Result<(usize, Vec<&'a Hierarchy>)> {
            let (src, path) = catalog.derivation_path(source_attrs, target).ok_or_else(|| {
                CtError::unsupported(format!(
                    "query attribute {} not derivable from the chosen view",
                    catalog.attr(target).name
                ))
            })?;
            let col = source_attrs.iter().position(|&a| a == src).ok_or_else(|| {
                CtError::invalid(format!(
                    "derivation source {} is not a column of the chosen view",
                    catalog.attr(src).name
                ))
            })?;
            Ok((col, path))
        };
        let group_resolvers =
            query.group_by.iter().map(|&a| resolve(a)).collect::<Result<Vec<_>>>()?;
        let pred_resolvers = query
            .predicates
            .iter()
            .map(|&(a, v)| Ok((resolve(a)?, v)))
            .collect::<Result<Vec<_>>>()?;
        let range_resolvers = query
            .ranges
            .iter()
            .map(|&(a, lo, hi)| Ok((resolve(a)?, lo, hi)))
            .collect::<Result<Vec<_>>>()?;
        Ok(RollupAggregator {
            group_resolvers,
            pred_resolvers,
            range_resolvers,
            groups: HashMap::new(),
            accepted: 0,
        })
    }

    /// Offers one source row; rows failing a predicate are skipped.
    pub fn accept(&mut self, key: &[u64], state: &AggState) {
        for ((col, path), want) in &self.pred_resolvers {
            let mut v = key[*col];
            for h in path {
                v = h.apply(v);
            }
            if v != *want {
                return;
            }
        }
        for ((col, path), lo, hi) in &self.range_resolvers {
            let mut v = key[*col];
            for h in path {
                v = h.apply(v);
            }
            if v < *lo || v > *hi {
                return;
            }
        }
        let mut group = Vec::with_capacity(self.group_resolvers.len());
        for (col, path) in &self.group_resolvers {
            let mut v = key[*col];
            for h in path {
                v = h.apply(v);
            }
            group.push(v);
        }
        self.accepted += 1;
        self.groups.entry(group).or_insert_with(AggState::identity).merge(state);
    }

    /// Rows that passed the predicates.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// The `(source column, lo, hi)` range every accepted row's key lies in,
    /// for each equality or range predicate placed *directly* on a source
    /// column (no hierarchy step between the column and the predicate's
    /// attribute). An indexed source may use them to offer fewer rows.
    pub fn direct_bounds(&self) -> Vec<(usize, u64, u64)> {
        let direct = |(col, path): &Resolver<'_>, lo: u64, hi: u64| {
            path.is_empty().then_some((*col, lo, hi))
        };
        let equalities = self.pred_resolvers.iter().filter_map(|(r, v)| direct(r, *v, *v));
        let ranges = self.range_resolvers.iter().filter_map(|(r, lo, hi)| direct(r, *lo, *hi));
        equalities.chain(ranges).collect()
    }

    /// Merges another aggregator's groups into this one. Both must have
    /// been created for the *same query* (their group keys are then in the
    /// same `group_by` order); the sources may differ — this is how a tree
    /// scan absorbs the resident delta tier's aggregate states.
    pub fn absorb(&mut self, other: RollupAggregator<'_>) {
        self.accepted += other.accepted;
        for (key, state) in other.groups {
            self.groups.entry(key).or_insert_with(AggState::identity).merge(&state);
        }
    }

    /// Finalizes the groups under aggregate `f`. For deletion-safe
    /// aggregates, groups whose count reached zero were annihilated by
    /// retractions and are omitted (the group no longer exists).
    pub fn finish(self, f: AggFn) -> Vec<QueryRow> {
        self.groups
            .into_iter()
            .filter(|(_, state)| !(f.deletion_safe() && state.is_annihilated()))
            .map(|(key, state)| QueryRow { key, agg: state.finalize(f) })
            .collect()
    }
}

/// A planned access path into the forest.
#[derive(Clone, Debug)]
pub struct ForestPlan {
    /// Index into [`Generation::placements`].
    pub placement: usize,
    /// Expected matching tuples (the paper's cost unit).
    pub est_tuples: f64,
    /// Length of the physical-sort-order prefix covered by predicates.
    pub sort_prefix: usize,
}

/// Chooses the cheapest placement able to answer `q` within one pinned
/// generation (entry counts, and therefore cost estimates, are
/// per-generation state).
///
/// # Errors
/// [`CtError::Unsupported`] if no placement derives the query's node.
pub fn plan_generation_query(
    gen: &Generation,
    catalog: &Catalog,
    q: &SliceQuery,
) -> Result<ForestPlan> {
    plan_query_with_entries(gen.placements(), |id| gen.entries_of(id), catalog, q)
}

/// The planner core, over an explicit entry-count source. The read path
/// plans each query *once* against the entry counts summed over every
/// source it gathers from, then executes the chosen placement on all of
/// them: views carry their own aggregate functions, so gathered partials
/// must all come from one placement to be coherent.
///
/// # Errors
/// [`CtError::Unsupported`] if no placement derives the query's node.
pub fn plan_query_with_entries(
    placements: &[PlacedView],
    entries_of: impl Fn(ViewId) -> u64,
    catalog: &Catalog,
    q: &SliceQuery,
) -> Result<ForestPlan> {
    let node = q.node();
    let mut best: Option<ForestPlan> = None;
    for (i, p) in placements.iter().enumerate() {
        if !catalog.derivable_from(&node, &p.def.projection) {
            continue;
        }
        let entries = entries_of(p.def.id) as f64;
        // Selectivity from predicates on attributes the view stores
        // directly; a bounded range contributes its span fraction.
        let mut selectivity = 1.0f64;
        for a in &p.def.projection {
            if let Some((lo, hi)) = q.range_of(*a) {
                let card = catalog.attr(*a).cardinality.max(1) as f64;
                let span = (hi.saturating_sub(lo) + 1) as f64;
                selectivity *= (card / span).max(1.0);
            }
        }
        let est_tuples = (entries / selectivity).max(1.0);
        // Physical sort order is the reversed projection (§2.3): count how
        // many of its leading attributes the query pins; a bounded range
        // keeps the run contiguous but ends the prefix.
        let mut sort_prefix = 0usize;
        for a in p.def.projection.iter().rev() {
            match q.range_of(*a) {
                Some((lo, hi)) if lo == hi => sort_prefix += 1,
                Some(_) => {
                    sort_prefix += 1;
                    break;
                }
                None => break,
            }
        }
        let candidate = ForestPlan { placement: i, est_tuples, sort_prefix };
        let better = match &best {
            None => true,
            Some(b) => {
                (candidate.est_tuples, std::cmp::Reverse(candidate.sort_prefix))
                    < (b.est_tuples, std::cmp::Reverse(b.sort_prefix))
            }
        };
        if better {
            best = Some(candidate);
        }
    }
    best.ok_or_else(|| {
        CtError::unsupported("no materialized view can answer this query".to_string())
    })
}

/// The search region of `q` over a placement with definition `def` in a
/// `dims`-dimensional tree: direct predicates pin their axis, open
/// attributes span `[1, COORD_MAX]`, padding axes pin to 0 (paper Figure 4).
fn query_region(def: &ViewDef, dims: usize, q: &SliceQuery) -> Rect {
    let arity = def.arity();
    let mut lo = vec![0u64; dims];
    let mut hi = vec![0u64; dims];
    for (axis, attr) in def.projection.iter().enumerate() {
        match q.range_of(*attr) {
            Some((l, h)) => {
                lo[axis] = l.max(1);
                hi[axis] = h.min(COORD_MAX);
            }
            None => {
                lo[axis] = 1;
                hi[axis] = COORD_MAX;
            }
        }
    }
    for axis in arity..dims {
        lo[axis] = 0;
        hi[axis] = 0;
    }
    Rect::new(&lo, &hi)
}

/// Folds the resident delta snapshot into a fresh aggregator for `q`, and
/// returns it with the number of rows the snapshot offered. The delta rows
/// are keyed by the hierarchy root of every materialized attribute, so any
/// query answerable from a materialized view is answerable from them too.
/// The snapshot offers only the rows `q`'s direct predicates select (see
/// [`DeltaSnapshot::scan`]); the aggregator re-applies every predicate and
/// the hierarchy rollups, and the result absorbs into a tree-scan
/// aggregator for the same query.
fn delta_aggregator<'a>(
    delta: &DeltaSnapshot,
    catalog: &'a Catalog,
    q: &SliceQuery,
) -> Result<(RollupAggregator<'a>, u64)> {
    let mut agg = RollupAggregator::new(catalog, delta.attrs(), q)?;
    let scanned = delta.scan(&agg.direct_bounds(), |key, state| agg.accept(key, state));
    Ok((agg, scanned))
}

/// One place a batch reads from: a pinned generation, the resident-delta
/// snapshot taken with it (see [`crate::forest::CubetreeForest::pin_with_delta`];
/// `None` or empty merges nothing), and the environment charged for the page
/// reads. A Cubetree engine reads from one source; every source of a batch
/// materializes the same placements.
#[derive(Clone, Copy)]
pub(crate) struct QuerySource<'a> {
    pub gen: &'a Generation,
    pub delta: Option<&'a DeltaSnapshot>,
    pub env: &'a StorageEnv,
}

/// One executed query's *unfinalized* aggregate groups: the unit the read
/// path gathers. Partial answers for the same query from different sources
/// merge with [`PartialAnswer::absorb`]; [`PartialAnswer::finish`] is then
/// called exactly once, so AVG finalization and retraction annihilation
/// happen after every source has contributed. Because
/// [`ct_common::AggState::merge`] is associative and commutative over
/// integers, the finalized rows are bit-identical however the sources were
/// partitioned.
pub struct PartialAnswer<'a> {
    agg: RollupAggregator<'a>,
    agg_fn: AggFn,
}

impl<'a> PartialAnswer<'a> {
    /// Merges another source's partial answer for the *same query*.
    pub fn absorb(&mut self, other: PartialAnswer<'_>) {
        debug_assert_eq!(
            self.agg_fn, other.agg_fn,
            "partial answers for one query must share an aggregate function"
        );
        self.agg.absorb(other.agg);
    }

    /// Finalizes the gathered groups (AVG division, annihilated-group
    /// filtering) into result rows. Call once, after every absorb.
    pub fn finish(self) -> Vec<QueryRow> {
        self.agg.finish(self.agg_fn)
    }
}

/// Executes one planned query against one source: one in-order leaf pass
/// over the query's region of the planned placement, then the resident
/// delta rows for `q`, under its own root "query" phase (successive queries
/// accumulate under one span whose I/O delta reconciles against the global
/// counters). `env` is charged the CPU tuple cost of the entries the search
/// touches; delta rows are in-memory and charge no page I/O.
pub fn execute_planned_query_partial<'a>(
    gen: &Generation,
    delta: Option<&DeltaSnapshot>,
    env: &StorageEnv,
    catalog: &'a Catalog,
    q: &SliceQuery,
    plan: &ForestPlan,
) -> Result<PartialAnswer<'a>> {
    let _phase = env.phase("query");
    let placement = &gen.placements()[plan.placement];
    let tree = gen.tree(placement.tree);
    let region = query_region(&placement.def, tree.dims(), q);
    let arity = placement.def.arity();
    let want = placement.def.id.0;
    let mut agg = RollupAggregator::new(catalog, &placement.def.projection, q)?;
    let mut touched = 0u64;
    tree.search(&region, |view, point, state| {
        touched += 1;
        if view == want {
            agg.accept(&point.coords()[..arity], state);
        }
        true
    })?;
    env.stats().add_tuples(touched);
    let recorder = env.recorder();
    if recorder.is_enabled() {
        recorder.observe("core.query.touched_entries", touched);
        recorder.add(&format!("core.query.by_view.v{want}"), 1);
    }
    if let Some(d) = delta.and_then(DeltaSnapshot::as_option) {
        let (folded, scanned) = delta_aggregator(d, catalog, q)?;
        agg.absorb(folded);
        if recorder.is_enabled() {
            recorder.add("core.query.delta_merged", 1);
            recorder.observe("core.query.delta_rows", d.groups());
            recorder.observe("core.query.delta_rows_scanned", scanned);
        }
    }
    Ok(PartialAnswer { agg, agg_fn: placement.def.agg })
}

/// The read path, whole: plan → execute to [`PartialAnswer`]s per source →
/// gather → finish. "No delta" and "a batch of one" are inputs here, not
/// code paths of their own; one outcome comes back per query, positionally
/// aligned.
///
/// Every query is planned once, against entry counts summed over all
/// sources (see [`plan_query_with_entries`]); a query no view can answer
/// fails alone. Queries then run in arrival order on the caller's thread,
/// each as one in-order scan per source, in source order; the partials
/// merge before one `finish`. An execution error fails the whole batch.
pub(crate) fn execute_queries(
    sources: &[QuerySource<'_>],
    catalog: &Catalog,
    queries: &[SliceQuery],
) -> Result<Vec<Result<Vec<QueryRow>>>> {
    let (first, rest) =
        sources.split_first().ok_or_else(|| CtError::invalid("a batch needs a source"))?;
    let entries_of = |id| sources.iter().map(|s| s.gen.entries_of(id)).sum();
    let mut results = Vec::with_capacity(queries.len());
    for q in queries {
        let plan = match plan_query_with_entries(first.gen.placements(), entries_of, catalog, q) {
            Ok(plan) => plan,
            Err(e) => {
                results.push(Err(e));
                continue;
            }
        };
        let run = |s: &QuerySource<'_>| {
            execute_planned_query_partial(s.gen, s.delta, s.env, catalog, q, &plan)
        };
        let mut gathered = run(first)?;
        for source in rest {
            gathered.absorb(run(source)?);
        }
        results.push(Ok(gathered.finish()));
    }
    Ok(results)
}

/// Plans and executes one query against one pinned generation, merging the
/// tree scan with a resident-delta snapshot taken under the same generation
/// lock: the engines' read path over one source and a batch of one. The
/// snapshot's trees and files stay readable even if an update commits
/// meanwhile.
pub fn execute_query_with_delta(
    gen: &Generation,
    delta: Option<&DeltaSnapshot>,
    env: &StorageEnv,
    catalog: &Catalog,
    q: &SliceQuery,
) -> Result<Vec<QueryRow>> {
    let source = QuerySource { gen, delta, env };
    let mut results = execute_queries(&[source], catalog, std::slice::from_ref(q))?;
    results.pop().unwrap_or_else(|| Err(CtError::invalid("batch of one left no answer")))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::forest::CubetreeForest;
    use ct_common::ViewDef;
    use ct_cube::Relation;
    use ct_rtree::LeafFormat;
    use ct_storage::StorageEnv;

    /// Small warehouse: 3 fact attrs, views {psc, ps, c, none} + replicas.
    fn setup() -> (StorageEnv, Catalog, CubetreeForest, [AttrId; 3]) {
        let env = StorageEnv::new("forest-query").unwrap();
        let mut cat = Catalog::new();
        let p = cat.add_attr("partkey", 8);
        let s = cat.add_attr("suppkey", 4);
        let c = cat.add_attr("custkey", 6);
        let mut keys = Vec::new();
        let mut measures = Vec::new();
        let mut x = 99u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            keys.extend_from_slice(&[x % 8 + 1, (x >> 13) % 4 + 1, (x >> 27) % 6 + 1]);
            measures.push(((x >> 40) % 20) as i64 + 1);
        }
        let fact = Relation::from_fact(vec![p, s, c], keys, &measures);
        let views = vec![
            ViewDef::new(0, vec![p, s, c], ct_common::AggFn::Sum),
            ViewDef::new(1, vec![p, s], ct_common::AggFn::Sum),
            ViewDef::new(2, vec![c], ct_common::AggFn::Sum),
            ViewDef::new(3, vec![], ct_common::AggFn::Sum),
        ];
        let replicas = vec![
            (ct_common::ViewId(0), vec![s, c, p]),
            (ct_common::ViewId(0), vec![c, p, s]),
        ];
        let forest = CubetreeForest::build(
            &env,
            &cat,
            &fact,
            &views,
            &replicas,
            LeafFormat::Compressed,
        )
        .unwrap();
        (env, cat, forest, [p, s, c])
    }

    /// Brute-force reference answer straight from the fact relation.
    fn reference(
        fact: &Relation,
        q: &SliceQuery,
    ) -> Vec<QueryRow> {
        let mut groups: HashMap<Vec<u64>, AggState> = HashMap::new();
        'rows: for i in 0..fact.len() {
            let key = fact.key(i);
            for (a, v) in &q.predicates {
                let col = fact.col_of(*a).unwrap();
                if key[col] != *v {
                    continue 'rows;
                }
            }
            let g: Vec<u64> =
                q.group_by.iter().map(|a| key[fact.col_of(*a).unwrap()]).collect();
            groups.entry(g).or_insert_with(AggState::identity).merge(&fact.states[i]);
        }
        let mut rows: Vec<QueryRow> = groups
            .into_iter()
            .map(|(key, st)| QueryRow { key, agg: st.finalize(AggFn::Sum) })
            .collect();
        rows.sort_by(|a, b| a.key.cmp(&b.key));
        rows
    }

    fn fact_of(env: &StorageEnv) -> Relation {
        // Regenerate the same fact data the setup used.
        let _ = env;
        let mut keys = Vec::new();
        let mut measures = Vec::new();
        let mut x = 99u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            keys.extend_from_slice(&[x % 8 + 1, (x >> 13) % 4 + 1, (x >> 27) % 6 + 1]);
            measures.push(((x >> 40) % 20) as i64 + 1);
        }
        Relation::from_fact(vec![AttrId(0), AttrId(1), AttrId(2)], keys, &measures)
    }

    #[test]
    fn exact_view_slice_matches_reference() {
        let (env, cat, forest, [p, s, _]) = setup();
        let fact = fact_of(&env);
        let q = SliceQuery::new(vec![s], vec![(p, 3)]);
        let mut got = execute_query_with_delta(&forest.pin(), None, &env, &cat, &q).unwrap();
        got.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(got, reference(&fact, &q));
    }

    #[test]
    fn unmaterialized_node_answered_by_rollup() {
        let (env, cat, forest, [p, s, c]) = setup();
        let fact = fact_of(&env);
        // Node {p, c} is not materialized; must roll up from psc (a replica).
        let q = SliceQuery::new(vec![p], vec![(c, 2)]);
        let mut got = execute_query_with_delta(&forest.pin(), None, &env, &cat, &q).unwrap();
        got.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(got, reference(&fact, &q));
        let _ = s;
    }

    #[test]
    fn planner_prefers_replica_with_matching_sort_order() {
        let (_env, cat, forest, [p, s, c]) = setup();
        // Slice on partkey: the replica with projection (s,c,p) sorts by
        // (p,c,s), so partkey is its leading sort attribute.
        let q = SliceQuery::new(vec![s, c], vec![(p, 1)]);
        let plan = plan_generation_query(&forest.pin(), &cat, &q).unwrap();
        let chosen = &forest.placements()[plan.placement].def;
        assert_eq!(
            *chosen.projection.last().unwrap(),
            p,
            "expected a placement whose last (leading-sort) attribute is partkey, got {:?}",
            chosen.projection
        );
        assert_eq!(plan.sort_prefix, 1);
    }

    #[test]
    fn planner_prefers_small_exact_view() {
        let (_env, cat, forest, [_, _, c]) = setup();
        let q = SliceQuery::new(vec![], vec![(c, 4)]);
        let plan = plan_generation_query(&forest.pin(), &cat, &q).unwrap();
        let chosen = &forest.placements()[plan.placement].def;
        assert_eq!(chosen.projection, vec![c], "V{{c}} is the cheapest source");
    }

    #[test]
    fn none_view_scalar_query() {
        let (env, cat, forest, _) = setup();
        let fact = fact_of(&env);
        let q = SliceQuery::new(vec![], vec![]);
        let got = execute_query_with_delta(&forest.pin(), None, &env, &cat, &q).unwrap();
        assert_eq!(got.len(), 1);
        let expect: i64 = fact.states.iter().map(|s| s.sum).sum();
        assert_eq!(got[0].agg, expect as f64);
        // And the planner must have used the 1-row none view.
        let plan = plan_generation_query(&forest.pin(), &cat, &q).unwrap();
        assert!(forest.placements()[plan.placement].def.projection.is_empty());
    }

    #[test]
    fn every_slice_type_matches_reference() {
        let (env, cat, forest, attrs) = setup();
        let fact = fact_of(&env);
        // All 27 slice types of the 3-attr lattice, with fixed values 1..2.
        for node_mask in 0..8usize {
            let node: Vec<AttrId> =
                (0..3).filter(|i| node_mask & (1 << i) != 0).map(|i| attrs[i]).collect();
            for fix_mask in 0..(1 << node.len()) {
                let mut group_by = Vec::new();
                let mut predicates = Vec::new();
                for (j, &a) in node.iter().enumerate() {
                    if fix_mask & (1 << j) != 0 {
                        predicates.push((a, (j as u64 % 2) + 1));
                    } else {
                        group_by.push(a);
                    }
                }
                let q = SliceQuery::new(group_by, predicates);
                let mut got = execute_query_with_delta(&forest.pin(), None, &env, &cat, &q).unwrap();
                got.sort_by(|a, b| a.key.cmp(&b.key));
                assert_eq!(got, reference(&fact, &q), "query {:?}", q.display(&cat));
            }
        }
    }

    #[test]
    fn update_then_query_reflects_delta() {
        let (env, cat, forest, [p, s, c]) = setup();
        let fact = fact_of(&env);
        // Delta: 50 rows over the same key space.
        let mut keys = Vec::new();
        let mut measures = Vec::new();
        let mut x = 12345u64;
        for _ in 0..50 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            keys.extend_from_slice(&[x % 8 + 1, (x >> 17) % 4 + 1, (x >> 29) % 6 + 1]);
            measures.push(((x >> 45) % 9) as i64 + 1);
        }
        let delta = Relation::from_fact(vec![p, s, c], keys.clone(), &measures);
        forest.update(&env, &cat, &delta).unwrap();
        // Reference over fact ∪ delta.
        let mut combined_keys = fact.keys.clone();
        combined_keys.extend_from_slice(&keys);
        let mut combined_measures: Vec<i64> = fact.states.iter().map(|st| st.sum).collect();
        combined_measures.extend_from_slice(&measures);
        let combined = Relation::from_fact(vec![p, s, c], combined_keys, &combined_measures);
        for q in [
            SliceQuery::new(vec![s], vec![(p, 1)]),
            SliceQuery::new(vec![], vec![]),
            SliceQuery::new(vec![p], vec![(c, 3)]),
            SliceQuery::new(vec![], vec![(c, 5)]),
        ] {
            let mut got = execute_query_with_delta(&forest.pin(), None, &env, &cat, &q).unwrap();
            got.sort_by(|a, b| a.key.cmp(&b.key));
            assert_eq!(got, reference(&combined, &q), "query {:?}", q.display(&cat));
        }
    }

    #[test]
    fn underivable_query_is_rejected() {
        let (_env, mut cat, forest, _) = setup();
        let alien = cat.add_attr("alien", 5);
        let q = SliceQuery::new(vec![alien], vec![]);
        assert!(plan_generation_query(&forest.pin(), &cat, &q).is_err());
    }
}
