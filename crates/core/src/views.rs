//! Computing a set of views from one source relation by one plan.
//!
//! Load, refresh and compaction all turn a fact relation (the base data or
//! an increment) into one relation per materialized view, each sorted in the
//! order its structure stores it. [`compute_views`] plans that with
//! [`ct_cube::plan_computation`], which counts sorts: a view whose sort order
//! is a prefix of an already computed relation's comes out of one linear
//! pass, every other view is sorted from its smallest computed parent or the
//! fact. Under the paper's §3 set-up that is three sorts — the top view and
//! its two replicas — for eight Cubetree placements.
//!
//! Steps run in waves: every step whose source is ready runs as one job on
//! the crate's scoped worker pool, under the environment's thread budget, so
//! the replicas' sorts run side by side once the top view is in. A sort
//! never starts a thread of its own. Each sort writes and reads only its own run
//! files, strictly sequentially, and the I/O counters aggregate atomically,
//! so the relations *and* the simulated-I/O totals are the same for every
//! thread budget.

use crate::jobs::map_jobs;
use ct_common::{Catalog, CtError, Result, ViewDef};
use ct_cube::{
    compute_view, compute_view_linear, plan_computation, ComputePlan, PlanSource, PlanTarget,
    Relation, SizeEstimator, StepKind,
};
use ct_storage::StorageEnv;

/// Plans the computation of `views` from `source`, each sorted by
/// `sort_cols(arity)`, with sizes estimated for `source`'s row count.
///
/// # Errors
/// See [`plan_computation`].
pub fn plan_views(
    catalog: &Catalog,
    source: &Relation,
    views: &[ViewDef],
    sort_cols: fn(usize) -> Vec<usize>,
) -> Result<ComputePlan> {
    let estimator = SizeEstimator::new(catalog, source.len() as u64);
    let targets: Vec<PlanTarget> = views
        .iter()
        .map(|v| PlanTarget {
            attrs: v.projection.clone(),
            sort_cols: sort_cols(v.arity()),
            size: estimator.estimate(&v.projection),
        })
        .collect();
    plan_computation(catalog, &source.attrs, source.len() as u64, &targets)
}

/// Computes every view of `views` from `source` by [`plan_views`]' plan and
/// returns the relations in `views` order, each sorted by
/// `sort_cols(arity)`.
///
/// # Errors
/// Planning errors, and any error of a sort or linear pass.
pub fn compute_views(
    env: &StorageEnv,
    catalog: &Catalog,
    source: &Relation,
    views: &[ViewDef],
    sort_cols: fn(usize) -> Vec<usize>,
) -> Result<Vec<Relation>> {
    let plan = plan_views(catalog, source, views, sort_cols)?;
    let mut done: Vec<Option<Relation>> = (0..views.len()).map(|_| None).collect();
    let mut pending = plan.steps;
    while !pending.is_empty() {
        let (ready, rest): (Vec<_>, Vec<_>) = pending.into_iter().partition(|st| match st.source {
            PlanSource::Fact => true,
            PlanSource::View(j) => done[j].is_some(),
        });
        if ready.is_empty() {
            return Err(CtError::invalid("computation plan reads a view it never computes"));
        }
        let outputs = map_jobs(env.parallelism().threads, ready.len(), |k| {
            let step = ready[k];
            let view = &views[step.target];
            let src = match step.source {
                PlanSource::Fact => source,
                PlanSource::View(j) => {
                    done[j].as_ref().ok_or_else(|| CtError::invalid("unready source"))?
                }
            };
            let sort = sort_cols(view.arity());
            match step.kind {
                StepKind::Sort => compute_view(env, catalog, src, &view.projection, &sort),
                StepKind::Linear => compute_view_linear(env, src, &view.projection, &sort),
            }
        })?;
        for (step, rel) in ready.iter().zip(outputs) {
            done[step.target] = Some(rel);
        }
        pending = rest;
    }
    done.into_iter()
        .map(|rel| rel.ok_or_else(|| CtError::invalid("computation plan skipped a view")))
        .collect()
}
