//! # ct-cube — Data Cube machinery
//!
//! Everything between the raw fact table and the physical storage of the
//! materialized views:
//!
//! * [`relation`] — the in-memory columnar form of a (partial) aggregate
//!   view, with mergeable aggregate states.
//! * [`lattice`] — the Data Cube lattice (\[HRU96\], paper Figure 9) and the
//!   *derives-from* relation ([MQM97, GHRU97], paper Figure 10).
//! * [`compute`] — sort-based view computation in the style of \[AAD+96\]: a
//!   view is computed by translating, sorting (externally when large) and
//!   aggregating a *parent* relation, not necessarily the fact table — or,
//!   when the parent is already sorted on the view's order, by one linear
//!   pass.
//! * [`plan`] — the sort-counting computation plan over a requested view
//!   set: each view is a linear pass over a relation whose sort order holds
//!   it, or a sort from its smallest parent (paper Figure 10).
//! * [`estimate`] — view-size estimation (Cardenas' formula with correlation
//!   overrides) for the selection algorithm.
//! * [`greedy`] — the 1-greedy view **and** index selection of \[GHRU97\] that
//!   the paper uses to pick its materialized set (paper §3: `V = {psc, ps,
//!   c, s, p, none}`, `I = {Icsp, Ipcs, Ispc}`).

pub mod compute;
pub mod estimate;
pub mod greedy;
pub mod lattice;
pub mod plan;
pub mod relation;

pub use compute::{compute_view, compute_view_linear};
pub use estimate::SizeEstimator;
pub use greedy::{one_greedy, GreedyConfig, GreedyResult, Structure};
pub use lattice::Lattice;
pub use plan::{plan_computation, ComputePlan, PlanSource, PlanStep, PlanTarget, StepKind};
pub use relation::Relation;
