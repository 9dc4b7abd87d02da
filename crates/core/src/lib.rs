//! # cubetree — an alternative storage organization for ROLAP aggregate views
//!
//! A from-scratch reproduction of **Kotidis & Roussopoulos, "An Alternative
//! Storage Organization for ROLAP Aggregate Views Based on Cubetrees"
//! (SIGMOD 1998)**.
//!
//! A *Cubetree* organization stores a set of materialized ROLAP aggregate
//! views in a forest of packed, compressed R-trees instead of relational
//! tables plus B-trees. Storage and indexing collapse into one structure;
//! every view occupies a distinct contiguous run of leaves; refreshes are
//! sequential merge-packs instead of row-at-a-time index maintenance.
//!
//! The crate provides:
//!
//! * [`select_mapping()`](select_mapping::select_mapping) — the paper's Figure 5 algorithm assigning an
//!   arbitrary view set to a minimal Cubetree forest (no tree holds two
//!   views of the same arity);
//! * [`forest`] — building a [`forest::CubetreeForest`] from a fact relation
//!   (compute views by a sort-counting plan → pack), including the
//!   multi-sort-order *replica* feature of §3;
//! * [`query`] — slice-query planning and execution over the forest;
//! * [`engine`] — two complete [`engine::RolapEngine`]s over the same
//!   substrate: [`engine::CubetreeEngine`] (the paper's proposal) and
//!   [`engine::ConventionalEngine`] (heap tables + B-trees, the paper's
//!   baseline), so every experiment can run both configurations.
//!
//! ## Quick start
//!
//! ```
//! use ct_common::{AggFn, Catalog, SliceQuery, ViewDef};
//! use ct_cube::Relation;
//! use cubetree::engine::{CubetreeConfig, CubetreeEngine, RolapEngine};
//!
//! // A two-dimensional warehouse with one materialized view.
//! let mut catalog = Catalog::new();
//! let part = catalog.add_attr("partkey", 100);
//! let supp = catalog.add_attr("suppkey", 10);
//! let fact = Relation::from_fact(
//!     vec![part, supp],
//!     vec![1, 1, 2, 1, 1, 2, 2, 2],
//!     &[10, 20, 5, 7],
//! );
//! let views = vec![ViewDef::new(0, vec![part, supp], AggFn::Sum)];
//! let mut engine =
//!     CubetreeEngine::new(catalog, CubetreeConfig::new(views)).unwrap();
//! engine.load(&fact).unwrap();
//! let rows = engine
//!     .query(&SliceQuery::new(vec![supp], vec![(part, 1)]))
//!     .unwrap();
//! assert_eq!(rows.len(), 2); // part 1 sold by suppliers 1 and 2
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod delta;
pub mod engine;
pub mod forest;
mod jobs;
pub mod query;
pub mod select_mapping;
pub mod views;

pub use delta::{DeltaConfig, DeltaSnapshot, DeltaStats, DeltaTier};
pub use engine::{
    ConventionalConfig, ConventionalEngine, CubetreeConfig, CubetreeEngine, RolapEngine,
    ServedAnswer, ServingEngine, ViewInfo,
};
pub use forest::{AnswerStamp, CubetreeForest, Generation, ReaderPin};
pub use select_mapping::{select_mapping, MappingPlan, TreeSpec};
