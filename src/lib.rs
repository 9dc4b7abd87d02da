//! # cubetrees-repro — umbrella crate
//!
//! Reproduction of *Kotidis & Roussopoulos, "An Alternative Storage
//! Organization for ROLAP Aggregate Views Based on Cubetrees" (SIGMOD
//! 1998)*. This crate re-exports the whole workspace so examples,
//! integration tests and downstream users can depend on one crate.
//!
//! Layer map (bottom-up):
//!
//! | crate | role |
//! |---|---|
//! | [`obs`] | metrics registry, histograms, hierarchical phase spans |
//! | [`common`] | points, rectangles, aggregates, schemas, queries, cost model |
//! | [`storage`] | pages, pager with seq/rand I/O accounting, buffer pool, external sort |
//! | [`btree`] | B+-trees (conventional baseline indexing) |
//! | [`heap`] | heap tables (conventional baseline storage) |
//! | [`rtree`] | packed, compressed R-trees with merge-pack |
//! | [`cube`] | lattice, sort-based cube computation, 1-greedy selection |
//! | [`tpcd`] | TPC-D-like generator (DBGEN substitute) |
//! | [`core`] | SelectMapping, the Cubetree forest, both engines |
//! | [`workload`] | random slice queries, batch runner, the paper's §3 setup |
//! | [`server`] | HTTP/1.1 serving layer: admission control, answer cache, refresh-while-serving |

pub use ct_btree as btree;
pub use ct_common as common;
pub use ct_cube as cube;
pub use ct_heap as heap;
pub use ct_obs as obs;
pub use ct_rtree as rtree;
pub use ct_server as server;
pub use ct_storage as storage;
pub use ct_tpcd as tpcd;
pub use ct_workload as workload;
pub use cubetree as core;

pub use ct_common::{AggFn, Catalog, SliceQuery, ViewDef, ViewId};
pub use ct_cube::Relation;
pub use ct_tpcd::{TpcdConfig, TpcdWarehouse};
pub use cubetree::engine::{
    ConventionalConfig, ConventionalEngine, CubetreeConfig, CubetreeEngine, RolapEngine,
};
