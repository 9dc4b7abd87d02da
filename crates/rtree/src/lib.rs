//! # ct-rtree — packed, compressed R-trees
//!
//! The storage structure at the heart of the paper: a Cubetree is "a
//! collection of packed and compressed R-trees" used as the *primary*
//! storage organization for ROLAP aggregate views (one R-tree of this crate
//! per member of the collection; the forest logic lives in the `cubetree`
//! crate).
//!
//! The distinguishing properties, all implemented here:
//!
//! * **Packed bulk load** (\[RL85\]): leaves are filled to capacity from a
//!   stream sorted in the paper's `x_d, …, x_1` order and written strictly
//!   sequentially; upper levels are built bottom-up. No inserts, no splits,
//!   no dead space.
//! * **View-contiguous leaves** (§2.4): every materialized view occupies "a
//!   distinct continuous string of leaf-nodes"; a leaf never mixes views.
//! * **Compression** (§2.4): because a leaf belongs to exactly one view, the
//!   padding zero coordinates are never stored ("about 90% of the pages of
//!   every index correspond to compressed leaf nodes"). The default leaf
//!   ([`LeafFormat::Compressed`]) also bit-packs each column as offsets from
//!   its per-leaf minimum: 6–7× smaller again and still random-access, so a
//!   search works on the packed columns and decodes only what it returns.
//!   The paper's format and a raw one stay writable for the experiments.
//! * **Merge-pack incremental update** (\[RKR97\], §3.4): an update merges the
//!   always-sorted old tree with a sorted delta stream into a freshly packed
//!   tree, in linear time and with only sequential writes.
//! * **Slice-query search** (Figure 4): standard R-tree region search; a
//!   view's slice becomes a rectangle with its padding coordinates pinned to
//!   zero, so views never produce false positives against each other.

// I/O error paths must propagate, not panic; test code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod build;
pub mod merge;
pub mod node;
pub mod tree;

pub use build::{morton_cmp, LeafFormat, PackOrder, TreeBuilder};
pub use merge::{merge_pack, write_tree, EntryStream, IterStream, VecStream};
pub use node::ViewInfo;
pub use tree::{PackedRTree, TreeScanner, TreeStats};
