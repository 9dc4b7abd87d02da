//! # ct-storage — paged storage substrate
//!
//! The storage layer both the conventional baseline and the Cubetrees build
//! on. It provides:
//!
//! * [`page`] — the fixed 8 KiB page with little-endian codec helpers.
//! * [`pager`] — file-backed page I/O that classifies every access as
//!   *sequential* or *random*, feeding the paper's cost argument (§3.2/§3.4:
//!   Cubetrees win because packing and merge-packing do only sequential
//!   writes, while relational updates do random I/O).
//! * [`io`] — shared atomic I/O counters and snapshots.
//! * [`buffer`] — a small LRU buffer pool (the paper's testbed had 32 MB of
//!   RAM; the buffer-hit-ratio argument of §2.4 depends on it).
//! * [`env`](mod@env) — a storage environment tying a temp directory, the pool and
//!   the counters together.
//! * [`sort`] — external merge sort over fixed-width records, used to compute
//!   views (\[AAD+96\]-style sort-based cube computation) and to prepare the
//!   sorted streams the R-tree packer consumes.
//! * [`manifest`] — the checksummed `MANIFEST` file naming each component's
//!   live file, committed atomically (write-temp → fsync → rename) so
//!   build-then-swap updates survive crashes; recovery-on-open verifies
//!   content checksums and deletes orphans.
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]): fail the Nth
//!   page write, fail by path match, or crash at a named point, so the crash
//!   window of every update can be exercised in tests.
//!
//! Observability: [`StorageEnv::new`] uses a disabled `ct_obs` recorder
//! (zero cost); build the environment with an enabled one to attribute page
//! I/O and wall time to phases ([`env::Phase`]) and to light up the
//! buffer/sorter counters documented in `OBSERVABILITY.md`.

// I/O error paths must propagate, not panic; test code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod buffer;
pub mod env;
pub mod fault;
pub mod io;
pub mod manifest;
pub mod page;
pub mod pager;
pub mod sort;

pub use buffer::BufferPool;
pub use env::{Parallelism, Phase, StorageEnv, TempDir};
pub use fault::FaultPlan;
pub use io::{IoSnapshot, IoStats};
pub use manifest::{Manifest, ManifestEntry, Recovery};
pub use page::{Page, PageId, PAGE_SIZE};
pub use pager::{DiskFile, FileId};
pub use sort::ExternalSorter;
