//! # ct-workload — the paper's query workload and measurement harness
//!
//! * [`genq`] — the random slice-query generator of §3.3: uniform over the
//!   lattice views and over each view's query types, excluding no-predicate
//!   queries ("these queries generate a very large output, which dilutes the
//!   actual retrieval cost");
//! * [`runner`] — batch execution with wall-clock *and* simulated-time
//!   accounting, per-window throughput (Figure 13 reports min/max system
//!   throughput), and result checksums so both engines can be verified to
//!   return identical answers;
//! * [`paper`] — the exact configurations of the paper's §3 experiment: the
//!   selected view set `V`, index set `I` for the conventional engine, and
//!   the two extra sort-order replicas of the top view for the Cubetrees;
//! * [`serving`] — a minimal HTTP client and request bodies for a running
//!   ct-server.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod genq;
pub mod paper;
pub mod runner;
pub mod serving;

pub use genq::QueryGenerator;
pub use paper::{paper_configs, PaperSetup};
pub use runner::{run_batch, BatchStats};
