//! Batch query execution and measurement.
//!
//! [`run_batch`] runs a batch one query at a time, as the paper's Figure 13
//! dispatches it, and measures each query on its own. Every worker budget
//! takes the same loop, so the measurements do not depend on `threads`.

use ct_common::query::QueryRow;
use ct_common::stats::percentile_nearest_rank;
use ct_common::{Result, SliceQuery};
use cubetree::engine::RolapEngine;
use std::time::Instant;

/// Measurements for one executed query.
#[derive(Clone, Copy, Debug)]
pub struct QueryStat {
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Simulated seconds under the engine's I/O cost model.
    pub sim_secs: f64,
    /// Result rows.
    pub rows: usize,
}

/// Aggregate measurements for a batch.
///
/// Per-query stats are the single source of truth: batch totals are
/// *derived* (they used to be stored alongside, drifting from the I/O
/// counters whenever one accumulation path was touched and not the other).
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Per-query stats in batch order.
    pub queries: Vec<QueryStat>,
    /// An order-insensitive checksum over all result rows, for verifying
    /// that two engines returned identical answers.
    pub checksum: u64,
}

impl BatchStats {
    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Total wall-clock seconds, summed over the per-query stats.
    pub fn total_wall(&self) -> f64 {
        self.queries.iter().map(|q| q.wall_secs).sum()
    }

    /// Total simulated seconds, summed over the per-query stats.
    pub fn total_sim(&self) -> f64 {
        self.queries.iter().map(|q| q.sim_secs).sum()
    }

    /// Mean throughput in queries/second over simulated time. An empty
    /// batch has throughput 0 (not NaN); a non-empty batch that cost no
    /// simulated time reports infinity.
    pub fn avg_throughput_sim(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let total = self.total_sim();
        if total > 0.0 {
            self.len() as f64 / total
        } else {
            f64::INFINITY
        }
    }

    /// The `p`-th percentile (0–100, nearest rank) of per-query wall-clock
    /// seconds; 0.0 on an empty batch.
    pub fn percentile_wall(&self, p: f64) -> f64 {
        percentile_nearest_rank(self.queries.iter().map(|q| q.wall_secs), p)
    }

    /// The `p`-th percentile (0–100, nearest rank) of per-query simulated
    /// seconds; 0.0 on an empty batch.
    pub fn percentile_sim(&self, p: f64) -> f64 {
        percentile_nearest_rank(self.queries.iter().map(|q| q.sim_secs), p)
    }

    /// `(min, max)` throughput in queries/second over windows of `window`
    /// queries of simulated time — the form of the paper's Figure 13.
    pub fn throughput_window_sim(&self, window: usize) -> (f64, f64) {
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for chunk in self.queries.chunks(window.max(1)) {
            if chunk.len() < window {
                break; // ignore the ragged tail
            }
            let t: f64 = chunk.iter().map(|q| q.sim_secs).sum();
            let qps = if t > 0.0 { chunk.len() as f64 / t } else { f64::INFINITY };
            min = min.min(qps);
            max = max.max(qps);
        }
        if min > max {
            (0.0, 0.0)
        } else {
            (min, max)
        }
    }
}

/// FNV-1a over the normalized result rows. An answer fingerprint, not on
/// the I/O path: page and manifest sums are `ct_storage::page::checksum`.
fn checksum_rows(rows: &[QueryRow]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    for r in rows {
        for &k in &r.key {
            eat(k);
        }
        eat(r.agg.to_bits());
        eat(0xFEED);
    }
    h
}

/// Executes `queries` against `engine` one at a time, in order, collecting
/// per-query wall-clock and simulated-time statistics plus a result
/// checksum.
pub fn run_batch(engine: &dyn RolapEngine, queries: &[SliceQuery]) -> Result<BatchStats> {
    let mut stats = BatchStats::default();
    let model = *engine.env().cost_model();
    let recorder = engine.env().recorder().clone();
    let wall_hist = recorder.histogram("workload.query.wall_us");
    let sim_hist = recorder.histogram("workload.query.sim_us");
    let rows_hist = recorder.histogram("workload.query.result_rows");
    let mut checksum = 0u64;
    // One sort scratch reused across the whole batch instead of a fresh
    // clone + allocation per query.
    let mut scratch: Vec<QueryRow> = Vec::new();
    for q in queries {
        let before = engine.env().snapshot();
        let t0 = Instant::now();
        let rows = engine.query(q)?;
        let wall = t0.elapsed().as_secs_f64();
        let delta = engine.env().snapshot().since(&before);
        let sim = delta.simulated_seconds(&model);
        wall_hist.record((wall * 1e6) as u64);
        sim_hist.record((sim * 1e6) as u64);
        rows_hist.record(rows.len() as u64);
        scratch.clear();
        scratch.extend_from_slice(&rows);
        scratch.sort_by(|a, b| a.key.cmp(&b.key));
        checksum = checksum.wrapping_add(checksum_rows(&scratch));
        stats.queries.push(QueryStat { wall_secs: wall, sim_secs: sim, rows: rows.len() });
    }
    stats.checksum = checksum;
    Ok(stats)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::genq::QueryGenerator;
    use crate::paper::paper_configs;
    use ct_common::query::normalize_rows;
    use ct_tpcd::{TpcdConfig, TpcdWarehouse};
    use cubetree::engine::{ConventionalEngine, CubetreeEngine};

    /// Loads both engines over a tiny warehouse and checks the checksum
    /// machinery end to end.
    #[test]
    fn both_engines_agree_on_a_random_batch() {
        let w = TpcdWarehouse::new(TpcdConfig { scale_factor: 0.002, seed: 11 });
        let fact = w.generate_fact();
        let setup = paper_configs(&w);
        let mut conv =
            ConventionalEngine::new(w.catalog().clone(), setup.conventional.clone()).unwrap();
        conv.load(&fact).unwrap();
        let mut cube = CubetreeEngine::new(w.catalog().clone(), setup.cubetree.clone()).unwrap();
        cube.load(&fact).unwrap();

        let a = w.attrs();
        let mut generator =
            QueryGenerator::new(w.catalog(), vec![a.partkey, a.suppkey, a.custkey], 5);
        let queries = generator.batch(60);
        let s1 = run_batch(&conv, &queries).unwrap();
        let s2 = run_batch(&cube, &queries).unwrap();
        assert_eq!(s1.len(), 60);
        assert_eq!(
            s1.checksum, s2.checksum,
            "the two configurations must return identical answers"
        );
        assert!(s1.total_sim() > 0.0);
        assert!(s2.total_sim() > 0.0);
        assert!(s1.total_wall() > 0.0);
        let (min, max) = s2.throughput_window_sim(10);
        assert!(min <= max);
        assert!(s2.avg_throughput_sim() > 0.0);
    }

    #[test]
    fn checksum_is_order_insensitive_but_value_sensitive() {
        let rows1 = vec![
            QueryRow { key: vec![1], agg: 5.0 },
            QueryRow { key: vec![2], agg: 6.0 },
        ];
        let rows2 = vec![
            QueryRow { key: vec![2], agg: 6.0 },
            QueryRow { key: vec![1], agg: 5.0 },
        ];
        let c1 = checksum_rows(&normalize_rows(rows1.clone()));
        let c2 = checksum_rows(&normalize_rows(rows2));
        assert_eq!(c1, c2);
        let rows3 = vec![
            QueryRow { key: vec![1], agg: 5.0 },
            QueryRow { key: vec![2], agg: 7.0 },
        ];
        assert_ne!(c1, checksum_rows(&normalize_rows(rows3)));
    }

    #[test]
    fn empty_batch() {
        let stats = BatchStats::default();
        assert!(stats.is_empty());
        assert_eq!(stats.throughput_window_sim(10), (0.0, 0.0));
        assert_eq!(stats.avg_throughput_sim(), 0.0);
        assert_eq!(stats.percentile_wall(50.0), 0.0);
        assert_eq!(stats.percentile_sim(99.0), 0.0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut stats = BatchStats::default();
        for secs in [4.0, 1.0, 3.0, 2.0] {
            stats.queries.push(QueryStat { wall_secs: secs, sim_secs: secs * 10.0, rows: 0 });
        }
        assert_eq!(stats.percentile_wall(0.0), 1.0);
        assert_eq!(stats.percentile_wall(25.0), 1.0);
        assert_eq!(stats.percentile_wall(50.0), 2.0);
        assert_eq!(stats.percentile_wall(75.0), 3.0);
        assert_eq!(stats.percentile_wall(100.0), 4.0);
        assert_eq!(stats.percentile_sim(100.0), 40.0);
    }
}
