//! Batch query execution and measurement.
//!
//! [`run_batch`] runs a batch one query at a time, as the paper's Figure 13
//! dispatches it, and measures each query on its own. Every worker budget
//! takes the same loop, so the measurements do not depend on `threads`.

use ct_common::query::QueryRow;
use ct_common::stats::percentile_nearest_rank;
use ct_common::{CtError, Result, SliceQuery};
use cubetree::engine::{CubetreeEngine, RolapEngine};
use cubetree::query::execute_query_with_delta;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
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

/// Results of one mixed read/refresh run (see [`run_mixed_refresh`]).
#[derive(Clone, Debug)]
pub struct MixedStats {
    /// Update cycles committed by the writer.
    pub cycles: usize,
    /// Reader probe batches completed across all reader threads.
    pub reads: u64,
    /// Distinct generation numbers the readers pinned, ascending.
    pub generations_seen: Vec<u64>,
    /// Batches whose answers did not match the committed generation they
    /// pinned. Any non-zero value is a snapshot-isolation violation.
    pub mismatches: u64,
}

/// Checksum of one probe batch's answers: the order-insensitive row
/// checksum summed across probes (the same scheme [`run_batch`] uses).
fn probe_checksum(
    gen: &cubetree::Generation,
    engine: &CubetreeEngine,
    probes: &[SliceQuery],
) -> Result<u64> {
    let mut sum = 0u64;
    for q in probes {
        let mut rows = execute_query_with_delta(gen, None, engine.env(), engine.catalog(), q)?;
        rows.sort_by(|a, b| a.key.cmp(&b.key));
        sum = sum.wrapping_add(checksum_rows(&rows));
    }
    Ok(sum)
}

/// Drives a mixed read/update workload: `readers` threads continuously pin
/// the forest and run the `probes` batch while this thread commits one
/// refresh per relation in `deltas` — queries run *during* the merge-pack,
/// the manifest flip and the old generation's reclamation.
///
/// After each commit the writer records the new generation's expected probe
/// checksum; every reader batch is validated against the checksum of the
/// generation it pinned. The writer paces itself so each generation is
/// observed at least once by every reader before the next cycle commits.
///
/// Run this with a disabled or dedicated recorder: concurrent root "query"
/// phases cannot split the shared I/O counters, so phase-level attribution
/// is smeared across readers in mixed mode (see OBSERVABILITY.md).
pub fn run_mixed_refresh(
    engine: &CubetreeEngine,
    probes: &[SliceQuery],
    deltas: &[ct_cube::Relation],
    readers: usize,
) -> Result<MixedStats> {
    let forest = engine
        .forest()
        .ok_or_else(|| CtError::invalid("run_mixed_refresh needs a loaded engine"))?;
    // expected[g] = probe checksum of generation g, filled by the writer
    // right after g commits. A reader can pin g before the writer finishes
    // computing the entry, so readers record observations and validate at
    // the end rather than racing the table.
    let expected: Mutex<std::collections::BTreeMap<u64, u64>> = Mutex::new(
        std::collections::BTreeMap::new(),
    );
    {
        let pin = forest.pin();
        let sum = probe_checksum(&pin, engine, probes)?;
        expected.lock().unwrap().insert(pin.number(), sum);
    }
    let done = AtomicBool::new(false);
    // 1 + the highest generation number any completed reader batch has
    // pinned (0 = none yet); the writer paces on it so every generation is
    // observed while current.
    let latest_read = AtomicU64::new(0);
    let observed: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
    let cycles = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(readers.max(1));
        for _ in 0..readers.max(1) {
            handles.push(scope.spawn(|| -> Result<()> {
                let mut local: Vec<(u64, u64)> = Vec::new();
                while !done.load(Ordering::Acquire) {
                    let pin = forest.pin();
                    let sum = probe_checksum(&pin, engine, probes)?;
                    local.push((pin.number(), sum));
                    latest_read.fetch_max(pin.number() + 1, Ordering::AcqRel);
                }
                observed.lock().unwrap().extend(local);
                Ok(())
            }));
        }
        let writer = scope.spawn(|| -> Result<usize> {
            let mut cycles = 0usize;
            // Every generation, the initial one included, must be pinned by
            // at least one completed reader batch before it is replaced.
            while latest_read.load(Ordering::Acquire) <= forest.generation_number() {
                std::thread::yield_now();
            }
            for delta in deltas {
                engine.refresh(delta)?;
                cycles += 1;
                let pin = forest.pin();
                let sum = probe_checksum(&pin, engine, probes)?;
                let number = pin.number();
                expected.lock().unwrap().insert(number, sum);
                drop(pin);
                while latest_read.load(Ordering::Acquire) <= number {
                    std::thread::yield_now();
                }
            }
            Ok(cycles)
        });
        let cycles = writer.join().expect("writer thread must not panic");
        done.store(true, Ordering::Release);
        for h in handles {
            h.join().expect("reader thread must not panic")?;
        }
        cycles
    })?;
    let expected = expected.into_inner().unwrap();
    let observed = observed.into_inner().unwrap();
    let mut generations_seen: Vec<u64> = Vec::new();
    let mut mismatches = 0u64;
    for (gen, sum) in &observed {
        if !generations_seen.contains(gen) {
            generations_seen.push(*gen);
        }
        if expected.get(gen) != Some(sum) {
            mismatches += 1;
        }
    }
    generations_seen.sort_unstable();
    Ok(MixedStats { cycles, reads: observed.len() as u64, generations_seen, mismatches })
}

#[cfg(test)]
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

    /// Readers querying *during* refresh cycles: every batch must match
    /// the generation it pinned, and every generation must get observed.
    #[test]
    fn mixed_reads_and_refreshes_are_snapshot_consistent() {
        let w = TpcdWarehouse::new(TpcdConfig { scale_factor: 0.002, seed: 21 });
        let fact = w.generate_fact();
        let setup = paper_configs(&w);
        let mut engine =
            CubetreeEngine::new(w.catalog().clone(), setup.cubetree.clone()).unwrap();
        engine.load(&fact).unwrap();

        let a = w.attrs();
        let mut generator =
            QueryGenerator::new(w.catalog(), vec![a.partkey, a.suppkey, a.custkey], 13);
        let probes = generator.batch(6);
        // Three refresh cycles over slices of a second generated fact.
        let extra = TpcdWarehouse::new(TpcdConfig { scale_factor: 0.002, seed: 22 })
            .generate_fact();
        let deltas: Vec<_> = (0..3)
            .map(|i| {
                let lo = i * 40;
                let keys: Vec<u64> = (lo..lo + 40)
                    .flat_map(|r| extra.key(r).to_vec())
                    .collect();
                let measures: Vec<i64> =
                    (lo..lo + 40).map(|r| extra.states[r].sum).collect();
                ct_cube::Relation::from_fact(extra.attrs.clone(), keys, &measures)
            })
            .collect();

        let stats = run_mixed_refresh(&engine, &probes, &deltas, 3).unwrap();
        assert_eq!(stats.cycles, 3);
        assert_eq!(stats.mismatches, 0, "a reader saw a torn generation");
        // The pacing guarantees every committed generation was pinned.
        assert_eq!(stats.generations_seen, vec![0, 1, 2, 3]);
        assert!(stats.reads >= 9);
    }
}
