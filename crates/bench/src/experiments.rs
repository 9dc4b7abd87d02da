//! Shared experiment setup: building both engines from one TPC-D dataset.

use crate::args::BenchArgs;
use ct_common::Result;
use ct_cube::Relation;
use ct_rtree::LeafFormat;
use ct_tpcd::{TpcdConfig, TpcdWarehouse};
use ct_workload::paper_configs;
use cubetree::engine::{ConventionalEngine, CubetreeEngine, RolapEngine};
use std::time::Instant;

/// Timing of one engine's initial load.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadTiming {
    /// Wall-clock seconds.
    pub wall: f64,
    /// Simulated seconds under the 1998 cost model.
    pub sim: f64,
}

/// Both engines loaded over the same dataset, with load measurements.
pub struct Engines {
    /// The generated warehouse.
    pub warehouse: TpcdWarehouse,
    /// The base fact relation.
    pub fact: Relation,
    /// Conventional engine (loaded).
    pub conventional: ConventionalEngine,
    /// Cubetree engine (loaded).
    pub cubetree: CubetreeEngine,
    /// Conventional load timing.
    pub conv_load: LoadTiming,
    /// Cubetree load timing.
    pub cube_load: LoadTiming,
}

/// Estimated on-disk bytes of the paper's view set for pool sizing
/// (~1.2 tuples of ~40 bytes per fact row, both configurations combined).
pub fn estimate_data_bytes(fact_rows: u64) -> u64 {
    fact_rows.saturating_mul(48)
}

/// Generates the dataset and loads both engines, measuring load costs.
pub fn build_engines(args: &BenchArgs) -> Result<Engines> {
    let warehouse = TpcdWarehouse::new(TpcdConfig { scale_factor: args.sf, seed: args.seed });
    let fact = warehouse.generate_fact();
    let mut setup = paper_configs(&warehouse);
    let pool = args.pool_pages(estimate_data_bytes(fact.len() as u64));
    setup.conventional.pool_pages = pool;
    setup.cubetree.pool_pages = pool;
    setup.cubetree.threads = args.threads;
    // The paper's experiments (Tables 6/7, Figures 12/13, the range study)
    // are about the paper's leaf: its 2:1 storage claim and its page counts
    // would not be the paper's on the engine's bit-packed default.
    setup.cubetree.format = LeafFormat::ZeroElided;
    // Each engine gets its own registry so phase trees don't interleave.
    setup.conventional.recorder = args.recorder();
    setup.cubetree.recorder = args.recorder();
    // --faults arms write injection against the Cubetree engine only; the
    // plan stays trigger-free during the load (benches arm it afterwards).
    setup.cubetree.faults = args.fault_plan();

    let mut conventional =
        ConventionalEngine::new(warehouse.catalog().clone(), setup.conventional)?;
    let conv_load = timed_load(&mut conventional, &fact)?;
    let mut cubetree = CubetreeEngine::new(warehouse.catalog().clone(), setup.cubetree)?;
    let cube_load = timed_load(&mut cubetree, &fact)?;
    Ok(Engines { warehouse, fact, conventional, cubetree, conv_load, cube_load })
}

impl Engines {
    /// Empties both engines' buffer pools (dirty pages written back first),
    /// so a query run starts both cold whatever their loads left behind.
    pub fn start_cold(&self) -> Result<()> {
        self.conventional.env().pool().evict_all()?;
        self.cubetree.env().pool().evict_all()
    }
}

/// [`build_engines`] with a process-exit on failure (bench binaries).
pub fn build_engines_or_die(args: &BenchArgs) -> Engines {
    build_engines(args).unwrap_or_else(|e| {
        eprintln!("failed to build engines: {e}");
        std::process::exit(1);
    })
}

/// Loads one engine, returning wall and simulated time.
pub fn timed_load(engine: &mut dyn RolapEngine, fact: &Relation) -> Result<LoadTiming> {
    let io0 = engine.env().snapshot();
    let t0 = Instant::now();
    engine.load(fact)?;
    let wall = t0.elapsed().as_secs_f64();
    let sim = engine
        .env()
        .snapshot()
        .since(&io0)
        .simulated_seconds(engine.env().cost_model());
    Ok(LoadTiming { wall, sim })
}

/// Runs `f`, returning `(result, wall_secs, sim_secs)` measured on `engine`.
pub fn timed<R>(
    engine: &dyn RolapEngine,
    f: impl FnOnce() -> Result<R>,
) -> Result<(R, f64, f64)> {
    let io0 = engine.env().snapshot();
    let t0 = Instant::now();
    let r = f()?;
    let wall = t0.elapsed().as_secs_f64();
    let sim = engine
        .env()
        .snapshot()
        .since(&io0)
        .simulated_seconds(engine.env().cost_model());
    Ok((r, wall, sim))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_build_at_tiny_scale() {
        let args = BenchArgs { sf: 0.001, ..Default::default() };
        let e = build_engines(&args).unwrap();
        assert!(e.conv_load.sim > 0.0);
        assert!(e.cube_load.sim > 0.0);
        assert!(e.conventional.storage_bytes() > 0);
        assert!(e.cubetree.storage_bytes() > 0);
        // Load should already show the paper's direction: cubetrees cheaper.
        assert!(e.cube_load.sim < e.conv_load.sim);
    }
}
