//! The common set-up: generate the TPC-D data from the seed, load a Cubetree
//! forest in a directory inside the checkout, refresh it once.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ct_cube::Relation;
use ct_obs::Recorder;
use ct_storage::IoSnapshot;
use ct_tpcd::{TpcdConfig, TpcdWarehouse};
use ct_workload::paper_configs;
use cubetree::engine::{CubetreeEngine, RolapEngine};

use crate::spec::{POOL_PAGES, REFRESH_FRAC, SCALE_FACTOR, THREADS};

/// Scratch space under `benchmark/work/`, removed when the run ends (also on
/// a panic, so a failed run leaves nothing behind).
pub struct WorkDir {
    root: PathBuf,
    next: usize,
}

impl WorkDir {
    pub fn create(home: &Path) -> WorkDir {
        let root = home.join("work").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&root).expect("create the benchmark work directory");
        WorkDir { root, next: 0 }
    }

    /// A fresh, not yet created, directory for one storage environment.
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("env{}", self.next))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The generated inputs: base fact table plus refresh increments.
pub struct Dataset {
    pub warehouse: TpcdWarehouse,
    pub fact: Relation,
    pub increments: Vec<Relation>,
    pub generate_s: f64,
}

impl Dataset {
    /// Generates the base table and `increments` independent 10 % increments
    /// (each from its own seed, so successive refreshes differ).
    pub fn generate(seed: u64, increments: usize) -> Dataset {
        let started = Instant::now();
        let warehouse = TpcdWarehouse::new(TpcdConfig { scale_factor: SCALE_FACTOR, seed });
        let fact = warehouse.generate_fact();
        let increments = (0..increments)
            .map(|i| {
                let seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(1 + i as u64);
                TpcdWarehouse::new(TpcdConfig { scale_factor: SCALE_FACTOR, seed })
                    .generate_increment(REFRESH_FRAC)
            })
            .collect();
        let generate_s = started.elapsed().as_secs_f64();
        Dataset { warehouse, fact, increments, generate_s }
    }

    /// Every generated row: the fact table followed by the increments.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        std::iter::once(&self.fact).chain(&self.increments)
    }

    pub fn total_rows(&self) -> u64 {
        self.relations().map(|r| r.len() as u64).sum()
    }

    pub fn total_measure(&self) -> i64 {
        self.relations().flat_map(|r| &r.states).map(|s| s.sum).sum()
    }
}

/// A loaded and refreshed engine with what its construction cost.
pub struct Stack {
    pub data: Dataset,
    pub engine: Arc<CubetreeEngine>,
    /// Wall seconds of `engine.load`.
    pub build_s: f64,
    /// Wall seconds of each `engine.refresh`, in order.
    pub update_s: Vec<f64>,
    /// Page I/O of the load and all refreshes together.
    pub build_io: IoSnapshot,
    /// The engine's directory, removed with the stack.
    dir: PathBuf,
}

impl Drop for Stack {
    /// Frees the disk (and the page cache's dirty pages) before the next
    /// set-up writes its own files.
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Stack {
    /// Loads `data.fact` and applies every increment, in a fresh directory.
    pub fn build(work: &mut WorkDir, data: Dataset, recorder: Recorder) -> Stack {
        let dir = work.fresh();
        let mut config = paper_configs(&data.warehouse).cubetree.with_threads(THREADS);
        config.pool_pages = POOL_PAGES;
        config.recorder = recorder;
        let mut engine = CubetreeEngine::open_at(&dir, data.warehouse.catalog().clone(), config)
            .expect("open the storage environment");
        let t = Instant::now();
        engine.load(&data.fact).expect("load the fact table");
        let build_s = t.elapsed().as_secs_f64();
        let update_s = data
            .increments
            .iter()
            .map(|inc| {
                let t = Instant::now();
                engine.refresh(inc).expect("refresh");
                t.elapsed().as_secs_f64()
            })
            .collect();
        let build_io = engine.env().snapshot();
        Stack { data, engine: Arc::new(engine), build_s, update_s, build_io, dir }
    }

    pub fn load_rows_per_s(&self) -> f64 {
        self.data.fact.len() as f64 / self.build_s
    }

    /// Rows per second of each refresh, in order.
    pub fn refresh_rows_per_s(&self) -> Vec<f64> {
        self.data
            .increments
            .iter()
            .zip(&self.update_s)
            .map(|(inc, s)| inc.len() as f64 / s)
            .collect()
    }

    pub fn storage_bytes_per_fact_row(&self) -> f64 {
        self.engine.storage_bytes() as f64 / self.data.total_rows() as f64
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0.0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
