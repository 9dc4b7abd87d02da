//! Minimal CLI argument parsing shared by all bench binaries.

/// Parsed command-line options.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// TPC-D scale factor.
    pub sf: f64,
    /// Generator seed.
    pub seed: u64,
    /// Queries per batch (Figure 12 uses 100 per lattice node).
    pub queries: usize,
    /// Buffer pool size as a fraction of the estimated data size.
    pub pool_frac: f64,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Optional metrics JSON output path. When set, the engines run with an
    /// enabled [`ct_obs::Recorder`]; counters, histograms and the phase tree
    /// are written here and a summary is printed to stderr.
    pub metrics: Option<String>,
    /// Worker threads for the Cubetree sort→pack pipeline (1 = sequential).
    pub threads: usize,
    /// Inject a failure on the Nth physical page write of the Cubetree
    /// refresh (0 = disabled). The update must fail cleanly and leave the
    /// on-disk state recoverable — a command-line probe of the crash-safety
    /// contract.
    pub faults: u64,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            sf: 0.01,
            seed: 42,
            queries: 100,
            pool_frac: 32.0 / 602.0,
            json: None,
            metrics: None,
            threads: 1,
            faults: 0,
        }
    }
}

impl BenchArgs {
    /// Parses `std::env::args()`, exiting with a usage message on error.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument iterator.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next().unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--sf" => out.sf = value("--sf").parse().expect("--sf takes a float"),
                "--seed" => out.seed = value("--seed").parse().expect("--seed takes an int"),
                "--queries" => {
                    out.queries = value("--queries").parse().expect("--queries takes an int")
                }
                "--pool-frac" => {
                    out.pool_frac =
                        value("--pool-frac").parse().expect("--pool-frac takes a float")
                }
                "--json" => out.json = Some(value("--json")),
                "--metrics" => out.metrics = Some(value("--metrics")),
                "--threads" => {
                    out.threads = value("--threads")
                        .parse::<usize>()
                        .expect("--threads takes an int")
                        .max(1)
                }
                "--faults" => {
                    out.faults = value("--faults").parse().expect("--faults takes an int")
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--sf F] [--seed N] [--queries N] [--pool-frac F] \
                         [--json PATH] [--metrics PATH] [--threads N] [--faults N]"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}");
                    std::process::exit(2);
                }
            }
        }
        out
    }

    /// Buffer pool size in pages for an estimated dataset of `data_bytes`.
    pub fn pool_pages(&self, data_bytes: u64) -> usize {
        let bytes = (data_bytes as f64 * self.pool_frac) as usize;
        (bytes / ct_storage::PAGE_SIZE).max(128)
    }

    /// A fault plan matching the `--faults` flag: an active (but not yet
    /// armed) plan when injection was requested, the inert plan otherwise.
    pub fn fault_plan(&self) -> ct_storage::FaultPlan {
        if self.faults > 0 {
            ct_storage::FaultPlan::new()
        } else {
            ct_storage::FaultPlan::none()
        }
    }

    /// A recorder matching the `--metrics` flag: enabled when a path was
    /// given, disabled (zero-cost probes) otherwise.
    pub fn recorder(&self) -> ct_obs::Recorder {
        if self.metrics.is_some() {
            ct_obs::Recorder::enabled()
        } else {
            ct_obs::Recorder::disabled()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_overrides() {
        let d = BenchArgs::parse_from(Vec::<String>::new());
        assert_eq!(d.sf, 0.01);
        let a = BenchArgs::parse_from(
            ["--sf", "0.05", "--seed", "7", "--queries", "50", "--pool-frac", "0.1"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.sf, 0.05);
        assert_eq!(a.seed, 7);
        assert_eq!(a.queries, 50);
        assert_eq!(a.pool_frac, 0.1);
        assert!(a.json.is_none());
        assert!(a.metrics.is_none());
        assert!(!a.recorder().is_enabled());
        assert_eq!(a.threads, 1);
        assert_eq!(a.faults, 0);
        assert!(!a.fault_plan().is_active());
    }

    #[test]
    fn faults_flag_activates_plan() {
        let a = BenchArgs::parse_from(["--faults", "3"].iter().map(|s| s.to_string()));
        assert_eq!(a.faults, 3);
        assert!(a.fault_plan().is_active());
    }

    #[test]
    fn metrics_flag_enables_recorder() {
        let a = BenchArgs::parse_from(
            ["--metrics", "m.json"].iter().map(|s| s.to_string()),
        );
        assert_eq!(a.metrics.as_deref(), Some("m.json"));
        assert!(a.recorder().is_enabled());
    }

    #[test]
    fn threads_parse_and_clamp() {
        let a = BenchArgs::parse_from(["--threads", "4"].iter().map(|s| s.to_string()));
        assert_eq!(a.threads, 4);
        let z = BenchArgs::parse_from(["--threads", "0"].iter().map(|s| s.to_string()));
        assert_eq!(z.threads, 1, "zero clamps to sequential");
    }

    #[test]
    fn pool_pages_has_floor() {
        let a = BenchArgs::default();
        assert_eq!(a.pool_pages(0), 128);
        assert!(a.pool_pages(1 << 30) > 128);
    }
}
