//! The one command: every workload untraced (end-to-end numbers), then traced
//! (per-layer numbers), each run a child process so that no run inherits
//! another's memory or caches — exactly what the driver does. Prints every
//! metric by name with its unit, writes `results/latest.json`, and with
//! `--repeat N` holds N untraced sets, each from another seed, against the
//! bounds in `BENCHMARK.json`: two sets by their relative difference, more by
//! their quartile spread.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use ct_server::json::Json;

use crate::spec::Workload;
use crate::stats::quartile_spread;

pub struct SuiteConfig {
    pub home: PathBuf,
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub repeat: usize,
    pub quick: bool,
}

fn benchmark_json(home: &Path) -> Option<Json> {
    let text = std::fs::read_to_string(home.join("..").join("BENCHMARK.json")).ok()?;
    Json::parse(&text).ok()
}

/// The window length `BENCHMARK.json` fixes (10 s if it cannot be read).
pub fn run_seconds(home: &Path) -> f64 {
    benchmark_json(home).and_then(|doc| doc.get("run_seconds")?.as_f64()).unwrap_or(10.0)
}

/// `name -> bound` of every end-to-end metric.
fn bounds(home: &Path) -> BTreeMap<String, f64> {
    let parse = |doc: Json| -> Option<BTreeMap<String, f64>> {
        doc.get("end_to_end")?
            .as_array()?
            .iter()
            .map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
            .collect()
    };
    benchmark_json(home).and_then(parse).unwrap_or_default()
}

/// One child run's result line, parsed.
struct Outcome {
    ok: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in printed order.
    metrics: Vec<(String, f64, String)>,
}

fn child_run(cfg: &SuiteConfig, workload: Workload, seed: u64, trace: bool) -> Outcome {
    let mode = if trace { "traced" } else { "untraced" };
    eprintln!("== {} ({mode}, seed {seed})", workload.name);
    let exe = std::env::current_exe().expect("path of this executable");
    let output = Command::new(exe)
        .args(["--workload", workload.name, "--trace", if trace { "1" } else { "0" }])
        .args(["--seed", &seed.to_string(), "--seconds", &cfg.seconds.to_string()])
        .env("CT_BENCH_HOME", &cfg.home)
        .stderr(Stdio::inherit())
        .output()
        .expect("start a benchmark run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parse = |line: &str| -> Option<Outcome> {
        let doc = Json::parse(line).ok()?;
        let metrics = doc
            .get("metrics")?
            .as_object()?
            .iter()
            .map(|(name, m)| {
                Some((
                    name.clone(),
                    m.get("value")?.as_f64()?,
                    m.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect::<Option<_>>()?;
        Some(Outcome {
            ok: output.status.success() && doc.get("correct")? == &Json::Bool(true),
            attempted: doc.get("attempted")?.as_u64()?,
            failed: doc.get("failed")?.as_u64()?,
            metrics,
        })
    };
    stdout.lines().last().and_then(parse).unwrap_or_else(|| {
        eprintln!("run of {} printed no result ({})", workload.name, output.status);
        Outcome { ok: false, attempted: 0, failed: 0, metrics: Vec::new() }
    })
}

fn metrics_json(metrics: &[(String, f64, String)]) -> String {
    crate::metrics_json(
        metrics.iter().map(|(name, value, unit)| (name.as_str(), *value, unit.as_str())),
    )
}

pub fn run(cfg: &SuiteConfig) -> ExitCode {
    let bounds = bounds(&cfg.home);
    let mut all_ok = true;
    let mut documents = Vec::new();
    for &workload in &cfg.workloads {
        // Like the driver, every repeat gets another seed.
        let untraced: Vec<Outcome> = (0..cfg.repeat.max(1) as u64)
            .map(|i| child_run(cfg, workload, cfg.seed + i, false))
            .collect();
        let traced = child_run(cfg, workload, cfg.seed, true);
        all_ok &= untraced.iter().chain([&traced]).all(|o| o.ok);

        println!("\n{}", workload.name);
        for (i, (name, first, unit)) in untraced[0].metrics.iter().enumerate() {
            let values: Vec<f64> =
                untraced.iter().filter_map(|o| o.metrics.get(i).map(|m| m.1)).collect();
            let mut line = format!("  {name:<34} {unit:<6}");
            for v in &values {
                line.push_str(&format!(" {v:>14.4}"));
            }
            // Two sets differ by a share of the first; more have a quartile
            // spread. Either is held against the metric's bound.
            let bound = bounds.get(name).copied().unwrap_or(f64::INFINITY);
            let off = match values.len() {
                0 | 1 => None,
                2 => Some(((values[1] - first) / first).abs()),
                _ => Some(quartile_spread(&values)),
            };
            if let Some(off) = off {
                line.push_str(&format!(" {:>8.2}%", off * 100.0));
                if off > bound {
                    line.push_str(&format!("  BEYOND THE BOUND {bound}"));
                    all_ok = false;
                }
            }
            println!("{line}");
        }
        for o in &untraced {
            println!(
                "  {:<34} {:<6} {:>16} (failed {})",
                "attempted", "count", o.attempted, o.failed
            );
        }
        for (name, value, unit) in &traced.metrics {
            println!("  {name:<34} {unit:<6} {value:>16.4}");
        }

        let sets: Vec<String> = untraced.iter().map(|o| metrics_json(&o.metrics)).collect();
        documents.push(format!(
            "\"{}\": {{\"end_to_end\": [{}], \"per_layer\": {}}}",
            workload.name,
            sets.join(", "),
            metrics_json(&traced.metrics)
        ));
    }

    // A --quick result is for smoke use: its windows are too short to hold
    // against anything.
    let latest = format!(
        "{{\"comparable\": {}, \"seed\": {}, \"seconds\": {}, \"correct\": {}, \"workloads\": {{{}}}}}\n",
        !cfg.quick,
        cfg.seed,
        cfg.seconds,
        all_ok,
        documents.join(", ")
    );
    let results = cfg.home.join("results");
    std::fs::create_dir_all(&results).expect("create the results directory");
    std::fs::write(results.join("latest.json"), latest).expect("write latest.json");
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: a run was incorrect, an operation failed, or two sets disagreed");
        ExitCode::FAILURE
    }
}
