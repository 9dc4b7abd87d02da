//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run
//! benchmark/run.sh [--workload NAME] [--seed N] [--repeat 2] [--quick] the suite
//! ```
//!
//! One run prints its result as one JSON object on the last line of standard
//! output. The suite runs every workload untraced and traced, one child
//! process per run, and prints every metric by name.

mod bulkrungs;
mod check;
mod drive;
mod ladder;
mod run;
mod setup;
mod spec;
mod stats;
mod stream;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{RunConfig, RunResult};

fn usage() -> ! {
    eprintln!(
        "usage: run.sh --workload NAME --seed N --seconds S --trace 0|1\n       \
         run.sh [--workload NAME] [--seed N] [--seconds S] [--repeat N] [--quick]\n\
         workloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2)
}

/// `{"name": {"value": v, "unit": "u"}, ...}`, values with all their digits.
fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let items: Vec<String> = metrics
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not a finite number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The result line the driver reads.
fn result_json(r: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics_json(r.metrics.iter().copied())
    )
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = None;
    let mut trace = None;
    let mut repeat = 1usize;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(spec::workload(&value()).unwrap_or_else(|| usage())),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = Some(value().parse::<f64>().unwrap_or_else(|_| usage())),
            "--trace" => trace = Some(value() == "1"),
            "--repeat" => repeat = value().parse().unwrap_or_else(|_| usage()),
            "--quick" => quick = true,
            _ => usage(),
        }
    }
    // run.sh names the benchmark's directory; from the root of a checkout it
    // is `benchmark`.
    let home = PathBuf::from(std::env::var("CT_BENCH_HOME").unwrap_or_else(|_| "benchmark".into()));
    let seconds = seconds.unwrap_or(if quick { 3.0 } else { suite::run_seconds(&home) });

    match (workload, trace) {
        (Some(workload), Some(trace)) => {
            let result = run::run(&RunConfig { workload, seed, seconds, trace, home });
            println!("{}", result_json(&result));
            if result.correct && result.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (_, Some(_)) => usage(),
        (workload, None) => {
            let workloads = workload.map_or(spec::WORKLOADS.to_vec(), |w| vec![w]);
            suite::run(&suite::SuiteConfig { home, workloads, seed, seconds, repeat, quick })
        }
    }
}
