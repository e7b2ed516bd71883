//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics, or with `--trace 1` the per-layer ones.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gmr_mapreduce::cluster::ClusterConfig;
use perfbench::bench::{self, Options};
use perfbench::layers::Metric;
use perfbench::sys;
use perfbench::workload::{Scale, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::GmeansText,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::full(),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    // Spill runs go to the system temp dir; keep them inside the
    // working directory, in a directory this process owns and removes.
    let tmp: PathBuf = Path::new(".perfbench-tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let tmp = tmp.canonicalize().unwrap_or(tmp);
    std::env::set_var("TMPDIR", &tmp);
    let spill_fs = sys::filesystem_of(&tmp);

    let cluster = ClusterConfig::default();
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!(
        "environment: nproc {}; runtime threads {}; cpu {}; commit {}; spill dir fs {} ({})",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cluster.execution_threads(cluster.total_map_slots()),
        sys::cpu_model(),
        sys::commit(Path::new(".")),
        spill_fs,
        if sys::is_memory_backed(&spill_fs) {
            "memory-backed"
        } else {
            "disk-backed"
        },
    );

    let report = bench::run(&opts);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".perfbench-tmp");

    for l in &report.lines {
        println!("{l}");
    }
    for e in &report.errors {
        println!("error: {e}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!(
        "error_rate {} ({} failed of {} attempted)",
        report.error_rate(),
        report.failed,
        report.attempted
    );
    let complete = report.metrics.iter().all(|m| m.1.is_finite()) && !report.metrics.is_empty();
    let correct = report.failed == 0 && complete;
    println!(
        "{}",
        result_json(correct, report.attempted, report.failed, &report.metrics)
    );
    ExitCode::SUCCESS
}
