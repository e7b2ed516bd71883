//! One benchmark run of one workload: set up, warm up, time the driver
//! for the requested seconds, check the answers, and, when traced,
//! attribute busy time to layers with the probes.

use std::time::Instant;

use crate::layers::{self, Metric, Trace};
use crate::stats::{error_rate, median, minimum, quartiles, residual};
use crate::workload::{self, Outcome, Scale, Staged, Workload, INPUT};
use crate::{heap, sys};

/// Timed rounds a run makes at least, whatever `seconds` says.
const MIN_ROUNDS: usize = 2;

/// What one run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the workload's dataset and of its driver.
    pub seed: u64,
    /// Seconds of timed rounds: rounds run while the next one is
    /// expected to end within them, and at least [`MIN_ROUNDS`] run.
    pub seconds: f64,
    /// Run the probes and report per-layer metrics instead of
    /// end-to-end ones.
    pub trace: bool,
    /// Dataset size and k of the workloads.
    pub scale: Scale,
}

/// The outcome of one run.
pub struct Report {
    /// Human-readable lines: per-call timings, checks, calibration and
    /// spans.
    pub lines: Vec<String>,
    /// Driver calls made.
    pub attempted: u64,
    /// Calls that erred, reported a failure, or failed an answer check.
    pub failed: u64,
    /// Why calls failed.
    pub errors: Vec<String>,
    /// The end-to-end metrics, or with `trace` the per-layer ones.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        error_rate(self.failed, self.attempted)
    }
}

/// Tally of the driver calls of one run against each dataset's
/// reference answer (its first answer).
struct Calls {
    reference: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Calls {
    fn record(&mut self, what: &str, dataset: usize, result: &Result<Outcome, String>) {
        self.attempted += 1;
        let reference = &mut self.reference[dataset];
        let error = match result {
            Err(e) => Some(format!("{what}: {e}")),
            Ok(o) if reference.is_none() => {
                *reference = Some(o.fingerprint());
                None
            }
            Ok(o) if Some(o.fingerprint()) != *reference => Some(format!(
                "{what}: answer differs from the first answer on dataset {dataset}"
            )),
            Ok(_) => None,
        };
        if let Some(e) = error {
            self.failed += 1;
            self.errors.push(e);
        }
    }
}

/// Seed of dataset `j` of the `n` a run times.
pub fn dataset_seed(seed: u64, j: usize, n: usize) -> u64 {
    seed.wrapping_mul(n as u64).wrapping_add(j as u64)
}

fn secs_list(values: &[f64]) -> String {
    values
        .iter()
        .map(|s| format!("{s:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs the benchmark once.
pub fn run(opts: &Options) -> Report {
    let w = opts.workload;
    let scale = &opts.scale;
    let n = w.datasets();
    let seeds: Vec<u64> = (0..n).map(|j| dataset_seed(opts.seed, j, n)).collect();
    let mut lines = Vec::new();
    let failed_setup = |e: String| Report {
        lines: Vec::new(),
        attempted: 1,
        failed: 1,
        errors: vec![format!("set-up: {e}")],
        metrics: Vec::new(),
    };

    // Set-up: stage every dataset once here, and once more before each
    // timed call, replacing the resident copy. Staging is one thread's
    // work, and on a shared VM its speed follows the vCPU it runs on,
    // which a process's main thread tends to keep: on a 2-vCPU VM one
    // took 0.21 s and the other 0.36 s per staging, so a run's median
    // flipped between the two from process to process. Each staging
    // therefore runs twice at once, on two threads, and counts the mean
    // of the two; `setup_s` is the median of these over the run.
    let mut setup = Vec::new();
    let stage = |j: usize, setup: &mut Vec<f64>| -> Result<Staged, String> {
        let timed = || {
            let t = Instant::now();
            let s = workload::stage(w, scale, seeds[j]);
            (s, t.elapsed().as_secs_f64())
        };
        let ((kept, a), (other, b)) = std::thread::scope(|sc| {
            let other = sc.spawn(timed);
            (timed(), other.join().expect("staging thread panicked"))
        });
        setup.push((a + b) / 2.0);
        other?;
        kept
    };
    let mut staged = Vec::with_capacity(n);
    for j in 0..n {
        match stage(j, &mut setup) {
            Ok(s) => staged.push(s),
            Err(e) => return failed_setup(e),
        }
    }

    let mut calls = Calls {
        reference: vec![None; n],
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    // One untimed warm-up call per dataset; only these count their heap.
    // The heap a G-means call holds follows its dataset, so the run
    // reports the mean over its datasets.
    let warm_t = Instant::now();
    let mut heap_peaks = Vec::with_capacity(n);
    for (j, (st, &seed)) in staged.iter().zip(&seeds).enumerate() {
        let (warm, peak) = heap::peak_during(|| workload::run(w, st, scale, seed));
        heap_peaks.push(peak as f64);
        calls.record("warm-up call", j, &warm);
    }
    let heap_peak = heap_peaks.iter().sum::<f64>() / n as f64;
    let warm_s = warm_t.elapsed().as_secs_f64();

    // Timed rounds: one staging and call per dataset, repeated until
    // `seconds` pass. A round's figure is the mean over its calls, and
    // the run's is its fastest round: the shared VM's speed shifts by up
    // to 30% in spells of tens of seconds, and the fastest round follows
    // the fast spells, which recur in every run, where the median
    // follows whichever spell the run landed in.
    let (mut walls, mut cpus, mut sys_shares) = (Vec::new(), Vec::new(), Vec::new());
    let mut dataset0_walls = Vec::new();
    let mut outcomes: Vec<Option<Outcome>> = (0..n).map(|_| None).collect();
    let started = Instant::now();
    loop {
        let round = Instant::now();
        let (mut wall, mut user, mut kernel) = (0.0, 0.0, 0.0);
        for j in 0..n {
            match stage(j, &mut setup) {
                Ok(s) => staged[j] = s,
                Err(e) => return failed_setup(e),
            }
            let (user0, kernel0) = sys::process_cpu_secs();
            let t = Instant::now();
            let r = workload::run(w, &staged[j], scale, seeds[j]);
            let call_wall = t.elapsed().as_secs_f64();
            let (user1, kernel1) = sys::process_cpu_secs();
            user += user1 - user0;
            kernel += kernel1 - kernel0;
            wall += call_wall;
            if j == 0 {
                dataset0_walls.push(call_wall);
            }
            calls.record("timed call", j, &r);
            if let (None, Ok(o)) = (&outcomes[j], r) {
                outcomes[j] = Some(o);
            }
        }
        walls.push(wall / n as f64);
        cpus.push((user + kernel) / n as f64);
        sys_shares.push(kernel / (user + kernel));
        // Start another round only if it, taking as long as this one,
        // still ends within `seconds`.
        if walls.len() >= MIN_ROUNDS
            && started.elapsed().as_secs_f64() + round.elapsed().as_secs_f64() > opts.seconds
        {
            break;
        }
    }

    lines.push(format!("set-up s: {}", secs_list(&setup)));
    lines.push(format!("warm-up calls wall s: {warm_s:.3} (untimed)"));
    let (q1, q3) = quartiles(&walls);
    lines.push(format!(
        "timed rounds: {} of {n} dataset(s)  wall s per call median {:.3} [q1 {q1:.3}, q3 {q3:.3}]  cpu s median {:.3}",
        walls.len(),
        median(&walls),
        median(&cpus)
    ));
    lines.push(format!(
        "  wall s per call, round means: {}",
        secs_list(&walls)
    ));
    lines.push(format!(
        "  system share of cpu s, per round: {}",
        secs_list(&sys_shares)
    ));

    // Answer checks of every dataset's answer; a failed one fails every
    // call, since every call reproduced its dataset's answer or failed
    // already. The cross-run check runs on the first dataset only.
    let mut answer_errors = Vec::new();
    let mut cache0 = None;
    for (j, (st, out)) in staged.iter().zip(&outcomes).enumerate() {
        let Some(out) = out else { continue };
        match workload::load_points(st) {
            Ok(cache) => {
                let points = workload::flatten(&cache);
                answer_errors.extend(
                    workload::check_answer(w, scale, st, &points, out)
                        .into_iter()
                        .map(|e| format!("dataset {j}: {e}")),
                );
                if j == 0 {
                    answer_errors.extend(workload::check_cross_run(w, scale, seeds[0], st, out));
                    cache0 = Some(cache);
                }
            }
            Err(e) => {
                answer_errors.push(format!("dataset {j}: loading points for the checks: {e}"))
            }
        }
        lines.push(format!(
            "dataset {j} (seed {}): {}",
            seeds[j],
            describe(w, scale, out)
        ));
    }
    if !answer_errors.is_empty() {
        calls.failed = calls.attempted;
        calls.errors.extend(answer_errors);
    }

    let metrics = if !opts.trace {
        let sims: Vec<f64> = outcomes
            .iter()
            .flatten()
            .map(|o| o.simulated_secs)
            .collect();
        let sim = if sims.len() == n {
            sims.iter().sum::<f64>() / n as f64
        } else {
            f64::NAN
        };
        vec![
            ("wall_s".into(), minimum(&walls), "s"),
            ("cpu_s".into(), minimum(&cpus), "s"),
            ("sim_makespan_s".into(), sim, "s"),
            ("setup_s".into(), median(&setup), "s"),
            (
                "peak_heap_mb".into(),
                heap_peak / (1u64 << 20) as f64,
                "MiB",
            ),
        ]
    } else if let Some(cache) = &cache0 {
        // The traced run: dataset 0's driver call once more, inside a
        // span, then the probes on the same data.
        let mut trace = Trace::new();
        let (user0, kernel0) = sys::process_cpu_secs();
        let (traced, traced_wall) = trace.span("driver call", || {
            workload::run(w, &staged[0], scale, seeds[0])
        });
        let (user1, kernel1) = sys::process_cpu_secs();
        let traced_cpu = (user1 - user0) + (kernel1 - kernel0);
        calls.record("traced call", 0, &traced);
        let overhead = traced_wall - median(&dataset0_walls);
        match traced.map(|out| {
            traced_metrics(
                w, &staged[0], cache, &out, traced_cpu, overhead, &mut trace, &mut lines,
            )
        }) {
            Ok(Ok(m)) => m,
            Ok(Err(e)) => {
                calls.failed += 1;
                calls.errors.push(format!("probes: {e}"));
                Vec::new()
            }
            Err(_) => Vec::new(),
        }
    } else {
        Vec::new()
    };

    Report {
        lines,
        attempted: calls.attempted,
        failed: calls.failed,
        errors: calls.errors,
        metrics,
    }
}

/// Runs the probes and assembles every per-layer metric.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    w: Workload,
    staged: &Staged,
    cache: &gmr_mapreduce::cache::PointCache,
    out: &Outcome,
    cpu_s: f64,
    overhead_s: f64,
    trace: &mut Trace,
    lines: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let units = layers::probe(w, staged, cache, out, trace)?;
    let stored = staged.dfs.stored_len(INPUT).map_err(|e| e.to_string())?;
    let busy = layers::busy(out, &units);
    let busy_sum: Vec<f64> = busy.iter().map(|m| m.1).collect();
    let mut metrics = layers::counts(out, stored);
    metrics.extend(layers::unit_metrics(&units));
    metrics.extend(busy);
    metrics.push((
        "runtime.other_busy_s".into(),
        residual(cpu_s, &busy_sum),
        "s",
    ));
    metrics.push(("trace.overhead_s".into(), overhead_s, "s"));

    lines.push("calibration: probe unit cost vs CostModel::default()".into());
    lines.push(format!(
        "  {:<32} {:>12} {:>12} {:>8}  model terms",
        "unit", "measured ns", "model ns", "ratio"
    ));
    for c in layers::calibration(&units, staged.truth.dim()) {
        lines.push(format!(
            "  {:<32} {:>12.3} {:>12.3} {:>8.3}  {}",
            c.what,
            c.measured_ns,
            c.model_ns,
            c.measured_ns / c.model_ns,
            c.model_terms
        ));
    }
    lines.push("spans (benchmark-side, seconds since trace start):".into());
    for (name, start, end) in &trace.spans {
        lines.push(format!(
            "  {name} [{start:.3}, {end:.3}] {:.3} s",
            end - start
        ));
    }
    Ok(metrics)
}

/// One line describing the reference answer.
fn describe(w: Workload, scale: &Scale, out: &Outcome) -> String {
    let ks: Vec<usize> = out.models.iter().map(|m| m.len()).collect();
    let k = if w == Workload::MultikCached {
        format!("{} models, k {}..={}", ks.len(), ks[0], ks[ks.len() - 1])
    } else {
        format!("k_found {} (k_real {})", ks[0], w.clusters(scale))
    };
    format!(
        "{k}; {} jobs; simulated {:.1} s; {} text scans",
        out.jobs, out.simulated_secs, out.dataset_scans
    )
}
