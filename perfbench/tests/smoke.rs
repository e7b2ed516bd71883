//! Quick-scale smoke test: every workload runs end to end with its
//! answer checks, and the traced run puts each layer's work on the
//! workloads that exercise it.

use std::sync::Mutex;

use perfbench::bench::{run, Options};
use perfbench::workload::{Scale, Workload};

/// The heap counter behind `peak_heap_mb` counts every thread of the
/// process, so the tests run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::quick(),
    }
}

fn metric(metrics: &[perfbench::layers::Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .1
}

#[test]
fn every_workload_passes_its_answer_checks() {
    let _one = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in Workload::ALL {
        let report = run(&options(w, false));
        assert_eq!(report.failed, 0, "{}: {:?}", w.name(), report.errors);
        assert!(
            report.attempted >= 2,
            "{}: warm-up plus a timed call",
            w.name()
        );
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(
            names,
            [
                "wall_s",
                "cpu_s",
                "sim_makespan_s",
                "setup_s",
                "peak_heap_mb"
            ],
            "{}",
            w.name()
        );
        for (name, value, _) in &report.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value}",
                w.name()
            );
        }
    }
}

#[test]
fn traced_runs_put_layer_work_where_it_belongs() {
    let _one = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in Workload::ALL {
        let report = run(&options(w, true));
        assert_eq!(report.failed, 0, "{}: {:?}", w.name(), report.errors);
        let m = &report.metrics;
        let spills = metric(m, "spill.count") + metric(m, "spill.busy_s");
        assert_eq!(
            spills > 0.0,
            w == Workload::KmeansSpill,
            "{}: spill",
            w.name()
        );
        let ad = metric(m, "ad.tests") + metric(m, "ad.busy_s");
        assert_eq!(ad > 0.0, w == Workload::GmeansText, "{}: ad", w.name());
        let ckpt = metric(m, "checkpoint.commits") + metric(m, "checkpoint.busy_s");
        assert_eq!(
            ckpt > 0.0,
            w == Workload::GmeansText,
            "{}: checkpoint",
            w.name()
        );
        // Only gmeans-text re-parses the text for every job; the others
        // scan it for the initial sample and once more, for the cache or
        // for their single job.
        assert_eq!(
            metric(m, "parse.scans") > 2.0,
            w == Workload::GmeansText,
            "{}: scans",
            w.name()
        );
        assert!(metric(m, "kernel.evals") > 0.0 && metric(m, "kernel.busy_s") > 0.0);
        assert!(metric(m, "shuffle.map_output_records") > 0.0);
        assert!(metric(m, "runtime.jobs") > 0.0 && metric(m, "runtime.task_attempts") > 0.0);
    }
}
