//! `repro` — regenerate the tables and figures of *"Determining the k
//! in k-means with MapReduce"* (EDBT 2014).
//!
//! ```text
//! repro <experiment> [--points N] [--k-factor F] [--seed S] [--quick]
//!
//! experiments:
//!   fig1      centers placed by successive G-means iterations
//!   fig2      reducer heap requirement sweep + 64 B/pt regression
//!   table1    G-means across k (discovered k, time, iterations)
//!   table2    single multi-k-means iteration time across k_max
//!   fig3      both time series and the crossover (runs table1+table2)
//!   table3    quality: average point-to-center distance
//!   fig4      the local-minimum illustration (ASCII plot)
//!   table4    node-count scalability (Figure 5)
//!   ablations design-choice ablations
//!   kernels   nearest-center kernel benchmark (writes BENCH_kernels.json)
//!   elastic   membership elasticity: joins, spot revocations (writes BENCH_elastic.json)
//!   scale     out-of-core spill-merge at 100x-1000x paper scale (writes BENCH_scale.json)
//!   chaos     composite storm intensity sweep, zero answer drift (writes BENCH_chaos.json)
//!   all       everything above, in order
//! ```
//!
//! Defaults run 100k-point datasets with the paper's k values halved
//! (the paper uses 10M points; halving k keeps ≥125 points per cluster,
//! which the split test needs — see EXPERIMENTS.md). `--quick` shrinks
//! further for a smoke pass; `kernels` and `scale` then print and assert
//! but write nothing, since their committed files hold full-scale rows.
//! Scaled-down runs preserve the paper's shapes, not its absolute
//! numbers.

use gmr_bench::experiments::{
    ablations, chaos, elastic, fig1, fig2, fig4, kernels, scale as scale_exp, table3, table4, times,
};
use gmr_bench::ExperimentScale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = None;
    let mut scale = ExperimentScale::default();
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                scale = ExperimentScale::quick();
                quick = true;
            }
            "--points" => {
                i += 1;
                scale.points = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--points needs a number"));
            }
            "--k-factor" => {
                i += 1;
                scale.k_factor = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--k-factor needs a number"));
            }
            "--seed" => {
                i += 1;
                scale.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            name if experiment.is_none() && !name.starts_with('-') => {
                experiment = Some(name.to_string());
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    let experiment = experiment.unwrap_or_else(|| usage("missing experiment name"));

    println!(
        "# repro {experiment} — points={} k_factor={} seed={}",
        scale.points, scale.k_factor, scale.seed
    );
    let started = std::time::Instant::now();
    match experiment.as_str() {
        "fig1" => print!("{}", fig1::render(&fig1::run(&scale))),
        "fig2" => print!("{}", fig2::render(&fig2::run(&scale))),
        "table1" => print!("{}", times::render_table1(&times::run_table1(&scale))),
        "table2" => print!("{}", times::render_table2(&times::run_table2(&scale))),
        "fig3" => {
            let t1 = times::run_table1(&scale);
            let t2 = times::run_table2(&scale);
            print!("{}", times::render_table1(&t1));
            print!("{}", times::render_table2(&t2));
            print!("{}", times::render_fig3(&t1, &t2));
        }
        "table3" => print!("{}", table3::render(&table3::run(&scale))),
        "fig4" => print!("{}", fig4::render(&fig4::run(&scale))),
        "table4" | "fig5" => {
            let (default_rows, task_rows) = table4::run_both(&scale);
            print!("{}", table4::render(&default_rows, &task_rows));
        }
        "ablations" => print!("{}", ablations::render(&ablations::run(&scale))),
        "kernels" => {
            let bench = kernels::run(&scale);
            print!("{}", kernels::render(&bench));
            kernels::assert_no_regression(&bench);
            if !quick {
                write_json("BENCH_kernels.json", bench.to_json());
            }
        }
        "elastic" => {
            let bench = elastic::run(&scale);
            print!("{}", elastic::render(&bench));
            write_json("BENCH_elastic.json", bench.to_json());
        }
        "scale" => {
            let bench = scale_exp::run(&scale);
            print!("{}", scale_exp::render(&bench));
            if quick {
                scale_exp::assert_within_budget(&bench, 1.3);
            } else {
                write_json("BENCH_scale.json", bench.to_json());
            }
        }
        "chaos" => {
            let bench = chaos::run(&scale);
            print!("{}", chaos::render(&bench));
            write_json("BENCH_chaos.json", bench.to_json());
        }
        "all" => {
            print!("{}", fig1::render(&fig1::run(&scale)));
            print!("{}", fig2::render(&fig2::run(&scale)));
            let t1 = times::run_table1(&scale);
            let t2 = times::run_table2(&scale);
            print!("{}", times::render_table1(&t1));
            print!("{}", times::render_table2(&t2));
            print!("{}", times::render_fig3(&t1, &t2));
            print!("{}", table3::render(&table3::run(&scale)));
            print!("{}", fig4::render(&fig4::run(&scale)));
            let (default_rows, task_rows) = table4::run_both(&scale);
            print!("{}", table4::render(&default_rows, &task_rows));
            print!("{}", ablations::render(&ablations::run(&scale)));
            let bench = kernels::run(&scale);
            print!("{}", kernels::render(&bench));
            if !quick {
                write_json("BENCH_kernels.json", bench.to_json());
            }
            let el = elastic::run(&scale);
            print!("{}", elastic::render(&el));
            write_json("BENCH_elastic.json", el.to_json());
            let sc = scale_exp::run(&scale);
            print!("{}", scale_exp::render(&sc));
            if quick {
                scale_exp::assert_within_budget(&sc, 1.3);
            } else {
                write_json("BENCH_scale.json", sc.to_json());
            }
            let ch = chaos::run(&scale);
            print!("{}", chaos::render(&ch));
            write_json("BENCH_chaos.json", ch.to_json());
        }
        other => usage(&format!("unknown experiment {other}")),
    }
    eprintln!(
        "\n[{experiment} finished in {:.1}s]",
        started.elapsed().as_secs_f64()
    );
}

fn write_json(path: &str, json: String) {
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("[wrote {path}]"),
        Err(e) => eprintln!("[could not write {path}: {e}]"),
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: repro <fig1|fig2|table1|table2|fig3|table3|fig4|table4|ablations|kernels|\
         elastic|scale|chaos|all> [--points N] [--k-factor F] [--seed S] [--quick]"
    );
    std::process::exit(2);
}
