//! `hwsweep`: the §VI-D hardware-sensitivity discussion — T vs S
//! across the ROB, store-buffer, FSB and FSS sizing axes (one
//! single-axis sweep per knob, merged into one result).
//!
//! `--json` emits the merged rows (pinned by
//! `tests/golden/hwsweep.json` at `--scale small`); `--rows` prints
//! the raw merged table; the default renders one table per axis. The
//! four sub-sweeps are also individually runnable (with caching,
//! `--workers` fan-out, engine overrides, traces and progress) through
//! `sfence-sweep --experiment hwsweep-<axis>`; this binary refuses
//! `--cache-dir`, `--backend`, `--trace` and `--progress` (exit 2).

use sfence_bench::cli::FigureArgs;
use sfence_harness::default_threads;

fn main() {
    let args = FigureArgs::parse().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    // hwsweep merges four sweeps in this process; caching, engine
    // overrides, traces and progress apply per experiment, through
    // the registered hwsweep-<axis> names.
    let per_experiment = [
        ("--cache-dir", args.cache_dir.is_some()),
        ("--backend", args.backend.is_some()),
        ("--trace", args.trace.is_some()),
        ("--progress", args.progress),
    ];
    if let Some((flag, _)) = per_experiment.iter().find(|(_, set)| *set) {
        eprintln!(
            "error: hwsweep merges four sweeps; run `sfence-sweep --experiment hwsweep-<axis>` \
             for {flag}"
        );
        std::process::exit(2);
    }
    let experiments: Vec<_> = sfence_bench::hwsweep_experiments()
        .into_iter()
        .map(|e| match args.scale {
            Some(scale) => e.scale(scale),
            None => e,
        })
        .collect();
    let total_jobs: usize = experiments.iter().map(|e| e.job_count()).sum();
    let threads = args.threads.unwrap_or_else(|| default_threads(total_jobs));
    let results: Vec<_> = experiments.iter().map(|e| e.run(threads)).collect();
    let merged = sfence_bench::hwsweep_merge(&results);
    if args.json {
        print!("{}", merged.to_json_string());
        return;
    }
    if args.rows {
        print!("{}", merged.to_ascii_table());
        return;
    }
    for result in &results {
        print!("{}", result.to_ascii_table());
        println!();
    }
    println!("paper (§VI-D): S-Fence's advantage grows with ROB/SB pressure and");
    println!("survives small FSB/FSS sizes — overflow degrades to a full fence,");
    println!("costing performance, never correctness (see sfence-litmus).");
}
