//! `sfence-bench`: the repo-level bench utility. `perf` runs the
//! perf-trajectory suite (golden experiments + functional batches)
//! and writes/updates `BENCH_perf.json`; with `--check` it becomes
//! the CI perf gate, failing on a >25% per-task cells/sec regression
//! against the committed artifact.
//!
//! ```text
//! sfence-bench perf [--runs N] [--threads N] [--out PATH] [--check ARTIFACT]
//! ```
//!
//! Exit codes: 0 ok, 1 perf regression (or suite error), 2 usage.

use sfence_bench::cli::{git_describe, take};
use sfence_bench::perf;
use sfence_harness::default_threads;

struct PerfArgs {
    runs: usize,
    threads: Option<usize>,
    out: Option<std::path::PathBuf>,
    check: Option<std::path::PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sfence-bench perf [--runs N] [--threads N] [--out PATH] [--check ARTIFACT]\n\
         \x20 --runs N        samples per task, median kept (default: 1; the CI gate uses 3)\n\
         \x20 --threads N     worker pool cap (default: one per CPU)\n\
         \x20 --out PATH      write the artifact to PATH instead of stdout\n\
         \x20 --check PATH    gate mode: fail (exit 1) on >{}% cells/sec regression vs PATH",
        (perf::REGRESSION_THRESHOLD * 100.0) as u32
    );
    std::process::exit(2);
}

fn parse_perf_args(mut it: impl Iterator<Item = String>) -> Result<PerfArgs, String> {
    let mut args = PerfArgs {
        runs: 1,
        threads: None,
        out: None,
        check: None,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--runs" => {
                args.runs = take(&mut it, "--runs")?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--runs expects a positive integer")?;
            }
            "--threads" => {
                args.threads = Some(
                    take(&mut it, "--threads")?
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or("--threads expects a positive integer")?,
                );
            }
            "--out" => args.out = Some(take(&mut it, "--out")?.into()),
            "--check" => args.check = Some(take(&mut it, "--check")?.into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn perf_main(args: PerfArgs) -> Result<(), String> {
    // The suite measures wall time per task, so thread count is part
    // of the measurement; default to the machine like the sweeps do.
    let threads = args.threads.unwrap_or_else(|| default_threads(usize::MAX));
    let rows = perf::run_suite(threads, args.runs)?;
    let stamp = git_describe();
    if stamp.ends_with("-dirty") {
        eprintln!("bench: WARNING: working tree is dirty; stamping perf report as {stamp:?}");
        eprintln!("bench: WARNING: commit first before refreshing a checked-in baseline");
    }
    let report = perf::report_json(&rows, threads, args.runs, &stamp);
    let text = report.to_string_pretty();
    match &args.out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("write {}: {e}", path.display()))?
        }
        None => print!("{text}"),
    }
    if let Some(artifact) = &args.check {
        let committed = std::fs::read_to_string(artifact)
            .map_err(|e| format!("read {}: {e}", artifact.display()))?;
        let committed = sfence_harness::json::parse(&committed)
            .and_then(|json| perf::parse_committed(&json))
            .map_err(|e| format!("parse {}: {e}", artifact.display()))?;
        let failures = perf::check_regressions(&rows, &committed);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("perf-gate: FAIL {f}");
            }
            return Err(format!(
                "{} task(s) regressed past the {}% gate",
                failures.len(),
                (perf::REGRESSION_THRESHOLD * 100.0) as u32
            ));
        }
        eprintln!(
            "perf-gate: ok, {} task(s) within {}% of {}",
            committed.len(),
            (perf::REGRESSION_THRESHOLD * 100.0) as u32,
            artifact.display()
        );
    }
    Ok(())
}

fn main() {
    let mut it = std::env::args().skip(1);
    match it.next().as_deref() {
        Some("perf") => {
            let args = parse_perf_args(it).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                usage();
            });
            if let Err(e) = perf_main(args) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}
