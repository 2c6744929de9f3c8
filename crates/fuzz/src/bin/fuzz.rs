//! `sfence-fuzz`: coverage-guided differential fuzzing of the
//! S-Fence memory model.
//!
//! ```text
//! sfence-fuzz [--seed N]                  PRNG seed (default: 1)
//!             [--budget N]                candidates to evaluate (default: 256)
//!             [--threads N]               worker threads (default: one per CPU)
//!             [--backend sim|functional]  execution engine (default: sim)
//!             [--inject-bug]              enable the scope unit's fault-injection knob
//!             [--no-minimize]             report divergences without delta-minimizing
//!             [--expect-divergence]       invert the verdict: finding nothing FAILS
//!             [--json]                    machine-readable report
//! ```
//!
//! Each candidate program (synthesized from the grammar in
//! `sfence_workloads::synth`, mutated from a coverage-keyed corpus)
//! runs the campaign's differential matrix — `T`, `S`, `S-overflow`,
//! `S-nofence`, plus a functional cross-check on sim runs — against
//! the SC enumerator, with per-candidate expectations from the
//! grammar's static covering analysis.
//!
//! Output is byte-identical across `--threads`. Exit codes: 0 verdict
//! as expected, 1 runtime error, 2 usage error, 4 expectation failure
//! — a divergence on real hardware, or no divergence under
//! `--expect-divergence` (the bug-injection test in `tests/cli.rs`
//! uses the latter to prove the fuzzer's teeth).

use sfence_fuzz::{run_fuzz, FuzzConfig};
use sfence_harness::{default_threads, BackendId};

struct Args {
    cfg: FuzzConfig,
    threads: Option<usize>,
    expect_divergence: bool,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: FuzzConfig::default(),
        threads: None,
        expect_divergence: false,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    let take = |it: &mut dyn Iterator<Item = String>, flag: &str| -> Result<String, String> {
        it.next().ok_or_else(|| format!("{flag} expects a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                args.cfg.seed = take(&mut it, "--seed")?
                    .parse()
                    .map_err(|_| "--seed expects a non-negative integer".to_string())?;
            }
            "--budget" => {
                args.cfg.budget = take(&mut it, "--budget")?
                    .parse()
                    .map_err(|_| "--budget expects a non-negative integer".to_string())?;
            }
            "--backend" => {
                let backend = BackendId::parse(&take(&mut it, "--backend")?)?;
                if backend == BackendId::Enumerative {
                    // The enumerator is the oracle, not an engine.
                    return Err("--backend expects sim or functional".into());
                }
                args.cfg.backend = backend;
            }
            "--threads" => {
                let n: usize = take(&mut it, "--threads")?
                    .parse()
                    .map_err(|_| "--threads expects a positive integer".to_string())?;
                if n == 0 {
                    return Err("--threads expects a positive integer".into());
                }
                args.threads = Some(n);
            }
            "--inject-bug" => args.cfg.inject_bug = true,
            "--no-minimize" => args.cfg.minimize = false,
            "--expect-divergence" => args.expect_divergence = true,
            "--json" => args.json = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: sfence-fuzz [--seed N] [--budget N] [--backend sim|functional] \
             [--inject-bug] [--no-minimize] [--expect-divergence] [--json]"
        );
        std::process::exit(2);
    });
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let threads = args
        .threads
        .unwrap_or_else(|| default_threads(args.cfg.budget));
    let report = run_fuzz(&args.cfg, threads)?;

    if args.json {
        print!("{}", report.to_json().to_string_pretty());
        eprintln!("{}", report.summary_line());
    } else {
        println!("{}", report.summary_line());
        for d in &report.divergences {
            println!(
                "DIVERGENCE [{}] {} observed {:?}",
                d.config, d.name, d.observed
            );
            if let Some(m) = &d.minimized {
                println!("  minimized -> {m}");
            }
        }
    }

    let found = !report.divergences.is_empty();
    if found && !args.expect_divergence {
        eprintln!("FAIL: the model diverged from its expectations (see above)");
        std::process::exit(4);
    }
    if !found && args.expect_divergence {
        eprintln!("FAIL: --expect-divergence, but the budget found none");
        std::process::exit(4);
    }
    Ok(())
}
