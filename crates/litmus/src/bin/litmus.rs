//! `sfence-litmus`: bulk differential litmus campaigns.
//!
//! ```text
//! sfence-litmus [--families all|mp,sb,...]  scenario families (default: all)
//!               [--seeds N]                 seeds per family (default: 10)
//!               [--threads N]               worker threads (default: one per CPU)
//!               [--backend sim|functional]  execution engine (default: sim)
//!               [--json]                    machine-readable campaign verdict
//!               [--list-families]           print the families and exit
//! ```
//!
//! Every case runs the scenario under `T` (traditional fences), `S`
//! (scoped fences), `S-overflow` (scoped fences on deliberately tiny
//! FSB/FSS hardware — the degrade-to-full-fence path) and
//! `S-nofence` (fences stripped), and judges each observed final
//! state against the SC reference checker's allowed set.
//!
//! `--backend functional` runs the matrix on the fast SC interpreter
//! instead of the cycle simulator: every observed state must then be
//! SC-allowed (it cross-checks the interpreter against the
//! enumerator), and the relaxed-outcome demonstration requirement is
//! waived — an SC engine cannot exhibit relaxation.
//!
//! Output is deterministic: byte-identical across `--threads`
//! choices.
//!
//! Exit codes: 0 expectations hold, 1 runtime error, 2 usage error,
//! 4 expectation failure — a covering scope observed a non-SC state,
//! or a non-covering family failed to demonstrate any relaxed
//! outcome.

use sfence_harness::{default_threads, BackendId, CheckerConfig};
use sfence_litmus::{all_families, cases, parse_families, run_campaign, Family};

struct Args {
    families: Vec<Family>,
    seeds: u64,
    threads: Option<usize>,
    backend: BackendId,
    json: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        families: all_families(),
        seeds: 10,
        threads: None,
        backend: BackendId::Sim,
        json: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    let take = |it: &mut dyn Iterator<Item = String>, flag: &str| -> Result<String, String> {
        it.next().ok_or_else(|| format!("{flag} expects a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--families" => args.families = parse_families(&take(&mut it, "--families")?)?,
            "--seeds" => {
                args.seeds = take(&mut it, "--seeds")?
                    .parse()
                    .map_err(|_| "--seeds expects a non-negative integer".to_string())?;
            }
            "--backend" => {
                let backend = BackendId::parse(&take(&mut it, "--backend")?)?;
                if backend == BackendId::Enumerative {
                    // The enumerator already judges every case; it is
                    // not an execution engine for the matrix.
                    return Err("--backend expects sim or functional".into());
                }
                args.backend = backend;
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
            "--json" => args.json = true,
            "--list-families" => args.list = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: sfence-litmus [--families all|a,b] [--seeds N] [--backend sim|functional] \
             [--json]"
        );
        std::process::exit(2);
    });
    if args.list {
        print!(
            "{}",
            sfence_workloads::litmus::family_listing(|f| f.name().to_string())
        );
        return;
    }
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let checker = CheckerConfig::default();
    let list = cases(&args.families, args.seeds);
    let threads = args.threads.unwrap_or_else(|| default_threads(list.len()));

    let campaign = run_campaign(&args.families, args.seeds, threads, &checker, args.backend)?;
    if args.json {
        print!("{}", campaign.to_json().to_string_pretty());
        eprintln!("{}", campaign.summary_line());
    } else {
        print!("{}", campaign.to_ascii());
    }
    // Both output modes print before the verdict decides the exit code.
    let failures = campaign.expectation_failures();
    for failure in &failures {
        eprintln!("FAIL: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(4);
    }
    Ok(())
}
