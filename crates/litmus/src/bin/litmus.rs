//! `sfence-litmus`: bulk differential litmus campaigns.
//!
//! ```text
//! sfence-litmus [--families all|mp,sb,...]  scenario families (default: all)
//!               [--seeds N]                 seeds per family (default: 10)
//!               [--threads N]               worker threads (default: one per CPU)
//!               [--backend sim|functional]  execution engine (default: sim)
//!               [--shard I/N]               run one shard; emit indexed JSONL cases
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
//! choices, and `--shard` outputs (JSONL, tagged with case indices)
//! merge into exactly the unsharded document.
//!
//! Exit codes: 0 expectations hold, 1 runtime error, 2 usage error,
//! 4 expectation failure — a covering scope observed a non-SC state,
//! or a non-covering family failed to demonstrate any relaxed
//! outcome.

use sfence_harness::{default_threads, BackendId, CheckerConfig, Json, Shard};
use sfence_litmus::{
    all_families, case_to_json, cases, parse_families, run_campaign, run_case, Campaign, Family,
};

struct Args {
    families: Vec<Family>,
    seeds: u64,
    threads: Option<usize>,
    backend: BackendId,
    shard: Option<Shard>,
    json: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        families: all_families(),
        seeds: 10,
        threads: None,
        backend: BackendId::Sim,
        shard: None,
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
            "--shard" => args.shard = Some(Shard::parse(&take(&mut it, "--shard")?)?),
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
             [--shard I/N] [--json]"
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

    if let Some(shard) = args.shard {
        // Shard worker: judge this shard's cases and emit them as
        // index-tagged JSONL for a parent (or a test harness) to
        // merge; expectations are enforced on the merged whole, not
        // per shard.
        let selected: Vec<usize> = (0..list.len()).filter(|&i| shard.contains(i)).collect();
        let verdicts = sfence_harness::run_indexed(selected.len(), threads, |k| {
            run_case(list[selected[k]], &checker, args.backend)
        });
        let mut out = String::new();
        for (k, verdict) in verdicts.into_iter().enumerate() {
            let verdict = verdict?;
            let line = Json::obj()
                .field("case", selected[k])
                .field("verdict", case_to_json(&verdict));
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        print!("{out}");
        return Ok(());
    }

    let campaign = run_campaign(&args.families, args.seeds, threads, &checker, args.backend)?;
    if args.json {
        print!("{}", campaign.to_json().to_string_pretty());
        eprintln!("{}", campaign.summary_line());
    } else {
        print!("{}", campaign.to_ascii());
    }
    enforce_expectations(&campaign);
    Ok(())
}

/// Exit 4 when the campaign's safety expectations fail. Split out so
/// both output modes run it after printing.
fn enforce_expectations(campaign: &Campaign) {
    let s = campaign.summary();
    let mut failed = false;
    if s.covering_violations > 0 {
        eprintln!(
            "FAIL: {} run(s) with a covering scope observed a non-SC final state",
            s.covering_violations
        );
        failed = true;
    }
    // Only the weakly-ordered simulator can demonstrate relaxed
    // outcomes; a functional (SC) campaign is judged on safety alone.
    let ran_noncovering = campaign.families.iter().any(|f| !f.covering())
        && campaign.seeds > 0
        && campaign.can_demonstrate_relaxation();
    if ran_noncovering && s.noncovering_scope_violations == 0 {
        eprintln!(
            "FAIL: non-covering families ran but demonstrated no relaxed outcome \
             (the scope boundary should be observable)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(4);
    }
}
